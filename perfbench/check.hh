/**
 * @file
 * Answer checking and model fingerprinting for the benchmark. The
 * checker compares a device answer with the host engine's as sorted
 * canonical rows, so row order (which the device may change) does not
 * matter but every cell must match bitwise. The fingerprint hashes
 * modelled fields so two runs, thread counts, or commits can show that
 * the model did not move.
 */

#ifndef AQUOMAN_PERFBENCH_CHECK_HH
#define AQUOMAN_PERFBENCH_CHECK_HH

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "relalg/reltable.hh"

namespace perfbench {

/** Rows of @p t rendered cell by cell, sorted. */
inline std::vector<std::string>
canonicalRows(const aquoman::RelTable &t)
{
    std::vector<std::string> rows;
    rows.reserve(static_cast<std::size_t>(t.numRows()));
    for (std::int64_t r = 0; r < t.numRows(); ++r) {
        std::ostringstream os;
        for (int c = 0; c < t.numColumns(); ++c) {
            const aquoman::RelColumn &col = t.col(c);
            if (col.type == aquoman::ColumnType::Varchar)
                os << col.str(r);
            else
                os << col.get(r);
            os << '|';
        }
        rows.push_back(os.str());
    }
    std::sort(rows.begin(), rows.end());
    return rows;
}

/** True when @p got and @p want hold the same columns and rows. */
inline bool
sameAnswer(const aquoman::RelTable &got, const aquoman::RelTable &want)
{
    return got.numColumns() == want.numColumns()
        && got.numRows() == want.numRows()
        && canonicalRows(got) == canonicalRows(want);
}

/**
 * Corrupt one cell of @p t in place (the benchmark's self-test hook):
 * the first row of the first non-string column is incremented. Column
 * values are shared between relations, so the column is copied first.
 * Returns false when @p t has no such cell.
 */
inline bool
corruptOneCell(aquoman::RelTable &t)
{
    if (t.numRows() == 0)
        return false;
    for (int c = 0; c < t.numColumns(); ++c) {
        aquoman::RelColumn &col = t.col(c);
        if (col.type == aquoman::ColumnType::Varchar)
            continue;
        col.vals = std::make_shared<std::vector<std::int64_t>>(*col.vals);
        ++(*col.vals)[0];
        return true;
    }
    return false;
}

/**
 * FNV-1a over the exact bits of modelled fields. value() keeps the top
 * 53 bits, so the fingerprint prints as an exact JSON number.
 */
class Fingerprint
{
  public:
    void
    add(double v)
    {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &v, sizeof bits);
        mix(bits);
    }

    void add(std::int64_t v) { mix(static_cast<std::uint64_t>(v)); }

    double value() const { return static_cast<double>(hash >> 11); }

  private:
    void
    mix(std::uint64_t bits)
    {
        for (int i = 0; i < 8; ++i) {
            hash ^= (bits >> (8 * i)) & 0xffu;
            hash *= 0x100000001b3ull;
        }
    }

    std::uint64_t hash = 0xcbf29ce484222325ull;
};

} // namespace perfbench

#endif // AQUOMAN_PERFBENCH_CHECK_HH
