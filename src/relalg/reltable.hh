/**
 * @file
 * Materialised relations flowing between plan operators. Unlike the
 * base-table Table (one string heap per table), a RelTable carries a
 * heap pointer per column so joins can combine columns from different
 * source tables without rewriting heap offsets.
 */

#ifndef AQUOMAN_RELALG_RELTABLE_HH
#define AQUOMAN_RELALG_RELTABLE_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "common/types.hh"
#include "columnstore/string_heap.hh"

namespace aquoman {

/** One column of an intermediate relation. */
struct RelColumn
{
    std::string name;
    ColumnType type = ColumnType::Int64;
    std::shared_ptr<std::vector<std::int64_t>> vals;
    std::shared_ptr<const StringHeap> heap; ///< set iff type == Varchar

    RelColumn() : vals(std::make_shared<std::vector<std::int64_t>>()) {}

    RelColumn(std::string n, ColumnType t)
        : name(std::move(n)), type(t),
          vals(std::make_shared<std::vector<std::int64_t>>())
    {
    }

    std::int64_t size() const
    {
        return static_cast<std::int64_t>(vals->size());
    }

    std::int64_t get(std::int64_t i) const { return (*vals)[i]; }
    void push(std::int64_t v) { vals->push_back(v); }

    /** String value at row @p i (Varchar columns only). */
    std::string_view
    str(std::int64_t i) const
    {
        AQ_ASSERT(type == ColumnType::Varchar && heap);
        return heap->get((*vals)[i]);
    }
};

/** A materialised relation: equal-length named columns. */
class RelTable
{
  public:
    RelTable() = default;

    /** Append a column (must match existing row count, or be first). */
    void
    addColumn(RelColumn c)
    {
        if (!columns.empty()) {
            AQ_ASSERT(c.size() == numRows(), "ragged relation: ", c.name,
                      " has ", c.size(), " rows, expected ", numRows());
        }
        AQ_ASSERT(!hasColumn(c.name), "duplicate column ", c.name);
        columns.push_back(std::move(c));
    }

    int numColumns() const { return static_cast<int>(columns.size()); }

    std::int64_t
    numRows() const
    {
        return columns.empty() ? 0 : columns.front().size();
    }

    const RelColumn &col(int i) const { return columns.at(i); }
    RelColumn &col(int i) { return columns.at(i); }

    const RelColumn &
    col(const std::string &name) const
    {
        return columns.at(indexOf(name));
    }

    int
    indexOf(const std::string &name) const
    {
        for (std::size_t i = 0; i < columns.size(); ++i)
            if (columns[i].name == name)
                return static_cast<int>(i);
        fatal("no column '", name, "' in relation");
    }

    bool
    hasColumn(const std::string &name) const
    {
        for (const auto &c : columns)
            if (c.name == name)
                return true;
        return false;
    }

    /** All column names in order. */
    std::vector<std::string>
    columnNames() const
    {
        std::vector<std::string> out;
        for (const auto &c : columns)
            out.push_back(c.name);
        return out;
    }

    /** Approximate resident bytes of this relation (for RSS models). */
    std::int64_t
    residentBytes() const
    {
        std::int64_t total = 0;
        for (const auto &c : columns)
            total += c.size() * 8;
        return total;
    }

  private:
    std::vector<RelColumn> columns;
};

} // namespace aquoman

#endif // AQUOMAN_RELALG_RELTABLE_HH
