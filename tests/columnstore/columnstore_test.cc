/** @file Unit tests for the column store and its flash persistence. */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "columnstore/catalog.hh"
#include "columnstore/flash_layout.hh"
#include "columnstore/table.hh"
#include "common/compress_mode.hh"
#include "common/rng.hh"

namespace aquoman {
namespace {

std::shared_ptr<Table>
makeSales()
{
    auto t = std::make_shared<Table>("sales");
    auto &id = t->addColumn("id", ColumnType::Int64);
    auto &price = t->addColumn("price", ColumnType::Decimal);
    auto &day = t->addColumn("day", ColumnType::Date);
    auto &dept = t->addColumn("dept", ColumnType::Varchar);
    for (int i = 0; i < 1000; ++i) {
        id.push(i);
        price.push(100 + i);
        day.push(8000 + (i % 50));
        t->pushString(dept, i % 2 ? "toys" : "shoes");
    }
    return t;
}

TEST(StringHeapTest, InterningSharesStorage)
{
    StringHeap heap;
    auto a = heap.intern("hello");
    auto b = heap.intern("world");
    auto c = heap.intern("hello");
    EXPECT_EQ(a, c);
    EXPECT_NE(a, b);
    EXPECT_EQ(heap.get(a), "hello");
    EXPECT_EQ(heap.get(b), "world");
    EXPECT_EQ(heap.numStrings(), 2);
    EXPECT_EQ(heap.sizeBytes(), 12); // "hello\0world\0"
}

/**
 * The interning contract, checked against a std::unordered_map
 * reference built in the same order: ~100k strings with heavy
 * duplicates, the empty string and strings that are prefixes of one
 * another, across many doublings of the lookup table.
 */
TEST(StringHeapTest, InterningMatchesMapReference)
{
    StringHeap heap;
    EXPECT_EQ(heap.find(""), -1);
    EXPECT_EQ(heap.find("absent"), -1);
    EXPECT_EQ(heap.numStrings(), 0);

    std::unordered_map<std::string, std::int64_t> ref;
    std::vector<char> ref_bytes;
    auto ref_intern = [&](const std::string &s) {
        auto [it, fresh] = ref.emplace(
            s, static_cast<std::int64_t>(ref_bytes.size()));
        if (fresh) {
            ref_bytes.insert(ref_bytes.end(), s.begin(), s.end());
            ref_bytes.push_back('\0');
        }
        return it->second;
    };

    Rng rng(20261019);
    std::int64_t mismatches = 0;
    for (int i = 0; i < 100000; ++i) {
        std::int64_t k = i == 0 ? 0 : rng.uniform(0, 19999);
        // "", "x", "xx", ...: each a prefix of the next. "Customer#1"
        // is a prefix of "Customer#12", and all share "Customer#".
        std::string s = k % 1000 == 0 ? std::string(k / 1000, 'x')
                                      : "Customer#" + std::to_string(k);
        if (heap.intern(s) != ref_intern(s))
            ++mismatches;
    }
    EXPECT_EQ(mismatches, 0);
    EXPECT_EQ(heap.numStrings(), static_cast<std::int64_t>(ref.size()));
    EXPECT_GT(heap.numStrings(), 10000); // many table doublings
    EXPECT_EQ(heap.raw(), ref_bytes);
    for (const auto &[s, off] : ref) {
        EXPECT_EQ(heap.find(s), off) << s;
        EXPECT_EQ(heap.get(off), s);
    }
    for (const char *absent :
         {"Customer#20000", "Customer#", "ustomer#1", "Customer#01",
          "xxxxxxxxxxxxxxxxxxxxxxxx", "y"})
        EXPECT_EQ(heap.find(absent), -1) << absent;

    // Interning into a copy leaves the original untouched.
    StringHeap copy = heap;
    std::int64_t fresh = copy.intern("only in the copy");
    EXPECT_EQ(fresh, heap.sizeBytes());
    EXPECT_EQ(copy.intern("Customer#5"), heap.find("Customer#5"));
    EXPECT_EQ(copy.numStrings(), heap.numStrings() + 1);
    EXPECT_EQ(heap.find("only in the copy"), -1);
    EXPECT_EQ(heap.raw(), ref_bytes);
    EXPECT_EQ(heap.numStrings(), static_cast<std::int64_t>(ref.size()));
}

TEST(StringHeapTest, LikeLiteralRunPicksLongestRun)
{
    EXPECT_EQ(likeLiteralRun("%green%"), "green");
    EXPECT_EQ(likeLiteralRun("ab%longest_x%"), "longest");
    EXPECT_EQ(likeLiteralRun("under_score"), "under"); // tie keeps first
    EXPECT_EQ(likeLiteralRun("plain"), "plain");
    EXPECT_EQ(likeLiteralRun("%"), "");
    EXPECT_EQ(likeLiteralRun("%_%_"), "");
    EXPECT_EQ(likeLiteralRun(""), "");
}

TEST(StringHeapTest, MayContainScansAcrossHeapWithoutStraddling)
{
    StringHeap heap;
    heap.intern("forest green");
    heap.intern("metallic blue");
    EXPECT_TRUE(heap.mayContain("green"));
    EXPECT_TRUE(heap.mayContain("tallic"));
    EXPECT_TRUE(heap.mayContain("forest green"));
    EXPECT_FALSE(heap.mayContain("magenta"));
    // "greenmetallic" spans the NUL between two entries: no single
    // string contains it, and the NUL separator must stop the match.
    EXPECT_FALSE(heap.mayContain("greenmetallic"));
    // First-byte hits that fail the memcmp must keep scanning.
    EXPECT_FALSE(heap.mayContain("greet"));
    EXPECT_TRUE(heap.mayContain("")); // vacuous on a non-empty heap
    StringHeap empty;
    EXPECT_FALSE(empty.mayContain(""));
    EXPECT_FALSE(empty.mayContain("x"));
}

TEST(TableTest, ColumnLookupAndTypes)
{
    auto t = makeSales();
    EXPECT_EQ(t->numColumns(), 4);
    EXPECT_EQ(t->numRows(), 1000);
    EXPECT_EQ(t->col("price").type(), ColumnType::Decimal);
    EXPECT_EQ(t->indexOf("day"), 2);
    EXPECT_TRUE(t->hasColumn("dept"));
    EXPECT_FALSE(t->hasColumn("nope"));
    EXPECT_THROW(t->col("nope"), FatalError);
    EXPECT_EQ(t->getString(t->col("dept"), 0), "shoes");
    EXPECT_EQ(t->getString(t->col("dept"), 1), "toys");
}

TEST(TableTest, StoredBytesUsesOnFlashWidths)
{
    auto t = makeSales();
    // id: 8B, price: 8B, day: 4B, dept offsets: 8B, heap: 11B.
    std::int64_t expect = 1000 * (8 + 8 + 4 + 8) + t->strings().sizeBytes();
    EXPECT_EQ(t->storedBytes(), expect);
}

class FlashLayoutTest : public ::testing::Test
{
  protected:
    FlashLayoutTest() : dev(cfg()), sw(dev), store(sw) {}

    static FlashConfig
    cfg()
    {
        FlashConfig c;
        c.capacityBytes = 64 << 20;
        return c;
    }

    FlashDevice dev;
    ControllerSwitch sw;
    TableStore store;
};

TEST_F(FlashLayoutTest, RoundTripAllTypes)
{
    auto t = makeSales();
    auto resident = store.store(t);
    std::vector<std::int64_t> vals;
    for (int c = 0; c < t->numColumns(); ++c) {
        resident->readColumnRange(sw, FlashPort::Host, c, 0, t->numRows(),
                                  vals);
        for (std::int64_t r = 0; r < t->numRows(); ++r)
            EXPECT_EQ(vals[r], t->col(c).get(r)) << "col " << c;
    }
}

TEST_F(FlashLayoutTest, PartialRangeRead)
{
    auto t = makeSales();
    auto resident = store.store(t);
    std::vector<std::int64_t> vals;
    resident->readColumnRange(sw, FlashPort::Aquoman, 0, 500, 600, vals);
    ASSERT_EQ(vals.size(), 100u);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(vals[i], 500 + i);
    // AQUOMAN port traffic was accounted.
    EXPECT_GT(sw.bytesRead(FlashPort::Aquoman), 0);
}

TEST_F(FlashLayoutTest, DateColumnUsesFourBytes)
{
    // The raw (uncompressed) layout stores dates at 4 bytes per row.
    bool was = compressionEnabled();
    setCompressionEnabled(false);
    auto t = makeSales();
    auto resident = store.store(t);
    setCompressionEnabled(was);
    const FlashExtent &ext = resident->extents().columnExtents[2];
    EXPECT_EQ(ext.byteLength, 1000 * 4);
    EXPECT_EQ(resident->encodingMeta(2), nullptr);
}

TEST_F(FlashLayoutTest, EncodedLayoutShrinksLowCardinalityColumns)
{
    bool was = compressionEnabled();
    setCompressionEnabled(true);
    auto t = makeSales();
    auto resident = store.store(t);
    setCompressionEnabled(was);
    // day has 50 distinct values: the dictionary/FOR page encodings
    // must beat the 4-byte raw layout, and the extent holds whole
    // flash pages of encoded blocks.
    const ColumnLayoutMeta *enc = resident->encodingMeta(2);
    ASSERT_NE(enc, nullptr);
    EXPECT_EQ(enc->rows, 1000);
    EXPECT_LT(enc->encodedBytes, 1000 * 4);
    const FlashExtent &ext = resident->extents().columnExtents[2];
    EXPECT_EQ(ext.byteLength, enc->numPages() * kFlashPageBytes);
    // Page blocks cover the whole column exactly.
    std::int64_t rows = 0;
    for (const PageBlockMeta &p : enc->pages) {
        EXPECT_EQ(p.firstRow, rows);
        rows += p.rows;
    }
    EXPECT_EQ(rows, 1000);
}

TEST_F(FlashLayoutTest, CatalogMetadata)
{
    Catalog cat;
    auto t = makeSales();
    auto resident = store.store(t);
    CatalogEntry &e = cat.put(t, resident);
    e.densePrimaryKey = "id";
    EXPECT_TRUE(cat.has("sales"));
    EXPECT_EQ(cat.get("sales").densePrimaryKey, "id");
    EXPECT_THROW(cat.get("missing"), FatalError);
}

} // namespace
} // namespace aquoman
