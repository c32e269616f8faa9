/** @file Unit tests for the baseline engine's operators. */

#include <gtest/gtest.h>

#include <map>
#include <memory>

#include "common/compress_mode.hh"
#include "common/rng.hh"
#include "common/thread_pool.hh"
#include "engine/executor.hh"
#include "tpch/dbgen.hh"

namespace aquoman {
namespace {

/** Small sales/inventory database matching the paper's Sec. III example. */
class ExecutorTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        auto inv = std::make_shared<Table>("inventory");
        auto &ik = inv->addColumn("invtID", ColumnType::Int64);
        auto &cat_c = inv->addColumn("category", ColumnType::Varchar);
        for (int i = 1; i <= 10; ++i) {
            ik.push(i);
            inv->pushString(cat_c, i % 3 == 0 ? "Shoes" : "Toys");
        }

        auto sales = std::make_shared<Table>("sales_transactions");
        auto &tid = sales->addColumn("transactionID", ColumnType::Int64);
        auto &dept = sales->addColumn("department", ColumnType::Varchar);
        auto &sdate = sales->addColumn("saledate", ColumnType::Date);
        auto &price = sales->addColumn("price", ColumnType::Decimal);
        auto &disc = sales->addColumn("discount", ColumnType::Decimal);
        auto &tax = sales->addColumn("tax", ColumnType::Decimal);
        auto &item = sales->addColumn("invtID", ColumnType::Int64);
        for (int i = 0; i < 100; ++i) {
            tid.push(i);
            sales->pushString(dept, i % 2 ? "east" : "west");
            sdate.push(parseDate("2018-01-01") + i * 5);
            price.push(makeDecimal(10 + i));
            disc.push(i % 10);
            tax.push(i % 5);
            item.push(i % 10 + 1);
        }

        catalog.put(inv, nullptr);
        catalog.put(sales, nullptr);
    }

    Catalog catalog;
};

TEST_F(ExecutorTest, FilterProjectAggregate)
{
    // The paper's Fig. 1 query: net sale and revenue per department
    // before a date cutoff.
    std::int32_t cutoff = parseDate("2018-12-01");
    auto plan = orderBy(
        groupBy(
            project(
                filter(scan("sales_transactions"),
                       le(col("saledate"), litDateDays(cutoff))),
                {{"department", col("department")},
                 {"netsale", mul(col("price"),
                                 sub(litDec("1.00"), col("discount")))},
                 {"revenue",
                  mul(mul(col("price"),
                          sub(litDec("1.00"), col("discount"))),
                      add(litDec("1.00"), col("tax")))}}),
            {"department"},
            {{"netsale", AggKind::Sum, col("netsale")},
             {"revenue", AggKind::Sum, col("revenue")}}),
        {{"department", false}});
    Executor ex(catalog);
    RelTable out = ex.run(Query{"fig1", {{"out", plan}}});
    ASSERT_EQ(out.numRows(), 2);
    EXPECT_EQ(out.col("department").str(0), "east");
    EXPECT_EQ(out.col("department").str(1), "west");

    // Independent reference computation.
    std::int64_t east = 0, west = 0;
    const auto &sales = *catalog.get("sales_transactions").table;
    for (std::int64_t i = 0; i < sales.numRows(); ++i) {
        if (sales.col("saledate").get(i) > cutoff)
            continue;
        std::int64_t v = decimalMul(sales.col("price").get(i),
                                    100 - sales.col("discount").get(i));
        (i % 2 ? east : west) += v;
    }
    EXPECT_EQ(out.col("netsale").get(0), east);
    EXPECT_EQ(out.col("netsale").get(1), west);
}

TEST_F(ExecutorTest, InnerJoinMatchesReference)
{
    // The paper's Fig. 4 join query: shoe sales after a date.
    std::int32_t cutoff = parseDate("2018-03-15");
    auto plan = groupBy(
        join(JoinType::Inner,
             filter(scan("sales_transactions"),
                    gt(col("saledate"), litDateDays(cutoff))),
             filter(scan("inventory"),
                    eq(col("category"), litStr("Shoes"))),
             {"invtID"}, {"invtID"}),
        {}, {{"shoe_sales", AggKind::Sum, col("price")}});
    // Column name collision (invtID on both sides) must be reported.
    Executor ex(catalog);
    EXPECT_THROW(ex.run(Query{"bad", {{"out", plan}}}), PanicError);

    auto good = groupBy(
        join(JoinType::Inner,
             filter(scan("sales_transactions"),
                    gt(col("saledate"), litDateDays(cutoff))),
             filter(scan("inventory", "i"),
                    eq(col("i.category"), litStr("Shoes"))),
             {"invtID"}, {"i.invtID"}),
        {}, {{"shoe_sales", AggKind::Sum, col("price")}});
    RelTable out = ex.run(Query{"fig4", {{"out", good}}});
    ASSERT_EQ(out.numRows(), 1);

    std::int64_t want = 0;
    const auto &sales = *catalog.get("sales_transactions").table;
    for (std::int64_t i = 0; i < sales.numRows(); ++i) {
        std::int64_t item = sales.col("invtID").get(i);
        if (sales.col("saledate").get(i) > cutoff && item % 3 == 0)
            want += sales.col("price").get(i);
    }
    EXPECT_EQ(out.col("shoe_sales").get(0), want);
}

TEST_F(ExecutorTest, SemiAndAntiJoinPartitionLeftRows)
{
    auto shoes = filter(scan("inventory"),
                        eq(col("category"), litStr("Shoes")));
    auto semi = join(JoinType::LeftSemi, scan("sales_transactions"),
                     shoes, {"invtID"}, {"invtID"});
    auto anti = join(JoinType::LeftAnti, scan("sales_transactions"),
                     shoes, {"invtID"}, {"invtID"});
    Executor ex(catalog);
    RelTable s = ex.runPlan(semi, {});
    RelTable a = ex.runPlan(anti, {});
    EXPECT_EQ(s.numRows() + a.numRows(), 100);
    for (std::int64_t i = 0; i < s.numRows(); ++i)
        EXPECT_EQ(s.col("invtID").get(i) % 3, 0);
    for (std::int64_t i = 0; i < a.numRows(); ++i)
        EXPECT_NE(a.col("invtID").get(i) % 3, 0);
}

TEST_F(ExecutorTest, SemiJoinWithResidual)
{
    // Sales that share an item with a *different* transaction.
    auto semi = join(JoinType::LeftSemi, scan("sales_transactions"),
                     scan("sales_transactions", "o",
                          {"transactionID", "invtID"}),
                     {"invtID"}, {"o.invtID"},
                     ne(col("transactionID"), col("o.transactionID")));
    Executor ex(catalog);
    RelTable out = ex.runPlan(semi, {});
    // Every item appears in 10 transactions, so all rows qualify.
    EXPECT_EQ(out.numRows(), 100);
}

TEST_F(ExecutorTest, LeftOuterJoinProducesNulls)
{
    // Join inventory against sales of expensive items only.
    auto expensive = filter(scan("sales_transactions", "s"),
                            gt(col("s.price"), litDec("105.00")));
    auto outer = join(JoinType::LeftOuter, scan("inventory"), expensive,
                      {"invtID"}, {"s.invtID"});
    Executor ex(catalog);
    RelTable out = ex.runPlan(outer, {});
    // Items 6..10 sell above 105.00 at least once (prices 10..109).
    std::int64_t nulls = 0;
    for (std::int64_t i = 0; i < out.numRows(); ++i)
        nulls += out.col("s.transactionID").get(i) == kNullValue;
    EXPECT_GT(nulls, 0);
    EXPECT_EQ(out.numRows() - nulls + nulls, out.numRows());

    // Count() over the nullable column skips NULLs.
    auto counted = groupBy(outer, {"invtID"},
                           {{"n", AggKind::Count,
                             col("s.transactionID")}});
    RelTable cnt = ex.runPlan(counted, {});
    EXPECT_EQ(cnt.numRows(), 10);
    std::int64_t zero_groups = 0;
    for (std::int64_t i = 0; i < cnt.numRows(); ++i)
        zero_groups += cnt.col("n").get(i) == 0;
    EXPECT_GT(zero_groups, 0);
}

TEST_F(ExecutorTest, OrderByWithLimitAndDescending)
{
    auto plan = orderBy(scan("sales_transactions"),
                        {{"price", true}, {"transactionID", false}}, 5);
    Executor ex(catalog);
    RelTable out = ex.runPlan(plan, {});
    ASSERT_EQ(out.numRows(), 5);
    for (int i = 0; i < 4; ++i)
        EXPECT_GE(out.col("price").get(i), out.col("price").get(i + 1));
    EXPECT_EQ(out.col("price").get(0), makeDecimal(109));
}

TEST_F(ExecutorTest, GroupByCountDistinctAndMinMax)
{
    auto plan = groupBy(scan("sales_transactions"), {"department"},
                        {{"items", AggKind::CountDistinct, col("invtID")},
                         {"lo", AggKind::Min, col("price")},
                         {"hi", AggKind::Max, col("price")},
                         {"avg_price", AggKind::Avg, col("price")}});
    Executor ex(catalog);
    RelTable out = ex.runPlan(plan, {});
    ASSERT_EQ(out.numRows(), 2);
    for (std::int64_t g = 0; g < 2; ++g) {
        EXPECT_EQ(out.col("items").get(g), 5); // 10 items split evenly
        EXPECT_LE(out.col("lo").get(g), out.col("hi").get(g));
    }
}

TEST_F(ExecutorTest, CrossJoinBroadcastWithResidual)
{
    // Keyless join broadcasts a single-row stage (q11/q22 pattern).
    auto avg_stage = groupBy(scan("sales_transactions"), {},
                             {{"avg_price", AggKind::Avg, col("price")}});
    auto out_plan = join(JoinType::Inner,
                         scan("sales_transactions"),
                         scanStage("avg"), {}, {},
                         gt(col("price"), col("avg_price")));
    Executor ex(catalog);
    RelTable out = ex.run(Query{"q", {{"avg", avg_stage},
                                      {"out", out_plan}}});
    // Prices are 10.00..109.00 uniform; about half exceed the mean.
    EXPECT_GT(out.numRows(), 40);
    EXPECT_LT(out.numRows(), 60);
}

TEST_F(ExecutorTest, MetricsAccumulate)
{
    Executor ex(catalog);
    ex.runPlan(orderBy(scan("sales_transactions"), {{"price", false}}), {});
    const EngineMetrics &m = ex.metrics();
    EXPECT_GT(m.rowOps, 0.0);
    EXPECT_GT(m.touchedBaseBytes, 0);
    EXPECT_GT(m.peakIntermediateBytes, 0);
    EXPECT_GT(m.seqRowOps, 0.0);
    EXPECT_LE(m.seqRowOps, m.rowOps);
}

TEST_F(ExecutorTest, UnknownStageIsFatal)
{
    Executor ex(catalog);
    EXPECT_THROW(ex.runPlan(scanStage("nope"), {}), FatalError);
}

/**
 * Host scans read the in-memory columns and only account their flash
 * traffic. Scanning every column of every TPC-H table must charge the
 * host port exactly what real readColumnRange reads of the same
 * columns move through a second switch (encoded page blocks when
 * compressed, the raw width otherwise), and return Column::data(). A
 * non-resident catalog (the service's) is charged the raw layout plus
 * each varchar column's heap bytes.
 */
TEST(ExecutorScanLedger, HostPortBytesMatchRealFlashReads)
{
    bool saved = compressionEnabled();
    auto db = tpch::TpchDatabase::generate(tpch::TpchConfig{0.002, 3});
    FlashConfig fc;
    fc.capacityBytes = 64 << 20;
    struct Setup
    {
        const char *name;
        bool resident;
        bool compress;
    };
    for (Setup s : {Setup{"resident compressed", true, true},
                    Setup{"resident raw", true, false},
                    Setup{"non-resident", false, false}}) {
        SCOPED_TRACE(s.name);
        setCompressionEnabled(s.compress);
        FlashDevice dev(fc), ref_dev(fc);
        ControllerSwitch sw(dev), ref_sw(ref_dev);
        TableStore store(sw), ref_store(ref_sw);
        Catalog cat;
        if (s.resident) {
            db.installInto(cat, store);
        } else {
            for (const auto &t : {db.region, db.nation, db.supplier,
                                  db.customer, db.part, db.partsupp,
                                  db.orders, db.lineitem})
                cat.put(t, nullptr);
            db.registerMetadata(cat);
        }
        ASSERT_EQ(sw.bytesRead(FlashPort::Host), 0);

        Executor ex(cat, &sw);
        std::int64_t expect_trace = 0;
        for (const auto &[name, entry] : cat.all()) {
            const Table &t = *entry.table;
            RelTable out = ex.runPlan(scan(name), {});
            ASSERT_EQ(out.numColumns(), t.numColumns());
            auto ref = ref_store.store(entry.table);
            std::vector<std::int64_t> vals;
            for (int ci = 0; ci < t.numColumns(); ++ci) {
                const Column &c = t.col(ci);
                ref->readColumnRange(ref_sw, FlashPort::Host, ci, 0,
                                     c.size(), vals);
                EXPECT_EQ(vals, c.data()) << name << "." << c.name();
                EXPECT_EQ(*out.col(ci).vals, c.data())
                    << name << "." << c.name();
                expect_trace += c.storedBytes();
                if (c.type() == ColumnType::Varchar) {
                    EXPECT_EQ(out.col(ci).heap.get(), &t.strings());
                    std::int64_t hb =
                        columnHeapInfo(entry, c.name()).heapBytes;
                    expect_trace += hb;
                    if (!s.resident)
                        ref_sw.accountRead(FlashPort::Host, hb);
                }
            }
        }
        EXPECT_EQ(sw.bytesRead(FlashPort::Host),
                  ref_sw.bytesRead(FlashPort::Host));
        EXPECT_EQ(sw.bytesRead(FlashPort::Aquoman), 0);
        EXPECT_EQ(ex.metrics().flashBytesRead, expect_trace);
        EXPECT_EQ(ex.metrics().touchedBaseBytes, expect_trace);
        EXPECT_EQ(dev.bytesRead(), 0) << "a scan moved flash pages";
    }
    setCompressionEnabled(saved);
}

// The rules below are shared by the engine and the device, so a bug in
// them hides from every device == engine comparison; each is checked
// against hand-computed answers.

TEST(JoinOutputRows, EveryJoinTypeOverSparsePass)
{
    // Candidates 1, 2 and 4 pass: pairs (2,1), (0,4), (2,2). Left rows
    // 1, 3 and 4 have no passing pair (3 has a failing one).
    const std::vector<std::int64_t> li{0, 2, 0, 3, 2};
    const std::vector<std::int64_t> ri{5, 1, 4, 0, 2};
    const SelectionVector pass = SelectionVector::sparse({1, 2, 4});
    using V = std::vector<std::int64_t>;
    const struct
    {
        JoinType type;
        V l, r;
    } cases[] = {
        {JoinType::Inner, {2, 0, 2}, {1, 4, 2}}, // candidate order
        {JoinType::LeftSemi, {0, 2}, {}},
        {JoinType::LeftAnti, {1, 3, 4}, {}},
        {JoinType::LeftOuter, {2, 0, 2, 1, 3, 4}, {1, 4, 2, -1, -1, -1}},
    };
    for (const auto &c : cases) {
        V out_l, out_r;
        joinOutputRows(c.type, li, ri, pass, 5, out_l, out_r);
        EXPECT_EQ(out_l, c.l) << static_cast<int>(c.type);
        EXPECT_EQ(out_r, c.r) << static_cast<int>(c.type);
    }
}

TEST(JoinOutputRows, DensePassAndEmptyCandidates)
{
    using V = std::vector<std::int64_t>;
    const V li{1, 1}, ri{0, 3};
    V out_l, out_r;
    joinOutputRows(JoinType::Inner, li, ri, SelectionVector::dense(2), 3,
                   out_l, out_r);
    EXPECT_EQ(out_l, (V{1, 1}));
    EXPECT_EQ(out_r, (V{0, 3}));

    // No candidate at all: only the anti and outer joins emit rows, in
    // left order, the outer one with a NULL right side.
    const V none;
    for (JoinType type : {JoinType::Inner, JoinType::LeftSemi,
                          JoinType::LeftAnti, JoinType::LeftOuter}) {
        out_l.clear();
        out_r.clear();
        joinOutputRows(type, none, none, SelectionVector::dense(0), 3,
                       out_l, out_r);
        bool keeps = type == JoinType::LeftAnti
            || type == JoinType::LeftOuter;
        EXPECT_EQ(out_l, keeps ? V({0, 1, 2}) : V());
        EXPECT_EQ(out_r, type == JoinType::LeftOuter ? V({-1, -1, -1}) : V());
    }
}

TEST(FinalizeAggregate, EveryKindPerGroup)
{
    // Three groups; the last saw no (non-NULL) input.
    const std::int64_t acc[] = {10, 7, 0};
    const std::int64_t cnt[] = {2, 1, 0};
    const std::int64_t N = kNullValue;
    using V = std::vector<std::int64_t>;
    const struct
    {
        AggKind kind;
        ColumnType in, out;
        V vals;
    } cases[] = {
        {AggKind::Sum, ColumnType::Decimal, ColumnType::Decimal, {10, 7, 0}},
        {AggKind::Min, ColumnType::Int64, ColumnType::Int64, {10, 7, N}},
        {AggKind::Max, ColumnType::Date, ColumnType::Date, {10, 7, N}},
        {AggKind::Count, ColumnType::Decimal, ColumnType::Int64, {2, 1, 0}},
        {AggKind::CountDistinct, ColumnType::Varchar, ColumnType::Int64,
         {2, 1, 0}},
        // Int64 sums are scaled to Decimal before the division.
        {AggKind::Avg, ColumnType::Int64, ColumnType::Decimal, {500, 700, N}},
        {AggKind::Avg, ColumnType::Decimal, ColumnType::Decimal, {5, 7, N}},
    };
    for (const auto &c : cases) {
        RelColumn out =
            finalizeAggregate("a", c.kind, c.in, acc, cnt, 3, false);
        EXPECT_EQ(out.name, "a");
        EXPECT_EQ(out.type, c.out) << static_cast<int>(c.kind);
        EXPECT_EQ(*out.vals, c.vals) << static_cast<int>(c.kind);
    }
}

TEST(FinalizeAggregate, EmptyGlobalIsOneRow)
{
    for (AggKind kind : {AggKind::Sum, AggKind::Min, AggKind::Max,
                         AggKind::Count, AggKind::Avg,
                         AggKind::CountDistinct}) {
        RelColumn out = finalizeAggregate("a", kind, ColumnType::Decimal,
                                          nullptr, nullptr, 0, true);
        bool counts =
            kind == AggKind::Count || kind == AggKind::CountDistinct;
        ASSERT_EQ(out.size(), 1) << static_cast<int>(kind);
        EXPECT_EQ(out.get(0), counts ? 0 : kNullValue);
    }
    // Without the flag, no group means no row.
    EXPECT_EQ(finalizeAggregate("a", AggKind::Count, ColumnType::Int64,
                                nullptr, nullptr, 0, false).size(), 0);
}

TEST(GatherValues, NegativeIndicesAndRaggedMorselsAtAnyThreadCount)
{
    std::vector<std::int64_t> src(1000);
    for (std::int64_t i = 0; i < 1000; ++i)
        src[i] = i * 3 + 1;
    // Every 7th index negative. The long gather fans out in full
    // morsels plus a ragged tail; the short one runs inline.
    for (std::int64_t n : {kGatherFanoutRows + 3 * kMorselRows + 123,
                           3 * kMorselRows + 123}) {
        std::vector<std::int64_t> idx(n), want(n);
        for (std::int64_t k = 0; k < n; ++k) {
            idx[k] = k % 7 == 0 ? -1 : (k * 37) % 1000;
            want[k] = idx[k] < 0 ? kNullValue : src[idx[k]];
        }
        for (int threads : {1, 4}) {
            ThreadPool::setGlobalParallelism(threads);
            EXPECT_EQ(gatherValues(src, idx), want)
                << n << " rows, " << threads << " threads";
        }
    }
    ThreadPool::setGlobalParallelism(ThreadPool::configuredParallelism());
    EXPECT_TRUE(gatherValues(src, {}).empty());
}

// Hash-join match order and group-by group order are part of every
// answer. Both are checked against naive references over inputs whose
// probe side spans several morsels, at 1 and 4 threads.

/** Key shape of one order-contract case. */
struct KeyShape
{
    int lanes;
    int varcharLane = -1; ///< the one varchar lane, or -1
    bool twoHeaps = false; ///< join sides intern into different heaps
    bool buildNulls = true; ///< the build side has NULL keys too
    std::int64_t stride = 1; ///< spacing of the last int lane's values
};

void
PrintTo(const KeyShape &k, std::ostream *os)
{
    *os << k.lanes << " lanes, varchar lane " << k.varcharLane
        << (k.twoHeaps ? ", two heaps" : "")
        << (k.buildNulls ? "" : ", no build NULLs");
    if (k.stride != 1)
        *os << ", stride " << k.stride;
}

/**
 * A relation of @p ks.size() rows: a row-id column "<p>id" and key
 * lanes "<p>k0".., derived from key index ks[r]: bit l of the index in
 * lane l, the remaining high bits times the shape's stride in the last
 * lane. So each lane alone repeats across indexes and only the whole
 * key tells them apart. A
 * negative index is a NULL key: kNullValue in its first non-varchar
 * lane. The varchar lane holds "s<n>" interned in @p heap.
 */
RelTable
keyedTable(const std::string &p, const std::vector<std::int64_t> &ks,
           const KeyShape &shape, const std::shared_ptr<StringHeap> &heap)
{
    RelTable t;
    RelColumn id(p + "id", ColumnType::Int64);
    for (std::size_t r = 0; r < ks.size(); ++r)
        id.push(static_cast<std::int64_t>(r));
    t.addColumn(std::move(id));
    int null_lane = shape.varcharLane == 0 ? 1 : 0;
    for (int l = 0; l < shape.lanes; ++l) {
        bool varchar = l == shape.varcharLane;
        RelColumn c(p + "k" + std::to_string(l),
                    varchar ? ColumnType::Varchar : ColumnType::Int64);
        if (varchar)
            c.heap = heap;
        for (std::int64_t k : ks) {
            std::int64_t bits = std::max<std::int64_t>(k, 0) >> l;
            std::int64_t v =
                l + 1 < shape.lanes ? bits & 1 : bits * shape.stride;
            if (varchar)
                c.push(heap->intern("s" + std::to_string(v)));
            else
                c.push(k < 0 && l == null_lane ? kNullValue : v);
        }
        t.addColumn(std::move(c));
    }
    return t;
}

/**
 * @p n key indexes uniform in [@p lo, @p lo + 40), about 5% of them
 * NULL when @p nulls is set.
 */
std::vector<std::int64_t>
keyIndexes(Rng &rng, std::int64_t n, std::int64_t lo, bool nulls)
{
    std::vector<std::int64_t> ks(n);
    for (auto &k : ks)
        k = nulls && rng.uniform(0, 19) == 0 ? -1 : rng.uniform(lo, lo + 39);
    return ks;
}

using KeyCols = std::vector<const RelColumn *>;

/** Naive key equality: raw values, or the strings of varchar lanes. */
bool
sameKeys(const KeyCols &a, std::int64_t i, const KeyCols &b, std::int64_t j)
{
    for (std::size_t l = 0; l < a.size(); ++l) {
        bool eq = a[l]->type == ColumnType::Varchar
            ? a[l]->str(i) == b[l]->str(j)
            : a[l]->get(i) == b[l]->get(j);
        if (!eq)
            return false;
    }
    return true;
}

KeyCols
keyCols(const RelTable &t, const std::vector<std::string> &names)
{
    KeyCols out;
    for (const auto &n : names)
        out.push_back(&t.col(n));
    return out;
}

std::vector<std::string>
laneNames(const std::string &p, int lanes)
{
    std::vector<std::string> out;
    for (int l = 0; l < lanes; ++l)
        out.push_back(p + "k" + std::to_string(l));
    return out;
}

class JoinOrderContract : public ::testing::TestWithParam<KeyShape>
{
};

TEST_P(JoinOrderContract, EveryJoinTypeMatchesNestedLoop)
{
    const KeyShape shape = GetParam();
    Rng rng(0x5eed + shape.lanes * 7 + shape.varcharLane * 3
            + shape.twoHeaps);
    auto left_heap = std::make_shared<StringHeap>();
    auto right_heap = left_heap;
    if (shape.twoHeaps) {
        // Different offsets for the same strings. With a varchar-only
        // key, build key indexes 40.. are strings the probe heap lacks.
        right_heap = std::make_shared<StringHeap>();
        for (int i = 0; i < 10; ++i)
            right_heap->intern("pad" + std::to_string(i));
    }
    bool nulls = shape.lanes > 1 || shape.varcharLane < 0;
    // Heavy duplicates on the build side (~17 rows per key); the probe
    // side spans three full morsels plus a ragged one, and half its key
    // indexes miss. A one-lane int build key whose values span under
    // 4 * rows + 1024 slots is indexed directly; NULLs (kNullValue) or
    // a wide stride make it hash instead.
    RelTable right = keyedTable(
        "r", keyIndexes(rng, 700, 20, nulls && shape.buildNulls), shape,
        right_heap);
    RelTable left = keyedTable(
        "l", keyIndexes(rng, 3 * kMorselRows + 777, 0, nulls), shape,
        left_heap);
    std::vector<std::string> lk = laneNames("l", shape.lanes);
    std::vector<std::string> rk = laneNames("r", shape.lanes);

    // Probe rows ascending, build rows descending.
    using V = std::vector<std::int64_t>;
    V pair_l, pair_r, semi, anti;
    KeyCols lc = keyCols(left, lk), rc = keyCols(right, rk);
    for (std::int64_t i = 0; i < left.numRows(); ++i) {
        bool any = false;
        for (std::int64_t j = right.numRows() - 1; j >= 0; --j) {
            if (sameKeys(lc, i, rc, j)) {
                pair_l.push_back(i);
                pair_r.push_back(j);
                any = true;
            }
        }
        (any ? semi : anti).push_back(i);
    }
    ASSERT_GT(pair_l.size(), 10 * semi.size());
    ASSERT_FALSE(anti.empty());
    V outer_l = pair_l, outer_r = pair_r;
    outer_l.insert(outer_l.end(), anti.begin(), anti.end());
    outer_r.insert(outer_r.end(), anti.size(), kNullValue);

    const std::map<std::string, RelTable> stages{{"l", left},
                                                 {"r", right}};
    const struct
    {
        JoinType type;
        const V &l, *r;
    } cases[] = {
        {JoinType::Inner, pair_l, &pair_r},
        {JoinType::LeftSemi, semi, nullptr},
        {JoinType::LeftAnti, anti, nullptr},
        {JoinType::LeftOuter, outer_l, &outer_r},
    };
    Catalog none;
    for (int threads : {1, 4}) {
        ThreadPool::setGlobalParallelism(threads);
        for (const auto &c : cases) {
            Executor ex(none);
            RelTable out = ex.runPlan(
                join(c.type, scanStage("l"), scanStage("r"), lk, rk),
                stages);
            SCOPED_TRACE(::testing::Message()
                         << "join type " << static_cast<int>(c.type)
                         << ", " << threads << " threads");
            EXPECT_EQ(*out.col("lid").vals, c.l);
            if (c.r)
                EXPECT_EQ(*out.col("rid").vals, *c.r);
            else
                EXPECT_FALSE(out.hasColumn("rid"));
        }
    }
    ThreadPool::setGlobalParallelism(ThreadPool::configuredParallelism());
}

INSTANTIATE_TEST_SUITE_P(
    Keys, JoinOrderContract,
    ::testing::Values(KeyShape{1}, KeyShape{2}, KeyShape{3}, KeyShape{4},
                      KeyShape{5}, KeyShape{1, 0}, KeyShape{3, 1},
                      KeyShape{1, 0, true}, KeyShape{3, 1, true},
                      KeyShape{1, -1, false, false},
                      KeyShape{1, -1, false, false, 1000}),
    [](const auto &info) {
        const KeyShape &k = info.param;
        return std::to_string(k.lanes) + "Lanes"
            + (k.varcharLane < 0 ? ""
               : k.twoHeaps      ? "VarcharTwoHeaps"
                                 : "VarcharSharedHeap")
            + (k.buildNulls ? "" : "NoBuildNulls")
            + (k.stride == 1 ? "" : "Sparse");
    });

class GroupOrderContract : public ::testing::TestWithParam<KeyShape>
{
};

TEST_P(GroupOrderContract, GroupsComeOutInFirstSeenOrder)
{
    const KeyShape shape = GetParam();
    Rng rng(0x9a + shape.lanes);
    const std::int64_t n = 3 * kMorselRows + 777;
    RelTable in = keyedTable("g", keyIndexes(rng, n, 0, true), shape,
                             std::make_shared<StringHeap>());
    std::vector<std::string> gk = laneNames("g", shape.lanes);

    // Reference: a linear search over the groups seen so far.
    std::vector<std::int64_t> first, sums, counts;
    KeyCols kc = keyCols(in, gk);
    for (std::int64_t i = 0; i < n; ++i) {
        std::size_t g = 0;
        while (g < first.size() && !sameKeys(kc, i, kc, first[g]))
            ++g;
        if (g == first.size()) {
            first.push_back(i);
            sums.push_back(0);
            counts.push_back(0);
        }
        sums[g] += in.col("gid").get(i);
        ++counts[g];
    }
    ASSERT_EQ(first.size() > 1, shape.lanes > 0);

    const std::map<std::string, RelTable> stages{{"g", in}};
    Catalog none;
    for (int threads : {1, 4}) {
        ThreadPool::setGlobalParallelism(threads);
        Executor ex(none);
        RelTable out = ex.runPlan(
            groupBy(scanStage("g"), gk,
                    {{"sum", AggKind::Sum, col("gid")},
                     {"n", AggKind::Count, nullptr}}),
            stages);
        SCOPED_TRACE(::testing::Message() << threads << " threads");
        ASSERT_EQ(out.numRows(), static_cast<std::int64_t>(first.size()));
        for (const std::string &k : gk)
            EXPECT_EQ(*out.col(k).vals, gatherValues(*in.col(k).vals, first));
        EXPECT_EQ(*out.col("sum").vals, sums);
        EXPECT_EQ(*out.col("n").vals, counts);
    }
    ThreadPool::setGlobalParallelism(ThreadPool::configuredParallelism());
}

INSTANTIATE_TEST_SUITE_P(
    Keys, GroupOrderContract,
    ::testing::Values(KeyShape{0}, KeyShape{1, 0}, KeyShape{4, 2},
                      KeyShape{6, 2}),
    [](const auto &info) {
        return std::to_string(info.param.lanes) + "Columns";
    });

} // namespace
} // namespace aquoman
