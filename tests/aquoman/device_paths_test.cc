/** @file
 * Targeted tests for the device executor's join strategies and
 * Swissknife paths that TPC-H exercises only lightly: the general
 * sort-merge path (non-dense keys), semi/anti joins with residuals,
 * the regex accelerator inside transforms, and the TOPK operator.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <sstream>

#include "aquoman/device.hh"
#include "common/rng.hh"

namespace aquoman {
namespace {

std::vector<std::string>
canon(const RelTable &t)
{
    std::vector<std::string> rows;
    for (std::int64_t r = 0; r < t.numRows(); ++r) {
        std::ostringstream os;
        for (int c = 0; c < t.numColumns(); ++c) {
            if (t.col(c).type == ColumnType::Varchar)
                os << t.col(c).str(r) << "|";
            else
                os << t.col(c).get(r) << "|";
        }
        rows.push_back(os.str());
    }
    std::sort(rows.begin(), rows.end());
    return rows;
}

class DevicePathsTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        flash = std::make_unique<FlashDevice>(flashConfig());
        sw = std::make_unique<ControllerSwitch>(*flash);
        store = std::make_unique<TableStore>(*sw);

        // "events": a fact table whose join key is NOT a dense pk
        // (forces the sort-merge path) plus a text column with a small
        // dictionary (regex-accelerator friendly).
        auto ev = std::make_shared<Table>("events");
        auto &eid = ev->addColumn("e_id", ColumnType::Int64);
        auto &code = ev->addColumn("e_code", ColumnType::Int64);
        auto &val = ev->addColumn("e_val", ColumnType::Decimal);
        auto &tag = ev->addColumn("e_tag", ColumnType::Varchar);
        Rng rng(77);
        const char *tags[] = {"alpha-hot", "alpha-cold", "beta-hot",
                              "beta-cold"};
        for (int i = 1; i <= 4000; ++i) {
            eid.push(i);
            code.push(rng.uniform(0, 499) * 7 + 3); // sparse codes
            val.push(rng.uniform(0, 100000));
            ev->pushString(tag, tags[rng.uniform(0, 3)]);
        }
        eid.setSorted(true);

        // "codes": keyed by the same sparse code domain (non-dense).
        auto cd = std::make_shared<Table>("codes");
        auto &ck = cd->addColumn("c_code", ColumnType::Int64);
        auto &cw = cd->addColumn("c_weight", ColumnType::Int64);
        std::vector<std::int64_t> keys;
        for (int k = 0; k < 500; ++k)
            keys.push_back(k * 7 + 3);
        // Shuffle so neither side's key stream arrives sorted.
        for (std::size_t i = keys.size(); i-- > 1;)
            std::swap(keys[i], keys[rng.uniform(0, i)]);
        for (std::int64_t k : keys) {
            ck.push(k);
            cw.push(k % 10);
        }

        catalog.put(ev, store->store(ev));
        catalog.get("events").densePrimaryKey = "e_id";
        catalog.put(cd, store->store(cd));
    }

    static FlashConfig
    flashConfig()
    {
        FlashConfig fc;
        fc.capacityBytes = 1ll << 30;
        return fc;
    }

    RelTable
    baseline(const Query &q)
    {
        Executor ex(catalog);
        return ex.run(q);
    }

    OffloadedQueryResult
    device(const Query &q, AquomanConfig cfg = AquomanConfig::paper40())
    {
        AquomanDevice dev(catalog, *sw, cfg);
        return dev.runQuery(q);
    }

    /** The first task whose description starts with @p prefix. */
    static const TableTaskRecord *
    findTask(const AquomanRunStats &st, const std::string &prefix)
    {
        for (const TableTaskRecord &t : st.tasks)
            if (t.what.rfind(prefix, 0) == 0)
                return &t;
        return nullptr;
    }

    /** Work items of @p kind across every task of the run. */
    static int
    countWork(const AquomanRunStats &st, WorkKind kind)
    {
        int n = 0;
        for (const TableTaskRecord &t : st.tasks)
            for (const WorkItem &w : t.work)
                n += w.kind == kind;
        return n;
    }

    std::unique_ptr<FlashDevice> flash;
    std::unique_ptr<ControllerSwitch> sw;
    std::unique_ptr<TableStore> store;
    Catalog catalog;
};

TEST_F(DevicePathsTest, SortMergeJoinPathOnNonDenseKeys)
{
    // Neither join key is a dense primary key and the codes side is
    // shuffled, so the device must use the streaming sorter + merger.
    Query q{"sm",
            {{"out", groupBy(
                  join(JoinType::Inner,
                       filter(scan("events"),
                              gt(col("e_val"), litDec("100.00"))),
                       scan("codes"), {"e_code"}, {"c_code"}),
                  {"c_weight"},
                  {{"total", AggKind::Sum, col("e_val")},
                   {"n", AggKind::Count, nullptr}})}}};
    RelTable want = baseline(q);
    OffloadedQueryResult got = device(q);
    EXPECT_EQ(canon(got.result), canon(want));
    // The shuffled codes side goes through the sorter, and the join
    // task merges the two sorted streams.
    EXPECT_GE(countWork(got.stats, WorkKind::Sort), 1);
    const TableTaskRecord *join = findTask(got.stats, "join ");
    ASSERT_NE(join, nullptr);
    int merges = 0;
    for (const WorkItem &w : join->work)
        merges += w.kind == WorkKind::Merge;
    EXPECT_EQ(merges, 1);
}

TEST_F(DevicePathsTest, InnerSortMergeEmitsKeyMajorOrder)
{
    // The first join sorts the shuffled codes side and merges it with
    // events, so its pairs come out in key order. The second join keys
    // on that output again: its left stream must arrive sorted and skip
    // the streaming sorter, leaving only the shuffled c2 side to sort.
    auto first = join(JoinType::Inner, scan("codes"),
                      scan("events", "e", {"e_code", "e_val"}),
                      {"c_code"}, {"e.e_code"});
    Query q{"km",
            {{"out", groupBy(
                  join(JoinType::Inner, first,
                       scan("codes", "c2", {"c_code", "c_weight"}),
                       {"e.e_code"}, {"c2.c_code"}),
                  {"c2.c_weight"},
                  {{"total", AggKind::Sum, col("e.e_val")},
                   {"n", AggKind::Count, nullptr}})}}};
    RelTable want = baseline(q);
    OffloadedQueryResult got = device(q);
    ASSERT_TRUE(got.stats.suspensions.empty())
        << got.stats.suspensions[0].detail;
    EXPECT_EQ(canon(got.result), canon(want));
    EXPECT_NE(findTask(got.stats, "sort left c_code"), nullptr);
    EXPECT_NE(findTask(got.stats, "sort right c2.c_code"), nullptr);
    EXPECT_EQ(findTask(got.stats, "sort left e.e_code"), nullptr);
    EXPECT_EQ(countWork(got.stats, WorkKind::Sort), 3);
}

TEST_F(DevicePathsTest, ProbeOfAnExpandedPkSideKeepsEveryMatch)
{
    // The self-join on e_code repeats each o.e_id about eight times, so
    // the right side of the outer join is keyed by a dense primary key
    // that is no longer unique: every copy must pair with its event.
    auto pairs = join(JoinType::Inner,
                      scan("events", "o", {"e_id", "e_code"}),
                      scan("events", "p", {"e_code", "e_val"}),
                      {"o.e_code"}, {"p.e_code"});
    Query q{"xp",
            {{"out", groupBy(join(JoinType::Inner, scan("events"), pairs,
                                  {"e_id"}, {"o.e_id"}),
                             {"e_tag"},
                             {{"total", AggKind::Sum, col("p.e_val")},
                              {"n", AggKind::Count, nullptr}})}}};
    RelTable want = baseline(q);
    OffloadedQueryResult got = device(q);
    ASSERT_TRUE(got.stats.suspensions.empty())
        << got.stats.suspensions[0].detail;
    EXPECT_EQ(canon(got.result), canon(want));
}

TEST_F(DevicePathsTest, VarcharKeyOnTwoHeapsSuspends)
{
    // tags interns its strings in its own heap, in another order and
    // with one string events lacks, so equal strings have different
    // offsets on the two sides. The device compares 64-bit keys only.
    auto tg = std::make_shared<Table>("tags");
    auto &tt = tg->addColumn("t_tag", ColumnType::Varchar);
    auto &tn = tg->addColumn("t_n", ColumnType::Int64);
    const char *tags[] = {"gamma", "beta-cold", "alpha-hot"};
    for (int i = 0; i < 3; ++i) {
        tg->pushString(tt, tags[i]);
        tn.push(i);
    }
    catalog.put(tg, store->store(tg));
    Query q{"vt",
            {{"out", groupBy(join(JoinType::Inner, scan("events"),
                                  scan("tags"), {"e_tag"}, {"t_tag"}),
                             {"t_n"}, {{"n", AggKind::Count, nullptr}})}}};
    RelTable want = baseline(q);
    ASSERT_EQ(want.numRows(), 2);
    OffloadedQueryResult got = device(q);
    EXPECT_EQ(canon(got.result), canon(want));
    ASSERT_EQ(got.stats.suspensions.size(), 1u);
    EXPECT_EQ(got.stats.suspensions[0].detail,
              "varchar join key on two string heaps");
}

TEST_F(DevicePathsTest, SemiAndAntiWithResidualOnDevice)
{
    // Events that share a code with a *different, bigger* event.
    auto semi = groupBy(
        join(JoinType::LeftSemi, scan("events"),
             scan("events", "o", {"e_id", "e_code", "e_val"}),
             {"e_code"}, {"o.e_code"},
             andE(ne(col("e_id"), col("o.e_id")),
                  lt(col("e_val"), col("o.e_val")))),
        {}, {{"n", AggKind::Count, nullptr}});
    auto anti = groupBy(
        join(JoinType::LeftAnti, scan("events"),
             scan("events", "o", {"e_id", "e_code", "e_val"}),
             {"e_code"}, {"o.e_code"},
             andE(ne(col("e_id"), col("o.e_id")),
                  lt(col("e_val"), col("o.e_val")))),
        {}, {{"n", AggKind::Count, nullptr}});
    for (auto plan : {semi, anti}) {
        Query q{"sa", {{"out", plan}}};
        RelTable want = baseline(q);
        OffloadedQueryResult got = device(q);
        ASSERT_TRUE(got.stats.suspensions.empty())
            << got.stats.suspensions[0].detail;
        EXPECT_EQ(got.result.col("n").get(0), want.col("n").get(0));
    }
}

TEST_F(DevicePathsTest, AntiJoinOnDensePkWithResidual)
{
    // e_id is a dense primary key, so the right side becomes a RowID
    // probe; the filter leaves about half the left rows without a
    // candidate pair, and the residual must never read a missing one.
    for (JoinType type : {JoinType::LeftSemi, JoinType::LeftAnti}) {
        auto kept = join(type, scan("events"),
                         filter(scan("events", "o"),
                                gt(col("o.e_val"), litDec("500.00"))),
                         {"e_id"}, {"o.e_id"},
                         lt(col("e_val"), col("o.e_val")));
        Query q{"pk",
                {{"out", project(kept, {{"e_id", col("e_id")},
                                        {"e_val", col("e_val")}})}}};
        RelTable want = baseline(q);
        OffloadedQueryResult got = device(q);
        ASSERT_TRUE(got.stats.suspensions.empty())
            << got.stats.suspensions[0].detail;
        EXPECT_EQ(canon(got.result), canon(want));
    }
}

TEST_F(DevicePathsTest, GlobalAggregateOverEmptyInput)
{
    // SQL's one-row answer: Count is 0, every other aggregate NULL.
    Query q{"none",
            {{"out", groupBy(filter(scan("events"),
                                    lt(col("e_val"), litDec("0.00"))),
                             {},
                             {{"total", AggKind::Sum, col("e_val")},
                              {"lo", AggKind::Min, col("e_val")},
                              {"hi", AggKind::Max, col("e_val")},
                              {"mean", AggKind::Avg, col("e_val")},
                              {"n", AggKind::Count, nullptr}})}}};
    RelTable want = baseline(q);
    OffloadedQueryResult got = device(q);
    ASSERT_TRUE(got.stats.suspensions.empty())
        << got.stats.suspensions[0].detail;
    ASSERT_EQ(got.result.numRows(), 1);
    EXPECT_EQ(got.result.col("n").get(0), 0);
    EXPECT_EQ(got.result.col("total").get(0), kNullValue);
    EXPECT_EQ(canon(got.result), canon(want));
}

TEST_F(DevicePathsTest, RegexAcceleratorInsideTransform)
{
    // LIKE over the small-dictionary tag column inside a CASE: the
    // regex accelerator pre-computes a bit column for the PEs.
    Query q{"rx",
            {{"out", groupBy(
                  project(scan("events"),
                          {{"hot_val",
                            caseWhen({like(col("e_tag"), "%hot"),
                                      col("e_val")},
                                     litDec("0.00"))}}),
                  {}, {{"hot_total", AggKind::Sum, col("hot_val")}})}}};
    RelTable want = baseline(q);
    OffloadedQueryResult got = device(q);
    ASSERT_TRUE(got.stats.suspensions.empty())
        << got.stats.suspensions[0].detail;
    EXPECT_EQ(got.result.col("hot_total").get(0),
              want.col("hot_total").get(0));
    int regex_preds = 0;
    for (const TableTaskRecord &t : got.stats.tasks)
        regex_preds += t.regexPreds;
    EXPECT_GT(regex_preds, 0);
}

TEST_F(DevicePathsTest, TopKOperatorOffloads)
{
    Query q{"topk",
            {{"out", orderBy(filter(scan("events"),
                                    gt(col("e_val"), litDec("10.00"))),
                             {{"e_val", true}}, 25)}}};
    RelTable want = baseline(q);
    OffloadedQueryResult got = device(q);
    ASSERT_TRUE(got.stats.suspensions.empty());
    EXPECT_NE(findTask(got.stats, "topk"), nullptr);
    ASSERT_EQ(got.result.numRows(), 25);
    EXPECT_EQ(canon(got.result), canon(want));
}

TEST_F(DevicePathsTest, AscendingTopKOffloads)
{
    Query q{"bottomk",
            {{"out", orderBy(scan("events"), {{"e_val", false}}, 10)}}};
    RelTable want = baseline(q);
    OffloadedQueryResult got = device(q);
    EXPECT_NE(findTask(got.stats, "topk"), nullptr);
    EXPECT_EQ(canon(got.result), canon(want));
}

TEST_F(DevicePathsTest, FanOutExplosionSuspends)
{
    // A self-join on a constant column would produce a quadratic
    // per-key product; the merger refuses and the host takes over.
    auto big = std::make_shared<Table>("flat");
    auto &fk = big->addColumn("k", ColumnType::Int64);
    auto &fv = big->addColumn("v", ColumnType::Int64);
    for (int i = 0; i < 2000; ++i) {
        fk.push(7); // every row shares one key
        fv.push(i);
    }
    catalog.put(big, store->store(big));
    Query q{"boom",
            {{"out", groupBy(join(JoinType::Inner, scan("flat"),
                                  scan("flat", "o", {"k"}),
                                  {"k"}, {"o.k"}),
                             {}, {{"n", AggKind::Count, nullptr}})}}};
    RelTable want = baseline(q);
    OffloadedQueryResult got = device(q);
    EXPECT_FALSE(got.stats.suspensions.empty());
    EXPECT_EQ(got.result.col("n").get(0), want.col("n").get(0));
}

TEST_F(DevicePathsTest, GroupByMinMaxAvgMatchBaseline)
{
    Query q{"agg",
            {{"out", groupBy(scan("events"), {"e_tag"},
                             {{"lo", AggKind::Min, col("e_val")},
                              {"hi", AggKind::Max, col("e_val")},
                              {"mean", AggKind::Avg, col("e_val")},
                              {"n", AggKind::Count, nullptr}})}}};
    RelTable want = baseline(q);
    OffloadedQueryResult got = device(q);
    ASSERT_TRUE(got.stats.suspensions.empty());
    EXPECT_EQ(canon(got.result), canon(want));
}

TEST_F(DevicePathsTest, ConstantConjunctsKeepHostRowsAndFlashBytes)
{
    // A constant conjunct references no column, so the Row Selector
    // streams exactly the pages the column conjunct alone streams; a
    // constant-false one empties the scan, a constant-true one keeps
    // the column conjunct's rows. The join makes the filter a leaf
    // scan, the Table Task that carries the predicate columns' flash.
    ExprPtr cut = gt(col("e_val"), litDec("100.00"));
    auto scan_query = [](ExprPtr pred) {
        return Query{"cc",
                     {{"out", groupBy(
                           join(JoinType::Inner,
                                filter(scan("events"), pred),
                                scan("codes"), {"e_code"}, {"c_code"}),
                           {"c_weight"},
                           {{"n", AggKind::Count, nullptr}})}}};
    };
    OffloadedQueryResult plain = device(scan_query(cut));
    const TableTaskRecord *plain_scan =
        findTask(plain.stats, "rowScan events");
    ASSERT_NE(plain_scan, nullptr);
    ASSERT_GT(plain_scan->flashBytes, 0);
    const std::pair<ExprPtr, bool> cases[] = {
        {andE(cut, eq(lit(1), lit(1))), true},
        {andE(eq(lit(1), lit(0)), cut), false},
        {andE(andE(cut, eq(lit(2), lit(2))), lt(lit(3), lit(1))), false},
    };
    for (const auto &[pred, keeps_rows] : cases) {
        Query q = scan_query(pred);
        RelTable want = baseline(q);
        OffloadedQueryResult got = device(q);
        ASSERT_TRUE(got.stats.suspensions.empty())
            << got.stats.suspensions[0].detail;
        EXPECT_EQ(canon(got.result), canon(want));
        const TableTaskRecord *scan_task =
            findTask(got.stats, "rowScan events");
        ASSERT_NE(scan_task, nullptr);
        EXPECT_EQ(scan_task->flashBytes, plain_scan->flashBytes);
        EXPECT_EQ(scan_task->rowsOut, keeps_rows ? plain_scan->rowsOut : 0);
    }
}

TEST_F(DevicePathsTest, DmaAccountedWhenHostConsumesDeviceStage)
{
    // Stage 1 is a plain filter (device-resident tuples); stage 2 has
    // a count(distinct), which only the host can run.
    Query q{"dma",
            {{"s1", filter(scan("events"),
                           gt(col("e_val"), litDec("500.00")))},
             {"out", groupBy(scanStage("s1"), {},
                             {{"d", AggKind::CountDistinct,
                               col("e_code")}})}}};
    RelTable want = baseline(q);
    OffloadedQueryResult got = device(q);
    EXPECT_EQ(got.result.col("d").get(0), want.col("d").get(0));
    EXPECT_FALSE(got.stats.deviceStages.empty());
    EXPECT_FALSE(got.stats.suspensions.empty());
    EXPECT_GT(got.stats.dmaBytes, 0);
}

TEST_F(DevicePathsTest, ColumnLessScansKeepEveryColumnThroughAJoin)
{
    // No projection and no group-by: the join output is the stage's
    // answer, so scans without a column list must keep every column
    // rather than being pruned down to their RowIDs.
    Query q{"wide",
            {{"out", join(JoinType::Inner, scan("events"), scan("codes"),
                          {"e_code"}, {"c_code"})}}};
    RelTable want = baseline(q);
    OffloadedQueryResult got = device(q);
    EXPECT_EQ(got.stats.deviceStages, std::vector<std::string>{"out"});
    ASSERT_EQ(got.result.numColumns(), want.numColumns());
    for (int c = 0; c < want.numColumns(); ++c)
        EXPECT_EQ(got.result.col(c).name, want.col(c).name);
    EXPECT_EQ(canon(got.result), canon(want));
}

} // namespace
} // namespace aquoman
