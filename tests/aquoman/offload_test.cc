/** @file
 * End-to-end integration tests: every TPC-H query executed through the
 * AQUOMAN device path produces exactly the baseline engine's answer
 * (validation parameters and generated instances alike),
 * and the offload behaviour (device/host stage split, suspensions,
 * spill-over) matches the paper's published classification.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <sstream>

#include "aquoman/device.hh"
#include "aquoman/perf_model.hh"
#include "tpch/dbgen.hh"
#include "tpch/queries.hh"
#include "workload/tpch_params.hh"

namespace aquoman {
namespace {

constexpr double kSf = 0.01;

/** Canonical multiset-of-rows form for result comparison. */
std::vector<std::string>
canonicalRows(const RelTable &t)
{
    std::vector<std::string> rows;
    for (std::int64_t r = 0; r < t.numRows(); ++r) {
        std::ostringstream os;
        for (int c = 0; c < t.numColumns(); ++c) {
            const RelColumn &col = t.col(c);
            if (col.type == ColumnType::Varchar)
                os << col.str(r);
            else
                os << col.get(r);
            os << "|";
        }
        rows.push_back(os.str());
    }
    std::sort(rows.begin(), rows.end());
    return rows;
}

class OffloadTest : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        tpch::TpchConfig cfg;
        cfg.scaleFactor = kSf;
        db = new tpch::TpchDatabase(tpch::TpchDatabase::generate(cfg));
        FlashConfig fc;
        fc.capacityBytes = 4ll << 30;
        dev = new FlashDevice(fc);
        sw = new ControllerSwitch(*dev);
        store = new TableStore(*sw);
        catalog = new Catalog();
        db->installInto(*catalog, *store);
    }

    static void
    TearDownTestSuite()
    {
        delete catalog;
        delete store;
        delete sw;
        delete dev;
        delete db;
        catalog = nullptr;
    }

    static OffloadedQueryResult
    runAquoman(int q, AquomanConfig cfg = AquomanConfig::paper40())
    {
        AquomanDevice device(*catalog, *sw, cfg);
        return device.runQuery(tpch::tpchQuery(q, kSf));
    }

    static RelTable
    runBaseline(int q, EngineMetrics *metrics = nullptr)
    {
        Executor ex(*catalog);
        RelTable out = ex.run(tpch::tpchQuery(q, kSf));
        if (metrics)
            *metrics = ex.metrics();
        return out;
    }

    static tpch::TpchDatabase *db;
    static FlashDevice *dev;
    static ControllerSwitch *sw;
    static TableStore *store;
    static Catalog *catalog;
};

tpch::TpchDatabase *OffloadTest::db = nullptr;
FlashDevice *OffloadTest::dev = nullptr;
ControllerSwitch *OffloadTest::sw = nullptr;
TableStore *OffloadTest::store = nullptr;
Catalog *OffloadTest::catalog = nullptr;

class AllQueriesEquivalent : public OffloadTest,
                             public ::testing::WithParamInterface<int>
{
};

/**
 * The central correctness property of the repository: the offloaded
 * execution (Row Selector masks, PE programs, Swissknife group-by with
 * spill-over, probe/sort-merge joins, host suspension) computes exactly
 * what the software baseline computes, for every TPC-H query.
 */
TEST_P(AllQueriesEquivalent, DeviceResultEqualsBaseline)
{
    int q = GetParam();
    RelTable want = runBaseline(q);
    OffloadedQueryResult got = runAquoman(q);
    EXPECT_EQ(got.result.numRows(), want.numRows()) << "q" << q;
    EXPECT_EQ(canonicalRows(got.result), canonicalRows(want))
        << "q" << q;
}

INSTANTIATE_TEST_SUITE_P(Tpch, AllQueriesEquivalent,
                         ::testing::ValuesIn(tpch::allQueryNumbers()));

class GeneratedInstancesEquivalent
    : public OffloadTest,
      public ::testing::WithParamInterface<int>
{
};

/**
 * The same property beyond the validation parameters: drawn
 * substitution parameters of every template, run over the encoded
 * flash-resident catalog (so leaf scans take the compressed charging
 * path), still match the software baseline row for row.
 */
TEST_P(GeneratedInstancesEquivalent, DeviceResultEqualsBaseline)
{
    int q = GetParam();
    workload::TpchInstanceGenerator gen(1, kSf);
    for (std::uint64_t i : {1ull, 2ull}) {
        workload::QueryInstance inst = gen.instance(q, i);
        Executor ex(*catalog);
        RelTable want = ex.run(gen.build(inst));
        AquomanDevice device(*catalog, *sw, AquomanConfig::paper40());
        OffloadedQueryResult got = device.runQuery(gen.build(inst));
        EXPECT_EQ(canonicalRows(got.result), canonicalRows(want))
            << inst.name();
    }
}

INSTANTIATE_TEST_SUITE_P(Tpch, GeneratedInstancesEquivalent,
                         ::testing::ValuesIn(tpch::allQueryNumbers()));

TEST_F(OffloadTest, ClassificationMatchesPaper)
{
    // Paper Sec. VIII-B: 14 fully offloaded; {11,17,18,22} suspended at
    // a mid-plan aggregate; {9,13,16,20} not offloaded (regex).
    std::set<int> expect_none = {9, 13, 16, 20};
    std::set<int> expect_partial = {11, 17, 18, 22};
    HostModel host(HostConfig::large());
    for (int q : tpch::allQueryNumbers()) {
        EngineMetrics base;
        runBaseline(q, &base);
        OffloadedQueryResult r = runAquoman(q);
        SystemEvaluation ev = evaluateOffload(base, r.stats, host);
        OffloadClass want = expect_none.count(q) ? OffloadClass::None
            : expect_partial.count(q) ? OffloadClass::Partial
                                      : OffloadClass::Full;
        EXPECT_EQ(offloadClassName(ev.offloadClass),
                  offloadClassName(want))
            << "q" << q << " fraction=" << ev.offloadFraction
            << " devStages=" << r.stats.deviceStages.size()
            << " suspensions=" << r.stats.suspensions.size()
            << (r.stats.suspensions.empty()
                    ? ""
                    : " firstReason=" + r.stats.suspensions[0].detail);
    }
}

TEST_F(OffloadTest, RegexQueriesNeverTouchTheDevice)
{
    for (int q : {9, 13, 16, 20}) {
        OffloadedQueryResult r = runAquoman(q);
        EXPECT_TRUE(r.compilation.regexForcedHost) << "q" << q;
        EXPECT_TRUE(r.stats.deviceStages.empty()) << "q" << q;
        EXPECT_EQ(r.stats.deviceFlashBytes, 0) << "q" << q;
    }
}

TEST_F(OffloadTest, Q1RunsEntirelyOnDeviceGroupBy)
{
    OffloadedQueryResult r = runAquoman(1);
    ASSERT_EQ(r.stats.deviceStages.size(), 1u);
    EXPECT_GT(r.stats.transformedRows, 0);
    EXPECT_GT(r.stats.deviceFlashBytes, 0);
    // Four groups, well within 1024 buckets: no spill-over.
    EXPECT_EQ(r.stats.spillGroups, 0);
}

TEST_F(OffloadTest, Q6UsesRowSelectorOnly)
{
    OffloadedQueryResult r = runAquoman(6);
    EXPECT_EQ(r.stats.deviceStages.size(), 1u);
    // A row-scan task must put its predicates on the CPEs.
    bool saw_selector = false;
    for (const TableTaskRecord &t : r.stats.tasks)
        saw_selector |= t.what.rfind("rowScan", 0) == 0
            && t.selectorPreds > 0;
    EXPECT_TRUE(saw_selector);
}

TEST_F(OffloadTest, MidPlanAggregateSuspends)
{
    OffloadedQueryResult r = runAquoman(17);
    // avg_qty runs on the device; threshold and the final join are
    // suspended to the host (Sec. VI-E condition 1).
    EXPECT_FALSE(r.stats.deviceStages.empty());
    EXPECT_FALSE(r.stats.suspensions.empty());
    bool saw_cond1 = false;
    for (const StageSuspension &s : r.stats.suspensions)
        saw_cond1 |= s.detail.find("not buffered") != std::string::npos;
    EXPECT_TRUE(saw_cond1);
}

TEST_F(OffloadTest, Q18SpillsMassively)
{
    OffloadedQueryResult r = runAquoman(18);
    // Grouping by orderkey: group count far exceeds 1024 buckets.
    EXPECT_GT(r.stats.spillGroups, 1024);
}

TEST_F(OffloadTest, TinyDramForcesRuntimeSuspension)
{
    AquomanConfig tiny = AquomanConfig::paper40();
    tiny.dramBytes = 2 << 10; // 2KB: joins cannot hold tuple tables
    RelTable want = runBaseline(5);
    OffloadedQueryResult r = runAquoman(5, tiny);
    EXPECT_TRUE(r.stats.suspendedDram);
    // Suspension falls back to the host and stays correct.
    EXPECT_EQ(canonicalRows(r.result), canonicalRows(want));
}

TEST_F(OffloadTest, DeviceMemoryScalesWithConfig)
{
    OffloadedQueryResult full = runAquoman(5);
    EXPECT_FALSE(full.stats.suspendedDram);
    EXPECT_GT(full.stats.deviceDramPeak, 0);
    EXPECT_LE(full.stats.deviceDramPeak,
              AquomanConfig::paper40().dramBytes);
}

TEST_F(OffloadTest, TaskRecordsIncludeJoins)
{
    OffloadedQueryResult r = runAquoman(3);
    bool saw_join = false;
    for (const TableTaskRecord &t : r.stats.tasks)
        saw_join |= t.what.rfind("join ", 0) == 0;
    EXPECT_TRUE(saw_join);
}

TEST_F(OffloadTest, CpuSavingIsSubstantialForOffloadedQueries)
{
    HostModel host(HostConfig::large());
    EngineMetrics base;
    runBaseline(1, &base);
    OffloadedQueryResult r = runAquoman(1);
    SystemEvaluation ev = evaluateOffload(base, r.stats, host);
    EXPECT_GT(ev.cpuSaving, 0.9);
}

} // namespace
} // namespace aquoman
