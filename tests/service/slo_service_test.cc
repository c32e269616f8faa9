/** @file
 * Service-level observability contracts for the SLO engine and
 * tail-based trace sampling: the engine's timeline JSON and the
 * sampled simulation trace are byte-identical across AQUOMAN_THREADS
 * values; queries that violate their SLO, are shed, or suspend always
 * retain their span trees; sampled-out healthy queries leave zero
 * spans in the export.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "common/thread_pool.hh"
#include "obs/json.hh"
#include "obs/trace.hh"
#include "service/query_service.hh"
#include "tpch/dbgen.hh"
#include "tpch/queries.hh"

namespace aquoman::service {
namespace {

using tpch::TpchConfig;
using tpch::TpchDatabase;
using tpch::tpchQuery;

constexpr double kSf = 0.01;

const TpchDatabase &
database()
{
    static TpchDatabase db = [] {
        TpchConfig cfg;
        cfg.scaleFactor = kSf;
        return TpchDatabase::generate(cfg);
    }();
    return db;
}

/**
 * A small two-tenant service run: "strict" (an SLO no completion can
 * meet, so every one of its queries violates) and "loose" (an SLO
 * nothing misses). Queries alternate tenants with staggered arrivals.
 */
struct RunResult
{
    std::string sloJson;
    std::string traceJson;
    std::vector<QueryId> kept;     ///< traceKept == true
    std::vector<QueryId> sampledOut;
    std::vector<QueryId> violated;
    std::set<std::int64_t> groupsInTrace;
};

RunResult
runWorkload(int sample_n)
{
    const TpchDatabase &db = database();

    ServiceConfig cfg;
    cfg.numDevices = 2;
    cfg.admissionLimit = 2;
    cfg.slo.windowSec = 0.05;
    cfg.traceSampleEveryN = sample_n;
    TenantConfig strict;
    strict.name = "strict";
    strict.sloSec = 1e-9;
    TenantConfig loose;
    loose.name = "loose";
    loose.sloSec = 1e9;
    cfg.tenants = {strict, loose};

    QueryService svc(cfg);
    for (const auto &t : {db.region, db.nation, db.supplier, db.customer,
                          db.part, db.partsupp, db.orders, db.lineitem})
        svc.addTable(t);
    db.registerMetadata(svc.catalog());

    const std::vector<int> qs{6, 14, 6, 14, 6, 14, 6, 14, 6, 14};
    for (std::size_t i = 0; i < qs.size(); ++i)
        svc.submit(tpchQuery(qs[i], kSf), 0.001 * static_cast<double>(i),
                   static_cast<int>(i % 2));
    svc.drain();

    RunResult out;
    out.sloJson = svc.sloEngine().jsonString();
    obs::SimTracer &tracer = obs::SimTracer::global();
    out.traceJson = obs::jsonString(tracer);
    for (const obs::TraceEvent &ev : tracer.events())
        if (ev.group >= 0)
            out.groupsInTrace.insert(ev.group);
    for (QueryId id = 0;
         id < static_cast<QueryId>(svc.numQueries()); ++id) {
        const QueryRecord &rec = svc.record(id);
        (rec.traceKept ? out.kept : out.sampledOut).push_back(id);
        if (rec.sloViolated)
            out.violated.push_back(id);
    }
    return out;
}

class SloServiceTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        wasEnabled = obs::SimTracer::global().enabled();
        threadsBefore = ThreadPool::configuredParallelism();
        obs::SimTracer::global().clear();
        obs::SimTracer::global().enable();
    }

    void
    TearDown() override
    {
        obs::SimTracer::global().clear();
        if (!wasEnabled)
            obs::SimTracer::global().disable();
        ThreadPool::setGlobalParallelism(threadsBefore);
    }

    bool wasEnabled = false;
    int threadsBefore = 1;
};

TEST_F(SloServiceTest, SloReportAndSampledTraceAreThreadInvariant)
{
    ThreadPool::setGlobalParallelism(1);
    RunResult serial = runWorkload(/*sample_n=*/3);

    obs::SimTracer::global().clear();
    ThreadPool::setGlobalParallelism(4);
    RunResult parallel = runWorkload(/*sample_n=*/3);

    // Byte-for-byte: rollups, alerts, and the sampled trace never
    // depend on the worker count.
    EXPECT_EQ(serial.sloJson, parallel.sloJson);
    EXPECT_EQ(serial.traceJson, parallel.traceJson);
    EXPECT_EQ(serial.kept, parallel.kept);
    EXPECT_EQ(serial.sampledOut, parallel.sampledOut);
}

TEST_F(SloServiceTest, ViolatorsAlwaysKeepSpansSampledOutLeaveNone)
{
    RunResult r = runWorkload(/*sample_n=*/4);

    // The strict tenant's completions all violate; the loose tenant's
    // never do, so some of its queries must get sampled out.
    ASSERT_FALSE(r.violated.empty());
    ASSERT_FALSE(r.sampledOut.empty());

    for (QueryId id : r.violated) {
        EXPECT_TRUE(std::find(r.kept.begin(), r.kept.end(), id)
                    != r.kept.end())
            << "violating query " << id << " not kept";
        EXPECT_TRUE(r.groupsInTrace.count(id))
            << "violating query " << id << " has no spans";
    }
    for (QueryId id : r.sampledOut)
        EXPECT_FALSE(r.groupsInTrace.count(id))
            << "sampled-out query " << id << " left spans";

    // Sampling must actually drop events here.
    EXPECT_GT(obs::SimTracer::global().droppedEvents(), 0u);
}

TEST_F(SloServiceTest, SamplingOffKeepsEveryQuery)
{
    RunResult r = runWorkload(/*sample_n=*/0);
    // With sampling disabled every record stays kept, nothing is
    // dropped, and events are not even stamped with sampling groups.
    EXPECT_TRUE(r.sampledOut.empty());
    EXPECT_EQ(r.kept.size(), 10u);
    EXPECT_TRUE(r.groupsInTrace.empty());
    EXPECT_GT(obs::SimTracer::global().eventCount(), 0u);
    EXPECT_EQ(obs::SimTracer::global().droppedEvents(), 0u);
}

TEST_F(SloServiceTest, EngineTotalsMatchServiceRecords)
{
    RunResult r = runWorkload(/*sample_n=*/0);
    (void)r;
    // Rebuild a service to read engine totals directly.
    const TpchDatabase &db = database();
    ServiceConfig cfg;
    cfg.numDevices = 2;
    cfg.admissionLimit = 2;
    cfg.slo.windowSec = 0.05;
    TenantConfig strict;
    strict.name = "strict";
    strict.sloSec = 1e-9;
    cfg.tenants = {strict};
    QueryService svc(cfg);
    for (const auto &t : {db.region, db.nation, db.supplier, db.customer,
                          db.part, db.partsupp, db.orders, db.lineitem})
        svc.addTable(t);
    db.registerMetadata(svc.catalog());
    for (int i = 0; i < 4; ++i)
        svc.submit(tpchQuery(6, kSf), 0.0, 0);
    svc.drain();

    obs::SloEngine::TenantTotals t =
        svc.sloEngine().totals("strict");
    EXPECT_EQ(t.completed, 4);
    EXPECT_EQ(t.violations, 4); // nothing meets a 1 ns SLO
    EXPECT_EQ(t.shed, 0);
    EXPECT_DOUBLE_EQ(t.attainment, 0.0);
    // Alerts must have fired for a tenant burning this hard.
    EXPECT_GE(svc.sloEngine().alerts().size(), 1u);
}

} // namespace
} // namespace aquoman::service
