/** @file
 * Simulation-trace contract tests: a service run under the tracer
 * produces byte-identical Chrome trace_event JSON for every
 * AQUOMAN_THREADS value (all timestamps are modelled seconds); a
 * standalone device run's Table-Task spans tile [0, deviceSeconds]
 * bitwise; and a traced service run carries at least one track per SSD
 * and one span per scheduled Table Task.
 */

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "aquoman/device.hh"
#include "common/thread_pool.hh"
#include "obs/json.hh"
#include "obs/trace.hh"
#include "service/query_service.hh"
#include "tpch/dbgen.hh"
#include "tpch/queries.hh"

namespace aquoman::obs {
namespace {

using service::QueryService;
using service::ServiceConfig;
using tpch::TpchConfig;
using tpch::TpchDatabase;
using tpch::tpchQuery;

constexpr double kSf = 0.01;
const std::vector<int> kQueries{6, 14, 1, 12};

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

/** Enables a clean tracer for the test, restores the old state after. */
class TraceTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        wasEnabled = SimTracer::global().enabled();
        threadsBefore = ThreadPool::global().parallelism();
        SimTracer::global().clear();
        SimTracer::global().enable();
    }

    void
    TearDown() override
    {
        SimTracer::global().clear();
        if (!wasEnabled)
            SimTracer::global().disable();
        ThreadPool::setGlobalParallelism(threadsBefore);
    }

    bool wasEnabled = false;
    int threadsBefore = 1;
};

/** Run the standard workload on a fresh 2-SSD service. */
void
runServiceWorkload()
{
    ServiceConfig cfg;
    cfg.numDevices = 2;
    cfg.admissionLimit = 2;
    QueryService svc(cfg);
    const TpchDatabase &db = database();
    for (const auto &t : {db.region, db.nation, db.supplier, db.customer,
                          db.part, db.partsupp, db.orders, db.lineitem})
        svc.addTable(t);
    db.registerMetadata(svc.catalog());
    for (int q : kQueries)
        svc.submit(tpchQuery(q, kSf));
    svc.drain();
}

TEST_F(TraceTest, ServiceTraceIsByteIdenticalAcrossThreadCounts)
{
    ThreadPool::setGlobalParallelism(1);
    runServiceWorkload();
    std::string serial = jsonString(SimTracer::global());
    ASSERT_GT(SimTracer::global().eventCount(), 0u);

    SimTracer::global().clear();
    ThreadPool::setGlobalParallelism(4);
    runServiceWorkload();
    std::string parallel = jsonString(SimTracer::global());

    EXPECT_EQ(serial, parallel)
        << "trace JSON must not depend on AQUOMAN_THREADS";
}

TEST_F(TraceTest, DeviceTaskSpansTileDeviceSecondsExactly)
{
    FlashConfig fc;
    FlashDevice flash(fc);
    ControllerSwitch sw(flash);
    TableStore store(sw);
    Catalog catalog;
    database().installInto(catalog, store);

    AquomanConfig cfg;
    cfg.traceLabel = "tile-check";
    AquomanDevice device(catalog, sw, cfg);
    OffloadedQueryResult res = device.runQuery(tpchQuery(6, kSf));
    ASSERT_FALSE(res.stats.tasks.empty());

    SimTracer &tracer = SimTracer::global();
    std::vector<TraceEvent> spans;
    for (const TraceEvent &ev : tracer.events()) {
        SimTracer::TrackInfo ti = tracer.trackInfo(ev.track);
        if (ev.phase == 'X' && ti.process == "aquoman:tile-check"
                && ti.thread == "table-tasks")
            spans.push_back(ev);
    }
    // One span per Table-Task record, in issue order.
    ASSERT_EQ(spans.size(), res.stats.tasks.size());

    // Spans carry exact start/end marks, so adjacent spans must agree
    // bitwise and the union must be exactly [0, deviceSeconds]: the
    // durations sum to deviceSeconds with no floating-point slop.
    EXPECT_EQ(spans.front().tsSec, 0.0);
    for (std::size_t i = 1; i < spans.size(); ++i)
        EXPECT_EQ(spans[i].tsSec, spans[i - 1].endSec) << "span " << i;
    EXPECT_EQ(spans.back().endSec, res.stats.deviceSeconds);
    for (std::size_t i = 0; i < spans.size(); ++i)
        EXPECT_EQ(spans[i].name, res.stats.tasks[i].what);
}

TEST_F(TraceTest, ServiceTraceCoversDevicesAndTasks)
{
    ServiceConfig cfg;
    cfg.numDevices = 2;
    cfg.admissionLimit = 2;
    QueryService svc(cfg);
    const TpchDatabase &db = database();
    for (const auto &t : {db.region, db.nation, db.supplier, db.customer,
                          db.part, db.partsupp, db.orders, db.lineitem})
        svc.addTable(t);
    db.registerMetadata(svc.catalog());
    std::vector<service::QueryId> ids;
    for (int q : kQueries)
        ids.push_back(svc.submit(tpchQuery(q, kSf)));
    svc.drain();

    SimTracer &tracer = SimTracer::global();
    std::vector<TraceEvent> events = tracer.events();
    ASSERT_FALSE(events.empty());

    // >= 1 device-scheduler span per device track, and one span per
    // scheduled Table-Task subtask overall.
    std::vector<int> device_spans(cfg.numDevices, 0);
    std::int64_t task_spans = 0;
    for (const TraceEvent &ev : events) {
        if (ev.phase != 'X' || ev.category != "table-task")
            continue;
        SimTracer::TrackInfo ti = tracer.trackInfo(ev.track);
        for (int d = 0; d < cfg.numDevices; ++d)
            if (ti.process == "ssd" + std::to_string(d)) {
                ++device_spans[d];
                ++task_spans;
            }
    }
    service::ServiceStats stats = svc.aggregate();
    std::int64_t tasks_run = 0;
    for (std::int64_t t : stats.deviceTasksRun)
        tasks_run += t;
    for (int d = 0; d < cfg.numDevices; ++d)
        EXPECT_GE(device_spans[d], 1) << "device " << d;
    EXPECT_EQ(task_spans, tasks_run);

    // Every query got a lifecycle track with a terminal Done instant.
    int done_instants = 0;
    for (const TraceEvent &ev : events) {
        SimTracer::TrackInfo ti = tracer.trackInfo(ev.track);
        if (ev.phase == 'i' && ti.process == "queries"
                && ev.name == "Done")
            ++done_instants;
    }
    EXPECT_EQ(done_instants, static_cast<int>(ids.size()));

    // The export is structurally a Chrome trace_event JSON document.
    std::string js = jsonString(tracer);
    JsonValue doc;
    std::string error;
    ASSERT_TRUE(parseJson(js, &doc, &error)) << error;
    ASSERT_EQ(doc.object.size(), 1u);
    const JsonValue &trace_events = doc.at("traceEvents");
    ASSERT_EQ(trace_events.kind, JsonValue::Kind::Array);
    std::set<std::string> metadata;
    for (const JsonValue &ev : trace_events.array)
        if (ev.text("ph") == "M")
            metadata.insert(ev.text("name"));
    EXPECT_EQ(metadata,
              (std::set<std::string>{"process_name", "thread_name"}));
}

// ---------------------------------------------------------------------
// Tail-based sampling groups
// ---------------------------------------------------------------------

TEST_F(TraceTest, AmbientGroupStampsEvents)
{
    SimTracer &tracer = SimTracer::global();
    int t = tracer.track("proc", "thread");
    tracer.span(t, "ungrouped", "c", 0.0, 1.0);
    tracer.setAmbientGroup(7);
    tracer.span(t, "grouped", "c", 1.0, 2.0);
    tracer.instant(t, "grouped-i", "c", 1.5);
    tracer.setAmbientGroup(-1);
    tracer.span(t, "ungrouped2", "c", 2.0, 3.0);

    std::vector<TraceEvent> evs = tracer.events();
    ASSERT_EQ(evs.size(), 4u);
    EXPECT_EQ(evs[0].group, -1);
    EXPECT_EQ(evs[1].group, 7);
    EXPECT_EQ(evs[2].group, 7);
    EXPECT_EQ(evs[3].group, -1);
}

TEST_F(TraceTest, ResolveGroupDropsOrKeeps)
{
    SimTracer &tracer = SimTracer::global();
    int t = tracer.track("proc", "thread");
    for (std::int64_t g : {0, 1, 2}) {
        tracer.setAmbientGroup(g);
        tracer.span(t, "work" + std::to_string(g), "c",
                    static_cast<double>(g), static_cast<double>(g) + 1);
        tracer.instant(t, "mark" + std::to_string(g), "c",
                       static_cast<double>(g));
    }
    tracer.setAmbientGroup(-1);
    tracer.instant(t, "always", "c", 9.0);

    tracer.resolveGroup(0, /*keep=*/true);
    tracer.resolveGroup(1, /*keep=*/false);
    // Group 2 stays unresolved: retained at export.

    EXPECT_EQ(tracer.droppedEvents(), 2u);
    EXPECT_EQ(tracer.eventCount(), 5u);
    std::vector<TraceEvent> evs = tracer.events();
    ASSERT_EQ(evs.size(), 5u);
    for (const TraceEvent &ev : evs)
        EXPECT_NE(ev.group, 1) << ev.name;

    // The exported JSON must not mention the dropped group's events.
    std::string json = jsonString(tracer);
    EXPECT_EQ(json.find("work1"), std::string::npos);
    EXPECT_NE(json.find("work0"), std::string::npos);
    EXPECT_NE(json.find("work2"), std::string::npos);
    EXPECT_NE(json.find("always"), std::string::npos);
}

TEST_F(TraceTest, DroppedTrackVanishesFromExport)
{
    SimTracer &tracer = SimTracer::global();
    int kept = tracer.track("queries", "q-kept");
    int dropped = tracer.track("queries", "q-dropped");
    tracer.setAmbientGroup(1);
    tracer.span(kept, "k", "c", 0.0, 1.0);
    tracer.setAmbientGroup(2);
    tracer.span(dropped, "d", "c", 0.0, 1.0);
    tracer.setAmbientGroup(-1);
    tracer.resolveGroup(2, false);

    // A track whose every event was sampled away contributes zero
    // bytes — not even pid/tid metadata.
    std::string json = jsonString(tracer);
    EXPECT_EQ(json.find("q-dropped"), std::string::npos) << json;
    EXPECT_NE(json.find("q-kept"), std::string::npos);
}

TEST_F(TraceTest, CompactionSurvivesManyDroppedGroups)
{
    // Drop far more groups than the compaction batch (64) and verify
    // the retained view and accounting stay exact.
    SimTracer &tracer = SimTracer::global();
    int t = tracer.track("proc", "thread");
    const std::int64_t kGroups = 300;
    std::size_t kept_events = 0;
    for (std::int64_t g = 0; g < kGroups; ++g) {
        tracer.setAmbientGroup(g);
        tracer.span(t, "g" + std::to_string(g), "c",
                    static_cast<double>(g), static_cast<double>(g) + 1);
        tracer.setAmbientGroup(-1);
    }
    for (std::int64_t g = 0; g < kGroups; ++g) {
        bool keep = (g % 10 == 0);
        tracer.resolveGroup(g, keep);
        if (keep)
            ++kept_events;
    }
    EXPECT_EQ(tracer.eventCount(), kept_events);
    EXPECT_EQ(tracer.droppedEvents(),
              static_cast<std::size_t>(kGroups) - kept_events);
    for (const TraceEvent &ev : tracer.events())
        EXPECT_EQ(ev.group % 10, 0) << ev.name;

    // Resolving an unknown or already-resolved group is a no-op.
    tracer.resolveGroup(12345, false);
    tracer.resolveGroup(0, false);
    EXPECT_EQ(tracer.eventCount(), kept_events);
}

TEST_F(TraceTest, ClearResetsSamplingState)
{
    SimTracer &tracer = SimTracer::global();
    int t = tracer.track("proc", "thread");
    tracer.setAmbientGroup(3);
    tracer.span(t, "x", "c", 0.0, 1.0);
    tracer.resolveGroup(3, false);
    EXPECT_GT(tracer.droppedEvents(), 0u);
    tracer.clear();
    EXPECT_EQ(tracer.droppedEvents(), 0u);
    EXPECT_EQ(tracer.eventCount(), 0u);
    EXPECT_EQ(tracer.ambientGroup(), -1);
}

} // namespace
} // namespace aquoman::obs
