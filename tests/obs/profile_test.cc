/**
 * @file
 * Tests for the query profiler: the cost-attribution tree's exact-sum
 * invariants, the determinism contract (profile JSON byte-identical
 * across thread counts and batch modes), the SuspendReason taxonomy,
 * the flight recorder ring, and the debug ledger audits.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "aquoman/device.hh"
#include "aquoman/query_profile.hh"
#include "common/batch_mode.hh"
#include "common/env_options.hh"
#include "common/logging.hh"
#include "common/thread_pool.hh"
#include "engine/host_model.hh"
#include "obs/json.hh"
#include "obs/profile.hh"
#include "service/query_service.hh"
#include "tpch/dbgen.hh"
#include "tpch/queries.hh"

namespace aquoman {
namespace {

constexpr double kSf = 0.01;

const tpch::TpchDatabase &
database()
{
    static tpch::TpchDatabase db =
        tpch::TpchDatabase::generate(tpch::TpchConfig{kSf, 19920101});
    return db;
}

struct RunArtifacts
{
    OffloadedQueryResult result;
    obs::QueryProfile profile;
};

/** Run query @p q on one device and build its profile. */
RunArtifacts
runQuery(int q)
{
    FlashConfig fc;
    fc.capacityBytes = 8ll << 30;
    FlashDevice flash(fc);
    ControllerSwitch sw(flash);
    TableStore store(sw);
    Catalog catalog;
    database().installInto(catalog, store);

    AquomanDevice dev(catalog, sw, AquomanConfig{});
    RunArtifacts out{dev.runQuery(tpch::tpchQuery(q, kSf)), {}};

    HostModel host(HostConfig::large());
    const AquomanRunStats &st = out.result.stats;
    HostRunEstimate est = host.estimate(st.hostResidual);
    HostPhaseProfile hp;
    hp.hostSeconds = est.runtime;
    hp.dmaSeconds = static_cast<double>(st.dmaBytes)
        / host.cfg().storageReadBandwidth;
    hp.dmaBytes = st.dmaBytes;
    out.profile = buildQueryProfile("q" + std::to_string(q),
                                    out.result.compilation, st, hp);
    return out;
}

void
forEachNode(const obs::ProfileNode &n,
            const std::function<void(const obs::ProfileNode &)> &fn)
{
    fn(n);
    for (const obs::ProfileNode &c : n.children)
        forEachNode(c, fn);
}

// ---------------------------------------------------------------------
// Exact-sum invariants
// ---------------------------------------------------------------------

TEST(ProfileSums, StageSecondsSumExactlyToNodeSeconds)
{
    for (int q : {1, 6, 13}) {
        RunArtifacts run = runQuery(q);
        forEachNode(run.profile.root, [&](const obs::ProfileNode &n) {
            double sum = 0.0;
            for (int i = 0; i < obs::kNumPipeStages; ++i)
                sum += n.stages.sec[i];
            EXPECT_EQ(sum, n.selfSeconds())
                << "q" << q << " node " << n.name;
        });
    }
}

TEST(ProfileSums, TreeTotalReproducesDevicePlusHostSeconds)
{
    for (int q : {1, 6, 13}) {
        RunArtifacts run = runQuery(q);
        const AquomanRunStats &st = run.result.stats;
        HostModel host(HostConfig::large());
        HostRunEstimate est = host.estimate(st.hostResidual);
        double host_phase = est.runtime
            + static_cast<double>(st.dmaBytes)
                / host.cfg().storageReadBandwidth;
        // Pre-order visit order matches chronological accrual order,
        // so the sum reproduces the ledger totals bitwise.
        EXPECT_EQ(run.profile.totalSeconds(),
                  st.deviceSeconds + host_phase)
            << "q" << q;
    }
}

TEST(ProfileSums, TaskSecondsPartitionDeviceSeconds)
{
    RunArtifacts run = runQuery(1);
    const AquomanRunStats &st = run.result.stats;
    ASSERT_FALSE(st.tasks.empty());
    double acc = 0.0;
    std::int64_t bytes = 0;
    for (const TableTaskRecord &t : st.tasks) {
        acc += t.seconds;
        bytes += t.flashBytes;
    }
    EXPECT_EQ(acc, st.deviceSeconds);
    EXPECT_EQ(bytes, st.deviceFlashBytes);
}

// ---------------------------------------------------------------------
// Determinism: profile JSON byte-identical across THREADS x BATCH
// ---------------------------------------------------------------------

class ProfileDeterminism : public ::testing::Test
{
  protected:
    void TearDown() override
    {
        ThreadPool::setGlobalParallelism(
            ThreadPool::configuredParallelism());
        // Restore whatever AQUOMAN_BATCH asked for, even on failure.
        setBatchExecutionEnabled(env::batch());
    }
};

/** Every column of @p t, values in row order (no sorting). */
std::string
renderRows(const RelTable &t)
{
    std::ostringstream os;
    for (int c = 0; c < t.numColumns(); ++c) {
        os << t.col(c).name << ':';
        for (std::int64_t v : *t.col(c).vals)
            os << ' ' << v;
        os << '\n';
    }
    return os.str();
}

TEST_F(ProfileDeterminism, JsonIdenticalAcrossThreadsAndBatchMode)
{
    // q17 and q18 group by far more keys than the 1024 SRAM buckets,
    // so their results also pin the spill-table drain order.
    for (int q : {1, 6, 13, 17, 18}) {
        std::vector<std::string> renders, rows;
        for (int threads : {1, 4}) {
            for (bool batch : {false, true}) {
                ThreadPool::setGlobalParallelism(threads);
                setBatchExecutionEnabled(batch);
                RunArtifacts run = runQuery(q);
                renders.push_back(obs::jsonString(run.profile));
                rows.push_back(renderRows(run.result.result));
            }
        }
        for (std::size_t i = 1; i < renders.size(); ++i) {
            EXPECT_EQ(renders[0], renders[i])
                << "q" << q << " variant " << i;
            EXPECT_EQ(rows[0], rows[i])
                << "q" << q << " result rows, variant " << i;
        }
    }
}

// ---------------------------------------------------------------------
// SuspendReason taxonomy
// ---------------------------------------------------------------------

TEST(SuspendReasons, FullyOffloadedQueryHasNone)
{
    RunArtifacts run = runQuery(6);
    EXPECT_EQ(run.profile.suspend, obs::SuspendReason::None);
    EXPECT_EQ(run.profile.offloadClass, "full");
}

TEST(SuspendReasons, RegexOverWideStringHeapClassifies)
{
    // Q13 filters orders on a regex over o_comment: too many distinct
    // strings for the accelerator cache, so the compiler forces the
    // query to the host with a structured reason.
    RunArtifacts run = runQuery(13);
    EXPECT_EQ(run.profile.suspend, obs::SuspendReason::StringHeapRegex);
    EXPECT_EQ(run.result.stats.tasks.empty(),
              run.profile.offloadClass == "none");
}

TEST(SuspendReasons, NamesAreStable)
{
    EXPECT_STREQ(obs::suspendReasonName(obs::SuspendReason::None),
                 "none");
    EXPECT_STREQ(
        obs::suspendReasonName(obs::SuspendReason::MidPlanGroupBy),
        "mid_plan_group_by");
    EXPECT_STREQ(
        obs::suspendReasonName(obs::SuspendReason::StringHeapRegex),
        "string_heap_regex");
    EXPECT_STREQ(obs::suspendReasonName(obs::SuspendReason::GroupSpill),
                 "group_spill");
    EXPECT_STREQ(
        obs::suspendReasonName(obs::SuspendReason::DramOverflow),
        "dram_overflow");
    EXPECT_STREQ(
        obs::suspendReasonName(obs::SuspendReason::AdmissionDram),
        "admission_dram");
}

// ---------------------------------------------------------------------
// Rendering
// ---------------------------------------------------------------------

TEST(ProfileRender, TextTreeCarriesHeaderAndBottlenecks)
{
    RunArtifacts run = runQuery(1);
    std::string text = run.profile.textString();
    EXPECT_NE(text.find("EXPLAIN ANALYZE q1"), std::string::npos);
    EXPECT_NE(text.find("class=full"), std::string::npos);
    EXPECT_NE(text.find("[table-task]"), std::string::npos);
    // q1 is flash-bound on raw layouts and decode-bound on encoded
    // ones; either way the bottleneck column names a pipeline stage.
    EXPECT_TRUE(text.find("flash_read") != std::string::npos
                || text.find("decode") != std::string::npos);
}

TEST(ProfileRender, JsonStageSecondsUseStableKeys)
{
    RunArtifacts run = runQuery(6);
    std::string json = obs::jsonString(run.profile);
    obs::JsonValue v;
    std::string error;
    ASSERT_TRUE(obs::parseJson(json, &v, &error)) << error;
    EXPECT_EQ(v.text("query"), "q6");
    EXPECT_EQ(v.at("stage_seconds").kind, obs::JsonValue::Kind::Object);
    EXPECT_EQ(v.at("stage_seconds").at("flash_read").kind,
              obs::JsonValue::Kind::Number);
    EXPECT_EQ(v.text("offload_class"), "full");
}

// ---------------------------------------------------------------------
// Profile collection gate
// ---------------------------------------------------------------------

TEST(ProfileGate, DisablingCollectionSuppressesHostOps)
{
    bool was = obs::profileCollectionEnabled();
    obs::setProfileCollection(false);
    RunArtifacts run = runQuery(13); // host-heavy query
    obs::setProfileCollection(was);
    EXPECT_TRUE(run.result.stats.hostOps.children.empty());

    RunArtifacts collected = runQuery(13);
    EXPECT_FALSE(collected.result.stats.hostOps.children.empty());
}

// ---------------------------------------------------------------------
// Flight recorder ring
// ---------------------------------------------------------------------

TEST(FlightRecorder, RingKeepsNewestAndCountsDrops)
{
    obs::FlightRecorder fr(4);
    for (int i = 0; i < 10; ++i)
        fr.record(static_cast<double>(i), "tick",
                  "s" + std::to_string(i), "");
    EXPECT_EQ(fr.size(), 4u);
    EXPECT_EQ(fr.recorded(), 10);
    EXPECT_EQ(fr.dropped(), 6);
    std::vector<obs::FlightEvent> events = fr.snapshot();
    ASSERT_EQ(events.size(), 4u);
    EXPECT_EQ(events.front().subject, "s6"); // oldest retained
    EXPECT_EQ(events.back().subject, "s9");  // newest
    for (std::size_t i = 1; i < events.size(); ++i)
        EXPECT_LT(events[i - 1].seq, events[i].seq);
}

TEST(FlightRecorder, OverwriteAccountingAcrossCapacities)
{
    // The ring's size / recorded / dropped ledger must stay exact at
    // the degenerate capacity 1, the default 256, and an oversized
    // 4096 that never wraps.
    for (std::size_t cap : {std::size_t{1}, std::size_t{256},
                            std::size_t{4096}}) {
        obs::FlightRecorder fr(cap);
        EXPECT_EQ(fr.capacityEvents(), cap);
        const int total = 1000;
        for (int i = 0; i < total; ++i)
            fr.record(static_cast<double>(i), "tick",
                      "s" + std::to_string(i), "");
        std::size_t expect_size =
            std::min(cap, static_cast<std::size_t>(total));
        EXPECT_EQ(fr.size(), expect_size) << "cap " << cap;
        EXPECT_EQ(fr.recorded(), total) << "cap " << cap;
        EXPECT_EQ(fr.dropped(),
                  static_cast<std::int64_t>(total - expect_size))
            << "cap " << cap;
        std::vector<obs::FlightEvent> events = fr.snapshot();
        ASSERT_EQ(events.size(), expect_size) << "cap " << cap;
        // Oldest retained is exactly the first not-overwritten event,
        // and sequence numbers are contiguous through the wrap.
        EXPECT_EQ(events.front().seq,
                  static_cast<std::int64_t>(total - expect_size))
            << "cap " << cap;
        for (std::size_t i = 1; i < events.size(); ++i)
            EXPECT_EQ(events[i].seq, events[i - 1].seq + 1)
                << "cap " << cap;
    }
}

TEST(FlightRecorder, CapacityFromEnv)
{
    // A service sizes its ring from AQUOMAN_FLIGHT_EVENTS (default 256).
    auto capacity = [] {
        service::QueryService svc(service::ServiceConfig{});
        return svc.flightRecorder().capacityEvents();
    };
    // Helper for restoring whatever AQUOMAN_FLIGHT_EVENTS held.
    const char *old = std::getenv("AQUOMAN_FLIGHT_EVENTS");
    std::string saved = old ? old : "";

    unsetenv("AQUOMAN_FLIGHT_EVENTS");
    EXPECT_EQ(capacity(), 256u);

    setenv("AQUOMAN_FLIGHT_EVENTS", "4096", 1);
    EXPECT_EQ(capacity(), 4096u);
    setenv("AQUOMAN_FLIGHT_EVENTS", "1", 1);
    EXPECT_EQ(capacity(), 1u);

    // An empty value means unset.
    setenv("AQUOMAN_FLIGHT_EVENTS", "", 1);
    EXPECT_EQ(capacity(), 256u);

    // Garbage, trailing junk, zero and negatives fail loudly, naming
    // the variable and the value.
    for (const char *bad : {"abc", "12x", "0", "-5"}) {
        setenv("AQUOMAN_FLIGHT_EVENTS", bad, 1);
        try {
            capacity();
            ADD_FAILURE() << "value '" << bad << "' was accepted";
        } catch (const FatalError &e) {
            std::string msg = e.what();
            EXPECT_NE(msg.find("AQUOMAN_FLIGHT_EVENTS"), std::string::npos)
                << msg;
            EXPECT_NE(msg.find(std::string("'") + bad + "'"),
                      std::string::npos)
                << msg;
        }
    }

    if (old)
        setenv("AQUOMAN_FLIGHT_EVENTS", saved.c_str(), 1);
    else
        unsetenv("AQUOMAN_FLIGHT_EVENTS");
}

TEST(FlightRecorder, RenderMentionsWhyAndOverwrites)
{
    obs::FlightRecorder fr(2);
    fr.record(0.5, "submit", "q1#0", "");
    fr.record(1.5, "suspend", "q1#0", "dram");
    fr.record(2.5, "done", "q1#0", "");
    std::ostringstream os;
    fr.render(os, "unit test dump");
    std::string text = os.str();
    EXPECT_NE(text.find("unit test dump"), std::string::npos);
    EXPECT_NE(text.find("suspend"), std::string::npos);
    EXPECT_NE(text.find("overwritten"), std::string::npos);
    EXPECT_EQ(text.find("submit"), std::string::npos); // overwritten
}

// ---------------------------------------------------------------------
// Ledger audits
// ---------------------------------------------------------------------

TEST(LedgerAudit, PassesOnConsistentLedgersAndCatchesDrift)
{
    obs::LedgerAudit audit;
    audit.taskSeconds = {0.25, 0.5, 0.125};
    audit.deviceSeconds = 0.25 + 0.5 + 0.125;
    audit.taskFlashBytes = {100, 200};
    audit.deviceFlashBytes = 300;
    std::string err;
    EXPECT_TRUE(obs::auditLedgers(audit, &err)) << err;

    audit.deviceFlashBytes = 301;
    EXPECT_FALSE(obs::auditLedgers(audit, &err));
    EXPECT_NE(err.find("flash"), std::string::npos);

    audit.deviceFlashBytes = 300;
    audit.deviceSeconds += 1e-9;
    EXPECT_FALSE(obs::auditLedgers(audit, &err));
}

TEST(LedgerAudit, PortPartitionChecksExpectedTotal)
{
    obs::LedgerAudit audit;
    audit.portBytes = {4096, 8192};
    audit.expectedPortTotal = 4096 + 8192;
    std::string err;
    EXPECT_TRUE(obs::auditLedgers(audit, &err)) << err;

    audit.expectedPortTotal += 1;
    EXPECT_FALSE(obs::auditLedgers(audit, &err));
}

TEST(LedgerAudit, RealRunPassesAudit)
{
    RunArtifacts run = runQuery(1);
    const AquomanRunStats &st = run.result.stats;
    obs::LedgerAudit audit;
    for (const TableTaskRecord &t : st.tasks) {
        audit.taskSeconds.push_back(t.seconds);
        audit.taskFlashBytes.push_back(t.flashBytes);
    }
    audit.deviceSeconds = st.deviceSeconds;
    audit.deviceFlashBytes = st.deviceFlashBytes;
    std::string err;
    EXPECT_TRUE(obs::auditLedgers(audit, &err)) << err;
}

} // namespace
} // namespace aquoman
