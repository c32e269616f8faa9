/** @file
 * Service-layer contract tests: K concurrent queries interleaved over
 * an M-device array produce bit-identical answers and exactly-equal
 * work metrics to the same queries run one-at-a-time on a fresh
 * service (and to the baseline engine), for every AQUOMAN_THREADS
 * value; forced suspensions complete correctly through the host path;
 * admission control produces queue wait; modelled throughput
 * scales monotonically with the device count; and device runs made
 * ahead of admission on the pool, for queued queries and for arrivals
 * still pending, leave every record, ledger and SLO timeline exactly
 * as runs made at admission do, and never go to a query that is shed.
 */

#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/thread_pool.hh"
#include "engine/executor.hh"
#include "obs/trace.hh"
#include "service/query_service.hh"
#include "tpch/dbgen.hh"
#include "tpch/queries.hh"
#include "workload/tpch_params.hh"

namespace aquoman::service {
namespace {

using tpch::TpchConfig;
using tpch::TpchDatabase;
using tpch::tpchQuery;

constexpr double kSf = 0.01;
const std::vector<int> kQueries{1, 3, 6, 12, 13, 14, 19, 4};

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

void
installTables(QueryService &svc)
{
    const TpchDatabase &db = database();
    for (const auto &t : {db.region, db.nation, db.supplier, db.customer,
                          db.part, db.partsupp, db.orders, db.lineitem})
        svc.addTable(t);
    db.registerMetadata(svc.catalog());
}

std::unique_ptr<QueryService>
makeService(int num_devices, int admission_limit,
            std::int64_t query_dram_bytes = 0)
{
    ServiceConfig cfg;
    cfg.numDevices = num_devices;
    cfg.admissionLimit = admission_limit;
    cfg.queryDramBytes = query_dram_bytes;
    auto svc = std::make_unique<QueryService>(cfg);
    installTables(*svc);
    return svc;
}

/** Baseline answers from the plain engine (no service, no devices). */
const RelTable &
baselineAnswer(int q)
{
    static std::map<int, RelTable> answers = [] {
        const TpchDatabase &db = database();
        Catalog catalog;
        for (const auto &t : {db.region, db.nation, db.supplier,
                              db.customer, db.part, db.partsupp,
                              db.orders, db.lineitem})
            catalog.put(t, nullptr);
        db.registerMetadata(catalog);
        std::map<int, RelTable> out;
        for (int q : kQueries) {
            Executor ex(catalog);
            out[q] = ex.run(tpchQuery(q, kSf));
        }
        return out;
    }();
    return answers.at(q);
}

void
expectRelTablesIdentical(const RelTable &a, const RelTable &b,
                         const std::string &what)
{
    ASSERT_EQ(a.numColumns(), b.numColumns()) << what;
    ASSERT_EQ(a.numRows(), b.numRows()) << what;
    for (int c = 0; c < a.numColumns(); ++c) {
        const RelColumn &ca = a.col(c);
        const RelColumn &cb = b.col(c);
        ASSERT_EQ(ca.name, cb.name) << what;
        ASSERT_EQ(ca.type, cb.type) << what << " " << ca.name;
        if (ca.type == ColumnType::Varchar) {
            for (std::int64_t i = 0; i < ca.size(); ++i) {
                ASSERT_EQ(ca.str(i), cb.str(i))
                    << what << " " << ca.name << " row " << i;
            }
        } else {
            ASSERT_EQ(*ca.vals, *cb.vals) << what << " " << ca.name;
        }
    }
}

/** Exact equality: identical work happened, in the same FP order. */
void
expectSameWork(const QueryRecord &a, const QueryRecord &b,
               const std::string &what)
{
    EXPECT_EQ(a.stats.deviceSeconds, b.stats.deviceSeconds) << what;
    EXPECT_EQ(a.stats.deviceFlashBytes, b.stats.deviceFlashBytes) << what;
    EXPECT_EQ(a.stats.tasksExecuted, b.stats.tasksExecuted) << what;
    EXPECT_EQ(a.stats.dmaBytes, b.stats.dmaBytes) << what;
    EXPECT_EQ(a.suspendCount, b.suspendCount) << what;
    EXPECT_EQ(a.hostFinishBytes, b.hostFinishBytes) << what;
    EXPECT_EQ(a.metrics.rowOps, b.metrics.rowOps) << what;
    EXPECT_EQ(a.metrics.flashBytesRead, b.metrics.flashBytesRead) << what;
    EXPECT_EQ(a.deviceBusySec, b.deviceBusySec) << what;
}

struct ConcurrentRun
{
    std::vector<QueryId> ids;
    std::vector<double> doneSec;
    double makespan = 0.0;
    std::unique_ptr<QueryService> svc;
};

/** Submit all probe queries at t=0 and drain (K-way concurrency). */
ConcurrentRun
runConcurrent(int num_devices, int admission_limit)
{
    ConcurrentRun run;
    run.svc = makeService(num_devices, admission_limit);
    for (int q : kQueries)
        run.ids.push_back(run.svc->submit(tpchQuery(q, kSf)));
    run.svc->drain();
    for (QueryId id : run.ids)
        run.doneSec.push_back(run.svc->record(id).doneSec);
    run.makespan = run.svc->aggregate().makespanSec;
    return run;
}

/**
 * Three tenants (one interactive class, two batch-class tenants
 * sharing by weight) over @p num_devices SSDs.
 */
ServiceConfig
threeTenants(int num_devices, int admission_limit,
             std::int64_t query_dram_bytes)
{
    ServiceConfig cfg;
    cfg.numDevices = num_devices;
    cfg.admissionLimit = admission_limit;
    cfg.maxQueuedPerTenant = 16;
    cfg.queryDramBytes = query_dram_bytes;
    cfg.tenants = {{"interactive", 0, 1.0, 0, 0.05},
                   {"reports", 1, 2.0, 0, 0.5},
                   {"batch", 1, 1.0, 0, 0.0}};
    return cfg;
}

/** Replay query @p i: q1/q3/q6/q13/q14 instances in turn. */
Query
replayQuery(workload::TpchInstanceGenerator &gen, int i)
{
    const int templates[] = {1, 3, 6, 13, 14};
    return gen.build(gen.instance(templates[i % 5], i / 5));
}

/** Arrival times of 60 queries: bursts of @p burst, @p gap s apart. */
std::vector<double>
bursts(int burst, double gap)
{
    std::vector<double> at;
    for (int i = 0; i < 60; ++i)
        at.push_back(gap * (i / burst));
    return at;
}

/**
 * Drain @p svc on @p threads pool workers. With @p traced the
 * simulation tracer is on, which makes every device run at its
 * admission instead of ahead: the reference run. A thrown message
 * lands in @p error; with no @p error it fails the test.
 */
void
drainWith(QueryService &svc, int threads, bool traced,
          std::string *error = nullptr)
{
    ThreadPool::setGlobalParallelism(threads);
    obs::SimTracer &tracer = obs::SimTracer::global();
    if (traced)
        tracer.enable();
    try {
        svc.drain();
    } catch (const std::exception &ex) {
        EXPECT_NE(error, nullptr) << ex.what();
        if (error)
            *error = ex.what();
    }
    if (traced) {
        tracer.disable();
        tracer.clear();
    }
}

/**
 * An open-loop replay: query i (replayQuery) arrives at @p arrivals[i]
 * for tenant i % 3, submitted in index order. When @p poison >= 0,
 * arrival @p poison is replaced by a query whose run throws, and the
 * thrown message lands in @p error.
 */
std::unique_ptr<QueryService>
runOpenLoop(int threads, bool traced, const ServiceConfig &cfg,
            const std::vector<double> &arrivals, int poison = -1,
            std::string *error = nullptr)
{
    auto svc = std::make_unique<QueryService>(cfg);
    installTables(*svc);
    workload::TpchInstanceGenerator gen(11, kSf);
    for (int i = 0; i < static_cast<int>(arrivals.size()); ++i) {
        Query q = i == poison
            ? Query{"poison", {{"out", scan("no_such_table")}}}
            : replayQuery(gen, i);
        svc->submit(q, arrivals[i], i % 3);
    }
    drainWith(*svc, threads, traced, error);
    return svc;
}

/**
 * A backlogged run: bursts of twelve arrivals against @p
 * admission_limit slots, so tenant queues stay deep and device runs
 * are made ahead of admission.
 */
std::unique_ptr<QueryService>
runBacklog(int threads, bool traced, int num_devices,
           std::int64_t query_dram_bytes, int admission_limit = 2,
           int poison = -1, std::string *error = nullptr)
{
    return runOpenLoop(threads, traced,
                       threeTenants(num_devices, admission_limit,
                                    query_dram_bytes),
                       bursts(12, 0.002), poison, error);
}

/**
 * A closed loop: @p clients clients, spread over the tenants of @p cfg
 * in turn, @p rounds queries each. The completion hook (which also
 * fires for a shed query) resubmits during drain(), @p think(c, round)
 * seconds after client c's last query left, so arrivals are pending
 * while the loop runs and later submissions can land ahead of them.
 */
std::unique_ptr<QueryService>
runClosedLoop(int threads, bool traced, const ServiceConfig &cfg,
              int clients, int rounds,
              const std::function<double(int, int)> &think)
{
    auto svc = std::make_unique<QueryService>(cfg);
    installTables(*svc);
    workload::TpchInstanceGenerator gen(11, kSf);
    int tenants = static_cast<int>(cfg.tenants.size());
    std::map<QueryId, int> owner;
    std::vector<int> round(static_cast<std::size_t>(clients), 0);
    auto submit = [&](int c, double at) {
        Query q = replayQuery(gen, c * rounds + round[c]);
        owner[svc->submit(q, at, c % tenants)] = c;
    };
    svc->setOnComplete([&](const QueryRecord &rec) {
        int c = owner.at(rec.id);
        if (++round[c] < rounds)
            submit(c, svc->now() + think(c, round[c]));
    });
    for (int c = 0; c < clients; ++c)
        submit(c, 0.0);
    drainWith(*svc, threads, traced);
    svc->setOnComplete(nullptr);
    return svc;
}

/** Six clients, two per tenant, eight rounds, 0.5 ms x client think. */
std::unique_ptr<QueryService>
runClosedLoop(int threads, bool traced)
{
    return runClosedLoop(threads, traced, threeTenants(4, 2, 0), 6, 8,
                         [](int c, int) { return 0.0005 * c; });
}

/** Every field of two records that the run could have moved. */
void
expectSameRecord(const QueryRecord &a, const QueryRecord &b,
                 const std::string &what)
{
    EXPECT_EQ(a.name, b.name) << what;
    EXPECT_EQ(a.state, b.state) << what;
    EXPECT_EQ(a.shedReason, b.shedReason) << what;
    EXPECT_EQ(a.anchorDevice, b.anchorDevice) << what;
    EXPECT_EQ(a.admitSec, b.admitSec) << what;
    EXPECT_EQ(a.doneSec, b.doneSec) << what;
    EXPECT_EQ(a.hostFinishSec, b.hostFinishSec) << what;
    EXPECT_EQ(a.contentionWaitSec, b.contentionWaitSec) << what;
    EXPECT_EQ(a.suspendReason, b.suspendReason) << what;
    for (int c = 0; c < obs::kNumWaitClasses; ++c)
        EXPECT_EQ(a.waitLedger.sec[c], b.waitLedger.sec[c])
            << what << " wait class " << c;
    expectSameWork(a, b, what);
    EXPECT_EQ(a.metrics.seqRowOps, b.metrics.seqRowOps) << what;
    EXPECT_EQ(a.metrics.touchedBaseBytes, b.metrics.touchedBaseBytes)
        << what;
    EXPECT_EQ(a.metrics.totalIntermediateBytes,
              b.metrics.totalIntermediateBytes) << what;
    ASSERT_EQ(a.stats.tasks.size(), b.stats.tasks.size()) << what;
    for (std::size_t t = 0; t < a.stats.tasks.size(); ++t) {
        EXPECT_EQ(a.stats.tasks[t].what, b.stats.tasks[t].what) << what;
        EXPECT_EQ(a.stats.tasks[t].seconds, b.stats.tasks[t].seconds)
            << what;
        EXPECT_EQ(a.stats.tasks[t].work, b.stats.tasks[t].work) << what;
    }
    expectRelTablesIdentical(a.result, b.result, what);
}

/**
 * Each switch's host port carried exactly the host reads of the
 * queries anchored on it: a run's traffic reached the anchor's ledger
 * whether the run was made ahead or at admission.
 */
void
expectHostPortsCarryAnchoredReads(const QueryService &svc,
                                  const std::string &what)
{
    std::vector<std::int64_t> want(svc.numDevices(), 0);
    for (std::size_t id = 0; id < svc.numQueries(); ++id) {
        const QueryRecord &r = svc.record(static_cast<QueryId>(id));
        if (r.anchorDevice >= 0)
            want[r.anchorDevice] += r.metrics.flashBytesRead;
    }
    for (int d = 0; d < svc.numDevices(); ++d)
        EXPECT_EQ(svc.deviceSwitch(d).bytesRead(FlashPort::Host), want[d])
            << what << " device " << d;
}

/** Records, switch ledgers and SLO timelines of two runs match. */
void
expectSameRun(const QueryService &a, const QueryService &b,
              const std::string &what)
{
    ASSERT_EQ(a.numQueries(), b.numQueries()) << what;
    for (std::size_t id = 0; id < a.numQueries(); ++id) {
        auto qid = static_cast<QueryId>(id);
        expectSameRecord(a.record(qid), b.record(qid),
                         what + " query " + std::to_string(id));
    }
    for (int d = 0; d < a.numDevices(); ++d)
        for (FlashPort port : {FlashPort::Host, FlashPort::Aquoman}) {
            EXPECT_EQ(a.deviceSwitch(d).bytesRead(port),
                      b.deviceSwitch(d).bytesRead(port)) << what;
            EXPECT_EQ(a.deviceSwitch(d).bytesWritten(port),
                      b.deviceSwitch(d).bytesWritten(port)) << what;
        }
    EXPECT_EQ(a.sloEngine().jsonString(), b.sloEngine().jsonString())
        << what;
}

class QueryServiceTest : public ::testing::Test
{
  protected:
    void TearDown() override
    {
        ThreadPool::setGlobalParallelism(
            ThreadPool::configuredParallelism());
    }
};

TEST_F(QueryServiceTest, ConcurrentMatchesSerialForEveryThreadCount)
{
    // Reference: same queries, same service shape, one at a time.
    ThreadPool::setGlobalParallelism(1);
    auto serial = makeService(4, 8);
    std::vector<QueryId> serial_ids;
    for (int q : kQueries) {
        QueryId id = serial->submit(tpchQuery(q, kSf));
        serial->drain();
        serial_ids.push_back(id);
    }

    std::vector<ConcurrentRun> runs;
    for (int threads : {1, 4}) {
        ThreadPool::setGlobalParallelism(threads);
        runs.push_back(runConcurrent(4, 8));
        const ConcurrentRun &run = runs.back();
        for (std::size_t i = 0; i < kQueries.size(); ++i) {
            std::string what = "q" + std::to_string(kQueries[i])
                + " threads=" + std::to_string(threads);
            const QueryRecord &rec = run.svc->record(run.ids[i]);
            EXPECT_EQ(rec.state, QueryState::Done) << what;
            // Bit-identical to the plain engine...
            expectRelTablesIdentical(rec.result,
                                     baselineAnswer(kQueries[i]), what);
            // ...and exactly the same work as the serial service run.
            const QueryRecord &ser = serial->record(serial_ids[i]);
            expectRelTablesIdentical(rec.result, ser.result, what);
            expectSameWork(rec, ser, what);
        }
    }

    // Modelled times are bit-identical across thread counts.
    ASSERT_EQ(runs.size(), 2u);
    EXPECT_EQ(runs[0].makespan, runs[1].makespan);
    for (std::size_t i = 0; i < kQueries.size(); ++i) {
        EXPECT_EQ(runs[0].doneSec[i], runs[1].doneSec[i])
            << "q" << kQueries[i];
    }
}

TEST_F(QueryServiceTest, RuntimeSuspensionCompletesViaHost)
{
    // A 4KB intermediate budget forces Sec. VI-E suspensions in any
    // query whose joins or sorts need device DRAM (q3 does).
    auto svc = makeService(4, 8, /*query_dram_bytes=*/4096);
    QueryId id = svc->submit(tpchQuery(3, kSf));
    svc->drain();

    const QueryRecord &rec = svc->record(id);
    EXPECT_EQ(rec.state, QueryState::Done);
    expectRelTablesIdentical(rec.result, baselineAnswer(3), "q3");
    EXPECT_GE(rec.suspendCount, 1);
    EXPECT_GT(rec.hostFinishBytes, 0);
    EXPECT_GT(rec.hostFinishSec, 0.0);
    bool saw_suspended = false, saw_host_finish = false;
    for (const LifecycleEvent &ev : rec.lifecycle) {
        saw_suspended |= ev.state == QueryState::Suspended;
        saw_host_finish |= ev.state == QueryState::HostFinish;
    }
    EXPECT_TRUE(saw_suspended);
    EXPECT_TRUE(saw_host_finish);

    // Structured lifecycle: starts Queued at submit, ends Done at
    // doneSec, timestamps never go backwards, and the legacy text
    // rendering still mentions every transition.
    ASSERT_GE(rec.lifecycle.size(), 2u);
    EXPECT_EQ(rec.lifecycle.front().state, QueryState::Queued);
    EXPECT_EQ(rec.lifecycle.front().atSec, rec.submitSec);
    EXPECT_EQ(rec.lifecycle.back().state, QueryState::Done);
    EXPECT_EQ(rec.lifecycle.back().atSec, rec.doneSec);
    for (std::size_t i = 1; i < rec.lifecycle.size(); ++i)
        EXPECT_GE(rec.lifecycle[i].atSec, rec.lifecycle[i - 1].atSec);
    std::vector<std::string> text = rec.formatLifecycle();
    ASSERT_EQ(text.size(), rec.lifecycle.size());
    EXPECT_NE(text.front().find("submitted -> Queued"),
              std::string::npos);
    EXPECT_NE(text.back().find("-> Done"), std::string::npos);
}

TEST_F(QueryServiceTest, AdmissionReservationFailureRunsOnHost)
{
    // A reservation larger than device DRAM can never be granted: the
    // query suspends at admission and the host runs it whole.
    ServiceConfig cfg;
    cfg.numDevices = 2;
    cfg.queryDramBytes = cfg.device.dramBytes + 1;
    QueryService svc(cfg);
    installTables(svc);

    QueryId id = svc.submit(tpchQuery(6, kSf));
    svc.drain();

    const QueryRecord &rec = svc.record(id);
    EXPECT_EQ(rec.state, QueryState::Done);
    expectRelTablesIdentical(rec.result, baselineAnswer(6), "q6");
    EXPECT_EQ(rec.suspendCount, 1);
    EXPECT_EQ(rec.stats.tasksExecuted, 0); // no device work at all
    EXPECT_GT(rec.hostFinishBytes, 0);
    // The host's base-table reads went over the anchor's host port.
    EXPECT_GT(svc.deviceSwitch(rec.anchorDevice)
                  .bytesRead(FlashPort::Host), 0);
}

TEST_F(QueryServiceTest, TightAdmissionProducesQueueWait)
{
    auto svc = makeService(2, /*admission_limit=*/1);
    std::vector<QueryId> ids;
    for (int q : {6, 6, 6})
        ids.push_back(svc->submit(tpchQuery(q, kSf)));
    svc->drain();

    EXPECT_EQ(svc->record(ids[0]).queueWaitSec, 0.0);
    double prev = 0.0;
    for (std::size_t i = 1; i < ids.size(); ++i) {
        const QueryRecord &rec = svc->record(ids[i]);
        EXPECT_GT(rec.queueWaitSec, prev) << "query " << i;
        EXPECT_EQ(rec.metrics.queueWaitSec, rec.queueWaitSec);
        prev = rec.queueWaitSec;
    }
}

TEST_F(QueryServiceTest, ThroughputScalesWithDeviceCount)
{
    double prev_makespan = 0.0;
    double prev_throughput = 0.0;
    for (int m : {1, 2, 4}) {
        ConcurrentRun run = runConcurrent(m, 8);
        ServiceStats agg = run.svc->aggregate();
        EXPECT_EQ(agg.completed,
                  static_cast<std::int64_t>(kQueries.size()));
        if (prev_makespan > 0.0) {
            EXPECT_LT(run.makespan, prev_makespan) << m << " devices";
            EXPECT_GT(agg.throughputQps, prev_throughput)
                << m << " devices";
        }
        prev_makespan = run.makespan;
        prev_throughput = agg.throughputQps;
    }
}

TEST_F(QueryServiceTest, TableTasksSpreadAcrossTheArray)
{
    ConcurrentRun run = runConcurrent(4, 8);
    ServiceStats agg = run.svc->aggregate();
    ASSERT_EQ(agg.deviceTasksRun.size(), 4u);
    for (int d = 0; d < 4; ++d) {
        EXPECT_GT(agg.deviceTasksRun[d], 0) << "device " << d;
        EXPECT_GT(agg.deviceBusySec[d], 0.0) << "device " << d;
        // Every device served AQUOMAN traffic for its stripes.
        EXPECT_GT(run.svc->deviceSwitch(d).bytesRead(FlashPort::Aquoman),
                  0) << "device " << d;
    }
}

TEST_F(QueryServiceTest, ProfilesCarryExactCostAttribution)
{
    ConcurrentRun run = runConcurrent(4, 8);
    for (std::size_t i = 0; i < run.ids.size(); ++i) {
        const QueryRecord &rec = run.svc->record(run.ids[i]);
        std::string what = "q" + std::to_string(kQueries[i]);
        ASSERT_FALSE(rec.profile.root.children.empty()) << what;
        // The tree's pre-order seconds reproduce the modelled device
        // time plus the priced host phase bitwise.
        EXPECT_EQ(rec.profile.totalSeconds(),
                  rec.stats.deviceSeconds + rec.hostFinishSec)
            << what;
        // Every node's stage decomposition sums exactly to its
        // seconds (StageSeconds::total() is the accrual order).
        std::function<void(const obs::ProfileNode &)> check =
            [&](const obs::ProfileNode &n) {
                EXPECT_EQ(n.stages.total(), n.selfSeconds())
                    << what << " node " << n.name;
                for (const obs::ProfileNode &c : n.children)
                    check(c);
            };
        check(rec.profile.root);
    }

    // Aggregate bottleneck histogram covers exactly the completed
    // Table Tasks.
    ServiceStats agg = run.svc->aggregate();
    std::int64_t attributed = 0;
    for (const auto &[stage, n] : agg.bottleneckTaskCounts)
        attributed += n;
    std::int64_t tasks = 0;
    for (QueryId id : run.ids)
        tasks += static_cast<std::int64_t>(
            run.svc->record(id).stats.tasks.size());
    EXPECT_EQ(attributed, tasks);
}

TEST_F(QueryServiceTest, LedgersSurviveAuditAcrossTheArray)
{
    ConcurrentRun run = runConcurrent(4, 8);
    std::int64_t device_flash_total = 0;
    for (std::size_t i = 0; i < run.ids.size(); ++i) {
        const QueryRecord &rec = run.svc->record(run.ids[i]);
        obs::LedgerAudit audit;
        for (const TableTaskRecord &t : rec.stats.tasks) {
            audit.taskSeconds.push_back(t.seconds);
            audit.taskFlashBytes.push_back(t.flashBytes);
        }
        audit.deviceSeconds = rec.stats.deviceSeconds;
        audit.deviceFlashBytes = rec.stats.deviceFlashBytes;
        std::string err;
        EXPECT_TRUE(obs::auditLedgers(audit, &err))
            << "q" << kQueries[i] << ": " << err;
        device_flash_total += rec.stats.deviceFlashBytes;
    }

    // Switch-port partition: the per-device AQUOMAN-port ledgers
    // partition the queries' flash bytes exactly (the scheduler's
    // integer byte split rides its remainder on the last stripe).
    obs::LedgerAudit port_audit;
    for (int d = 0; d < run.svc->numDevices(); ++d)
        port_audit.portBytes.push_back(
            run.svc->deviceSwitch(d).bytesRead(FlashPort::Aquoman));
    port_audit.expectedPortTotal = device_flash_total;
    std::string err;
    EXPECT_TRUE(obs::auditLedgers(port_audit, &err)) << err;
}

TEST_F(QueryServiceTest, RuntimeSuspensionReportsStructuredReason)
{
    auto svc = makeService(4, 8, /*query_dram_bytes=*/4096);
    QueryId id = svc->submit(tpchQuery(3, kSf));
    svc->drain();

    const QueryRecord &rec = svc->record(id);
    EXPECT_EQ(rec.state, QueryState::Done);
    EXPECT_EQ(rec.suspendReason, obs::SuspendReason::DramOverflow);
    EXPECT_EQ(rec.profile.suspend, obs::SuspendReason::DramOverflow);

    // The suspension triggered a flight-recorder dump naming the
    // query.
    EXPECT_GE(svc->flightDumps(), 1);
    EXPECT_NE(svc->lastFlightDump().find("flight recorder"),
              std::string::npos);
    EXPECT_NE(svc->lastFlightDump().find(rec.name), std::string::npos);

    ServiceStats agg = svc->aggregate();
    EXPECT_EQ(agg.suspendReasonCounts.at("dram_overflow"), 1);
}

TEST_F(QueryServiceTest, AdmissionFailureReportsAdmissionDram)
{
    ServiceConfig cfg;
    cfg.numDevices = 2;
    cfg.queryDramBytes = cfg.device.dramBytes + 1;
    QueryService svc(cfg);
    installTables(svc);

    QueryId id = svc.submit(tpchQuery(6, kSf));
    svc.drain();

    const QueryRecord &rec = svc.record(id);
    EXPECT_EQ(rec.state, QueryState::Done);
    EXPECT_EQ(rec.suspendReason, obs::SuspendReason::AdmissionDram);
    EXPECT_EQ(rec.profile.suspend, obs::SuspendReason::AdmissionDram);
    // The host ran the query whole; its operator tree hangs off the
    // profile's host phase.
    ASSERT_FALSE(rec.profile.root.children.empty());
    EXPECT_FALSE(rec.profile.root.children.back().children.empty());

    EXPECT_GE(svc.flightDumps(), 1);
    EXPECT_NE(svc.lastFlightDump().find("admission"), std::string::npos);
}

TEST_F(QueryServiceTest, FlightRecorderObservesHealthyRuns)
{
    auto svc = makeService(2, 8);
    QueryId id = svc->submit(tpchQuery(6, kSf));
    svc->drain();

    EXPECT_EQ(svc->record(id).state, QueryState::Done);
    // Healthy run: events recorded, but nothing dumped.
    EXPECT_GT(svc->flightRecorder().recorded(), 0);
    EXPECT_EQ(svc->flightDumps(), 0);
    EXPECT_TRUE(svc->lastFlightDump().empty());
    bool saw_submit = false, saw_done = false;
    for (const obs::FlightEvent &ev : svc->flightRecorder().snapshot()) {
        saw_submit |= ev.category == "submit";
        saw_done |= ev.category == "done";
    }
    EXPECT_TRUE(saw_submit);
    EXPECT_TRUE(saw_done);
}

TEST_F(QueryServiceTest, RunsAheadOfAdmissionMatchRunsAtAdmission)
{
    // Tracing makes every device run at its admission: the reference.
    auto traced = runBacklog(4, /*traced=*/true, 4, 0);
    ServiceStats ref = traced->aggregate();
    EXPECT_GT(ref.completed, 30);
    EXPECT_GT(ref.meanQueueWaitSec, 0.0); // the queues really backed up
    expectHostPortsCarryAnchoredReads(*traced, "traced");
    for (int threads : {1, 4}) {
        auto svc = runBacklog(threads, /*traced=*/false, 4, 0);
        expectSameRun(*svc, *traced,
                      "threads=" + std::to_string(threads));
        expectHostPortsCarryAnchoredReads(
            *svc, "threads=" + std::to_string(threads));
        EXPECT_EQ(svc->aggregate().discardedSpeculativeRuns, 0);
    }
}

TEST_F(QueryServiceTest, FailedReservationsDiscardRunsMadeAhead)
{
    // Each reservation takes 0.6 of a device's DRAM, so an admission
    // whose anchor still holds one fails and the host runs the query.
    std::int64_t dram = ServiceConfig{}.device.dramBytes * 6 / 10;
    auto traced = runBacklog(4, /*traced=*/true, 2, dram, 4);
    EXPECT_GT(traced->aggregate().suspendReasonCounts.at("admission_dram"),
              0);
    EXPECT_EQ(traced->aggregate().discardedSpeculativeRuns, 0);
    for (int threads : {1, 4}) {
        auto svc = runBacklog(threads, /*traced=*/false, 2, dram, 4);
        expectSameRun(*svc, *traced,
                      "threads=" + std::to_string(threads));
        expectHostPortsCarryAnchoredReads(
            *svc, "threads=" + std::to_string(threads));
        EXPECT_GT(svc->aggregate().discardedSpeculativeRuns, 0);
    }
}

TEST_F(QueryServiceTest, RunAheadErrorSurfacesAtItsOwnAdmission)
{
    // Arrival 20 reads a table that does not exist; its device run
    // throws wherever it is made, and drain() rethrows at the query's
    // admission, with the same queries finished as without run-ahead.
    std::string want, got;
    auto traced = runBacklog(4, /*traced=*/true, 4, 0, 2, 20, &want);
    EXPECT_NE(want.find("no_such_table"), std::string::npos) << want;
    EXPECT_EQ(traced->record(20).state, QueryState::Running);
    for (int threads : {1, 4}) {
        auto svc = runBacklog(threads, /*traced=*/false, 4, 0, 2, 20,
                              &got);
        EXPECT_EQ(got, want) << "threads=" << threads;
        for (std::size_t id = 0; id < svc->numQueries(); ++id) {
            auto qid = static_cast<QueryId>(id);
            EXPECT_EQ(svc->record(qid).state, traced->record(qid).state)
                << "threads=" << threads << " query " << id;
        }
    }
}

TEST_F(QueryServiceTest, RunsAheadOfArrivalMatchWithoutBacklog)
{
    // One arrival every 20 ms: each query is admitted at once, so the
    // only runs to make ahead are those of arrivals still pending.
    ServiceConfig cfg = threeTenants(4, 2, 0);
    auto traced = runOpenLoop(4, /*traced=*/true, cfg, bursts(1, 0.02));
    ServiceStats ref = traced->aggregate();
    EXPECT_EQ(ref.completed, 60);
    EXPECT_EQ(ref.meanQueueWaitSec, 0.0); // no queue ever formed
    EXPECT_EQ(ref.arrivalRunsAhead, 0);
    for (int threads : {1, 4}) {
        std::string what = "threads=" + std::to_string(threads);
        auto svc = runOpenLoop(threads, /*traced=*/false, cfg,
                               bursts(1, 0.02));
        expectSameRun(*svc, *traced, what);
        expectHostPortsCarryAnchoredReads(*svc, what);
        EXPECT_GT(svc->aggregate().arrivalRunsAhead, 0) << what;
    }
}

TEST_F(QueryServiceTest, ClosedLoopResubmissionsRunAheadIdentically)
{
    auto traced = runClosedLoop(4, /*traced=*/true);
    EXPECT_EQ(traced->aggregate().completed, 48);
    for (int threads : {1, 4}) {
        std::string what = "threads=" + std::to_string(threads);
        auto svc = runClosedLoop(threads, /*traced=*/false);
        expectSameRun(*svc, *traced, what);
        expectHostPortsCarryAnchoredReads(*svc, what);
        EXPECT_GT(svc->aggregate().arrivalRunsAhead, 0) << what;
    }
}

TEST_F(QueryServiceTest, ClosedLoopOverTightQueuesDropsDisplacedRuns)
{
    // Four clients per tenant against one or two queue places: a
    // resubmission can land ahead of an arrival already run ahead and
    // take the queue place that arrival was counted into. Its run is
    // then dropped at the resubmission (so the arrival, if shed, holds
    // none), and every record still matches the traced run.
    for (int bound : {1, 2}) {
        ServiceConfig cfg = threeTenants(4, 2, 0);
        cfg.maxQueuedPerTenant = bound;
        auto think = [](int c, int round) {
            return 0.001 * ((c * 5 + round * 3) % 7);
        };
        std::string base = "bound=" + std::to_string(bound);
        auto traced = runClosedLoop(4, /*traced=*/true, cfg, 12, 6, think);
        ServiceStats ref = traced->aggregate();
        EXPECT_EQ(ref.completed + ref.shedTotal, 72) << base;
        EXPECT_GT(ref.shedReasonCounts["queue_full"], 0) << base;
        for (int threads : {1, 4}) {
            std::string what = base + " threads=" + std::to_string(threads);
            auto svc =
                runClosedLoop(threads, /*traced=*/false, cfg, 12, 6, think);
            expectSameRun(*svc, *traced, what);
            ServiceStats st = svc->aggregate();
            EXPECT_EQ(st.shedTotal, ref.shedTotal) << what;
            EXPECT_GT(st.arrivalRunsAhead, 0) << what;
            EXPECT_GT(st.discardedSpeculativeRuns, 0) << what;
        }
    }
}

TEST_F(QueryServiceTest, ShedArrivalsNeverHoldRunsMadeAhead)
{
    // Two queue places per tenant against bursts of twelve: most of
    // each burst is shed, and shed() asserts that none of the shed
    // queries holds a run made ahead (drainWith fails on the throw).
    ServiceConfig cfg = threeTenants(4, 2, 0);
    cfg.maxQueuedPerTenant = 2;
    auto traced = runOpenLoop(4, /*traced=*/true, cfg, bursts(12, 0.002));
    EXPECT_GT(traced->aggregate().shedReasonCounts["queue_full"], 10);
    for (int threads : {1, 4}) {
        std::string what = "threads=" + std::to_string(threads);
        auto svc = runOpenLoop(threads, /*traced=*/false, cfg,
                               bursts(12, 0.002));
        expectSameRun(*svc, *traced, what);
        ServiceStats st = svc->aggregate();
        EXPECT_EQ(st.shedTotal, traced->aggregate().shedTotal) << what;
        EXPECT_GT(st.arrivalRunsAhead, 0) << what;
    }
}

TEST_F(QueryServiceTest, QuotaBelowReservationShedsWithoutRuns)
{
    // The batch tenant's quota cannot hold one reservation, so every
    // arrival of its is shed; none may have been run ahead.
    std::int64_t dram = ServiceConfig{}.device.dramBytes / 4;
    ServiceConfig cfg = threeTenants(4, 2, dram);
    cfg.tenants[2].dramQuotaBytes = dram - 1;
    auto traced = runOpenLoop(4, /*traced=*/true, cfg, bursts(1, 0.02));
    for (int threads : {1, 4}) {
        std::string what = "threads=" + std::to_string(threads);
        auto svc = runOpenLoop(threads, /*traced=*/false, cfg,
                               bursts(1, 0.02));
        expectSameRun(*svc, *traced, what);
        ServiceStats st = svc->aggregate();
        EXPECT_EQ(st.tenants[2].shed, 20) << what;
        EXPECT_EQ(st.shedReasonCounts["quota_below_reservation"], 20)
            << what;
        EXPECT_EQ(st.shedTotal, 20) << what;
        EXPECT_GT(st.arrivalRunsAhead, 0) << what;
    }
}

TEST_F(QueryServiceTest, OutOfOrderSubmissionsRunAheadInEventOrder)
{
    // Submitted latest first, in groups of six sharing one arrival
    // time: pending arrivals must still be taken in (time, seq) order,
    // or the room rule would pick arrivals that are later shed.
    std::vector<double> at;
    for (int i = 0; i < 60; ++i)
        at.push_back(0.002 * ((59 - i) / 6));
    ServiceConfig cfg = threeTenants(4, 2, 0);
    cfg.maxQueuedPerTenant = 2;
    auto traced = runOpenLoop(4, /*traced=*/true, cfg, at);
    EXPECT_GT(traced->aggregate().shedTotal, 0);
    EXPECT_EQ(traced->record(54).admitSec, 0.0); // first of time 0
    for (int threads : {1, 4}) {
        std::string what = "threads=" + std::to_string(threads);
        auto svc = runOpenLoop(threads, /*traced=*/false, cfg, at);
        expectSameRun(*svc, *traced, what);
        EXPECT_GT(svc->aggregate().arrivalRunsAhead, 0) << what;
    }
}

} // namespace
} // namespace aquoman::service
