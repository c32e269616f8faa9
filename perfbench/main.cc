/**
 * @file
 * The repository benchmark. One invocation runs one workload from one
 * process:
 *
 *   perfbench --workload tpch22|service_overload|service_light
 *             --seed <n> --seconds <s> --trace 0|1
 *
 * Every input (TPC-H data, query parameters, arrivals) derives from the
 * seed. The last line of stdout is one JSON object {"correct",
 * "attempted", "failed", "metrics"}: the end-to-end metrics with
 * --trace 0, the per-layer metrics with --trace 1. METRICS.md names each
 * metric, its unit, and the layer -> end-to-end mapping.
 *
 * Wall time is attributed to layers from outside: the benchmark times
 * its own calls into each layer's public functions (spans.hh). Checks
 * run outside every timed span.
 */

#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "aquoman/device.hh"
#include "aquoman/perf_model.hh"
#include "aquoman/query_profile.hh"
#include "aquoman/task_compiler.hh"
#include "check.hh"
#include "common/batch_mode.hh"
#include "common/compress_mode.hh"
#include "common/thread_pool.hh"
#include "engine/executor.hh"
#include "obs/metrics.hh"
#include "service/query_service.hh"
#include "spans.hh"
#include "tpch/dbgen.hh"
#include "tpch/queries.hh"
#include "workload/tenant_mix.hh"
#include "workload/tpch_params.hh"

using namespace aquoman;
using perfbench::Scope;
using perfbench::SpanLog;
using service::QueryId;
using service::QueryRecord;
using service::QueryService;
using workload::TenantSpec;
using workload::TpchInstanceGenerator;
using workload::WorkloadEvent;

namespace {

/// tpch22 runs at a scale where a 22-query round outweighs set-up.
constexpr double kTpchSf = 0.1;
/// The service workloads run many small instances at the SF of
/// bench/service_workload.
constexpr double kServiceSf = 0.02;
/// Set-ups per run; setup_s is their median.
constexpr int kSetups = 3;
/// Service answers checked: every suspended query plus 1 in N by id.
constexpr int kCheckEvery = 8;
/// Compiles per template in the traced tpch22 compile calibration.
constexpr int kCompileReps = 5;
/// Service completions per block of the per-query wall distribution.
constexpr std::size_t kCompletionBlock = 64;

/**
 * Service traffic, written into the workload rather than re-probed so
 * every commit sees identical arrivals. kProbedCapacityQps is the
 * aggregate capacity bench/service_workload's closed probe measured at
 * SF 0.02 (1996.7 qps); the SLOs are its per-tenant slack (4x, 6x, 8x)
 * times the probed mean service time of each tenant's class mix.
 */
constexpr double kProbedCapacityQps = 2000.0;
constexpr double kOverloadQps = 2.0 * kProbedCapacityQps;
/// Horizon at which the interactive tenant (30% of arrivals, never
/// shed) completes >= 1,000 queries at the overload rate.
constexpr double kOverloadHorizonSec = 1.0;
/// Rate at which the seed commit sheds nothing.
constexpr double kLightQps = 0.5 * kProbedCapacityQps;
constexpr double kLightHorizonSec = 1.0;
constexpr double kSloSec[] = {0.0107, 0.0248, 0.0200};
constexpr double kShare[] = {0.3, 0.3, 0.4};
/// Arrival schedules are part of the workload, like its rates: every
/// seed replays the same arrival times and query classes, and the seed
/// draws each arrival's query parameters. Otherwise seed-to-seed swings
/// in how much heavy work an overloaded service admits would swamp
/// the commit-to-commit differences the benchmark exists to show.
constexpr std::uint64_t kArrivalSeed = 1;
/// Service data is bench/service_workload's (the dbgen default seed).
constexpr std::uint64_t kServiceDataSeed = 19920101;
constexpr int kDevices = 4;
constexpr int kAdmissionLimit = 8;
constexpr int kMaxQueuedPerTenant = 64;

const char *const kOutDir = ".bench_out";
const char *const kUsage =
    "usage: perfbench --workload tpch22|service_overload|service_light "
    "--seed <n> --seconds <s> --trace 0|1\n";

/**
 * Output file .bench_out/<workload>[-seed<n>]<suffix>. The per-query
 * service report is per workload (each replay overwrites it); trace
 * exports are per seed.
 */
std::string
outPath(const std::string &workload, const char *suffix,
        const std::uint64_t *seed = nullptr)
{
    std::string path = std::string(kOutDir) + "/" + workload;
    if (seed)
        path += "-seed" + std::to_string(*seed);
    return path + suffix;
}

// ---------------------------------------------------------------- input

struct Options
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 0.0;
    bool trace = false;
    /// Self-test hook: corrupt one checked device answer.
    bool corrupt = false;
};

[[noreturn]] void
badInput(const std::string &fault)
{
    std::fprintf(stderr, "perfbench: %s\n%s", fault.c_str(), kUsage);
    std::exit(2);
}

bool
parseUnsigned(const std::string &s, std::uint64_t &out)
{
    if (s.empty() || s.size() > 20
        || s.find_first_not_of("0123456789") != std::string::npos)
        return false;
    errno = 0;
    out = std::strtoull(s.c_str(), nullptr, 10);
    return errno == 0;
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    bool have_seed = false, have_seconds = false, have_trace = false;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--corrupt-answer") {
            o.corrupt = true;
            continue;
        }
        if (arg != "--workload" && arg != "--seed" && arg != "--seconds"
            && arg != "--trace")
            badInput("unknown argument '" + arg + "'");
        if (i + 1 >= argc)
            badInput(arg + " needs a value");
        std::string v = argv[++i];
        if (arg == "--workload") {
            o.workload = v;
        } else if (arg == "--seed") {
            if (!parseUnsigned(v, o.seed))
                badInput("--seed must be a non-negative integer, got '"
                         + v + "'");
            have_seed = true;
        } else if (arg == "--seconds") {
            char *end = nullptr;
            o.seconds = std::strtod(v.c_str(), &end);
            if (v.empty() || *end != '\0' || !(o.seconds > 0.0)
                || o.seconds > 3600.0)
                badInput("--seconds must be a number in (0, 3600], got '"
                         + v + "'");
            have_seconds = true;
        } else {
            if (v != "0" && v != "1")
                badInput("--trace must be 0 or 1, got '" + v + "'");
            o.trace = v == "1";
            have_trace = true;
        }
    }
    if (o.workload.empty())
        badInput("missing --workload");
    if (o.workload != "tpch22" && o.workload != "service_overload"
        && o.workload != "service_light")
        badInput("unknown workload '" + o.workload
                 + "' (expected tpch22, service_overload or "
                   "service_light)");
    if (!have_seed)
        badInput("missing --seed");
    if (!have_seconds)
        badInput("missing --seconds");
    if (!have_trace)
        badInput("missing --trace");
    return o;
}

/** Reject AQUOMAN_* values the library would silently reinterpret. */
void
checkEnvironment()
{
    if (const char *t = std::getenv("AQUOMAN_THREADS")) {
        std::uint64_t n = 0;
        if (!parseUnsigned(t, n) || n < 1 || n > 1024)
            badInput(std::string("AQUOMAN_THREADS must be a positive "
                                 "integer, got '")
                     + t + "'");
    }
    for (const char *var : {"AQUOMAN_BATCH", "AQUOMAN_COMPRESS"}) {
        const char *v = std::getenv(var);
        if (v && std::string(v) != "0" && std::string(v) != "1")
            badInput(std::string(var) + " must be 0 or 1, got '" + v
                     + "'");
    }
}

/** CPUs this process may run on (what nproc prints). */
int
availableCpus()
{
    cpu_set_t set;
    if (sched_getaffinity(0, sizeof set, &set) == 0)
        return std::max(1, CPU_COUNT(&set));
    return std::max(1u, std::thread::hardware_concurrency());
}

// ------------------------------------------------------------ measuring

double
wallNow()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Process CPU seconds (user + system, all threads). */
double
cpuNow()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec)
        + 1e-6 * static_cast<double>(ru.ru_utime.tv_usec
                                     + ru.ru_stime.tv_usec);
}

/**
 * Hand memory freed by a discarded set-up back to the kernel, so every
 * set-up grows the heap from the same baseline and peak RSS does not
 * depend on how the previous one fragmented it.
 */
void
releaseFreedMemory()
{
    malloc_trim(0);
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/** Linearly interpolated quantile (0 for an empty sample). */
double
quantile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    double pos = p * static_cast<double>(v.size() - 1);
    auto lo = static_cast<std::size_t>(pos);
    std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double
median(const std::vector<double> &v)
{
    return quantile(v, 0.5);
}

double
sum(const std::vector<double> &v)
{
    double s = 0.0;
    for (double x : v)
        s += x;
    return s;
}

/**
 * Whether a timed loop runs another round: until @p min_rounds are done
 * and @p seconds of timed wall time are measured.
 */
bool
anotherRound(double timed, int rounds, int min_rounds, double seconds)
{
    return rounds < min_rounds || timed < seconds;
}

/** Attempted / failed operations and answers compared. */
struct Checks
{
    std::int64_t attempted = 0;
    std::int64_t failed = 0;
    std::int64_t answersChecked = 0;
    bool corruptNext = false;

    /** Compare one device answer with the host engine's. */
    bool
    answer(RelTable got, const RelTable &want, const std::string &what)
    {
        if (corruptNext && perfbench::corruptOneCell(got))
            corruptNext = false;
        ++answersChecked;
        if (perfbench::sameAnswer(got, want))
            return true;
        std::fprintf(stderr,
                     "perfbench: %s: device answer differs from the host "
                     "engine\n",
                     what.c_str());
        return false;
    }
};

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

// ------------------------------------------------------------- fixture

std::vector<std::shared_ptr<Table>>
tablesOf(const tpch::TpchDatabase &db)
{
    return {db.region, db.nation,   db.supplier, db.customer,
            db.part,   db.partsupp, db.orders,   db.lineitem};
}

/** TPC-H tables installed on one flash device (the Fig. 16 system). */
struct Fixture
{
    FlashDevice flash{flashConfig()};
    ControllerSwitch sw{flash};
    TableStore store{sw};
    Catalog catalog;

    static FlashConfig
    flashConfig()
    {
        FlashConfig fc;
        fc.capacityBytes = 32ll << 30;
        return fc;
    }
};

std::unique_ptr<Fixture>
install(const tpch::TpchDatabase &db, SpanLog &log)
{
    auto fx = std::make_unique<Fixture>();
    Scope s(log, "columnstore.install");
    db.installInto(fx->catalog, fx->store);
    return fx;
}

/** Device config with capacities scaled from the paper's 1 TB point. */
AquomanConfig
scaledDevice(double sf, std::int64_t paper_dram_bytes)
{
    AquomanConfig cfg;
    double ratio = sf / 1000.0;
    cfg.dramBytes = static_cast<std::int64_t>(
        static_cast<double>(paper_dram_bytes) * ratio);
    cfg.sorterBlockBytes = std::max<std::int64_t>(
        4096, static_cast<std::int64_t>((1ll << 30) * ratio));
    cfg.paperScaleRatio = 1.0 / ratio;
    return cfg;
}

/** Scale a machine-independent host trace linearly to SF-1000. */
EngineMetrics
scaleMetrics(const EngineMetrics &m, double sf)
{
    double k = 1000.0 / sf;
    auto scaled = [k](std::int64_t v) {
        return static_cast<std::int64_t>(static_cast<double>(v) * k);
    };
    EngineMetrics out = m;
    out.rowOps *= k;
    out.seqRowOps *= k;
    out.flashBytesRead = scaled(m.flashBytesRead);
    out.touchedBaseBytes = scaled(m.touchedBaseBytes);
    out.peakIntermediateBytes = scaled(m.peakIntermediateBytes);
    out.totalIntermediateBytes = scaled(m.totalIntermediateBytes);
    out.hostFinishBytes = scaled(m.hostFinishBytes);
    return out;
}

/** Scale a device trace to SF-1000, task by task (as Fig. 16 does). */
AquomanRunStats
scaleStats(const AquomanRunStats &s, double sf)
{
    double k = 1000.0 / sf;
    auto scaled = [k](std::int64_t v) {
        return static_cast<std::int64_t>(static_cast<double>(v) * k);
    };
    AquomanRunStats out = s;
    if (out.tasks.empty()) {
        out.deviceSeconds *= k;
        out.deviceFlashBytes = scaled(s.deviceFlashBytes);
    } else {
        out.deviceSeconds = 0.0;
        out.deviceFlashBytes = 0;
        for (TableTaskRecord &t : out.tasks) {
            for (double &sec : t.stages.sec)
                sec *= k;
            t.seconds = t.stages.total();
            t.flashBytes = scaled(t.flashBytes);
            if (t.rowsIn >= 0)
                t.rowsIn = scaled(t.rowsIn);
            if (t.rowsOut >= 0)
                t.rowsOut = scaled(t.rowsOut);
            out.deviceSeconds += t.seconds;
            out.deviceFlashBytes += t.flashBytes;
        }
    }
    out.deviceDramPeak = scaled(s.deviceDramPeak);
    out.zonePagesConsidered = scaled(s.zonePagesConsidered);
    out.zonePagesSkipped = scaled(s.zonePagesSkipped);
    out.spillRows = scaled(s.spillRows);
    out.spillGroups = scaled(s.spillGroups);
    out.dmaBytes = scaled(s.dmaBytes);
    out.hostResidual = scaleMetrics(s.hostResidual, sf);
    return out;
}

// -------------------------------------------------------- Fig. 16 rows

/** Exact work counts of device runs (unscaled) and host-engine work. */
struct WorkCounts
{
    std::int64_t tasks = 0, transformedRows = 0, spillRows = 0,
                 suspensions = 0, deviceFlashBytes = 0;
    double rowOps = 0.0;

    void
    addDevice(const AquomanRunStats &st)
    {
        tasks += st.tasksExecuted;
        transformedRows += st.transformedRows;
        spillRows += st.spillRows;
        deviceFlashBytes += st.deviceFlashBytes;
    }

    void
    add(const WorkCounts &o)
    {
        tasks += o.tasks;
        transformedRows += o.transformedRows;
        spillRows += o.spillRows;
        suspensions += o.suspensions;
        deviceFlashBytes += o.deviceFlashBytes;
        rowOps += o.rowOps;
    }
};

/** One Fig. 16 row: modelled results plus exact work counts. */
struct Row
{
    int q = 0;
    double wallSec = 0.0;
    double cpuSec = 0.0;
    double runS = 0.0, runL = 0.0, runSAq = 0.0, runLAq = 0.0,
           runSAq16 = 0.0;
    double cpuSaving = 0.0;
    std::int64_t flashBytes = 0; ///< 40 GB device, scaled to SF-1000
    WorkCounts work;             ///< both DRAM configs + the baseline
};

/**
 * Time one Fig. 16 row: the Executor::run baseline, runQuery at the
 * scaled 40 GB and 16 GB DRAM configs, the host-model evaluation, and
 * the query profile. Both device answers are then checked against the
 * baseline's, outside the row's span.
 */
Row
runRow(Fixture &fx, double sf, const Query &query, int q, std::int64_t id,
       SpanLog &log, Checks &chk)
{
    Row r;
    r.q = q;
    RelTable want, got40, got16;
    bool ok = true;
    double w0 = wallNow(), c0 = cpuNow();
    try {
        Scope row(log, "bench.row", id, q);
        EngineMetrics base;
        {
            Scope s(log, "engine.run", id, q);
            Executor ex(fx.catalog, &fx.sw);
            want = ex.run(query);
            base = ex.metrics();
        }
        OffloadedQueryResult off40, off16;
        {
            Scope s(log, "aquoman.run", id, q);
            off40 = AquomanDevice(fx.catalog, fx.sw,
                                  scaledDevice(sf, 40ll << 30))
                        .runQuery(query);
        }
        {
            Scope s(log, "aquoman.run", id, q);
            off16 = AquomanDevice(fx.catalog, fx.sw,
                                  scaledDevice(sf, 16ll << 30))
                        .runQuery(query);
        }
        AquomanRunStats aq40;
        SystemEvaluation evL40;
        HostPhaseProfile hp;
        {
            Scope s(log, "engine.host_model", id, q);
            HostModel host_s(HostConfig::small());
            HostModel host_l(HostConfig::large());
            EngineMetrics b = scaleMetrics(base, sf);
            aq40 = scaleStats(off40.stats, sf);
            AquomanRunStats aq16 = scaleStats(off16.stats, sf);
            evL40 = evaluateOffload(b, aq40, host_l);
            r.runS = host_s.estimate(b).runtime;
            r.runL = host_l.estimate(b).runtime;
            r.runSAq = evaluateOffload(b, aq40, host_s).offloadRuntime;
            r.runLAq = evL40.offloadRuntime;
            r.runSAq16 = evaluateOffload(b, aq16, host_s).offloadRuntime;
            r.cpuSaving = evL40.cpuSaving;
            hp.hostSeconds = host_l.estimate(aq40.hostResidual).runtime;
            hp.dmaSeconds = static_cast<double>(aq40.dmaBytes)
                / host_l.cfg().storageReadBandwidth;
            hp.dmaBytes = aq40.dmaBytes;
            hp.hostBytes = std::max<std::int64_t>(
                0, aq40.hostResidual.hostFinishBytes - aq40.dmaBytes);
        }
        {
            Scope s(log, "obs.profile_build", id, q);
            obs::QueryProfile profile = buildQueryProfile(
                query.name, off40.compilation, aq40, hp,
                offloadClassName(evL40.offloadClass));
        }
        r.flashBytes = aq40.deviceFlashBytes;
        for (const AquomanRunStats *st : {&off40.stats, &off16.stats}) {
            r.work.addDevice(*st);
            r.work.suspensions +=
                static_cast<std::int64_t>(st->suspensions.size());
        }
        r.work.rowOps = base.rowOps;
        got40 = std::move(off40.result);
        got16 = std::move(off16.result);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: q%d threw: %s\n", q, e.what());
        ok = false;
    }
    r.wallSec = wallNow() - w0;
    r.cpuSec = cpuNow() - c0;
    ++chk.attempted;
    if (ok) {
        Scope s(log, "bench.check", id, q);
        std::string what = "q" + std::to_string(q);
        ok = chk.answer(std::move(got40), want, what + " dram40");
        ok = chk.answer(std::move(got16), want, what + " dram16") && ok;
    }
    if (!ok)
        ++chk.failed;
    return r;
}

/** Hash of every row's five modelled runtimes and flash bytes. */
double
rowsFingerprint(const std::vector<Row> &rows)
{
    perfbench::Fingerprint fp;
    for (const Row &r : rows) {
        for (double v : {r.runS, r.runL, r.runSAq, r.runLAq, r.runSAq16})
            fp.add(v);
        fp.add(r.flashBytes);
    }
    return fp.value();
}

/** Validation-parameter plans of all 22 templates. */
std::vector<Query>
validationQueries(const TpchInstanceGenerator &gen, SpanLog &log)
{
    std::vector<Query> out;
    for (int q : tpch::allQueryNumbers()) {
        Scope s(log, "workload.build", -1, q);
        out.push_back(gen.build(gen.instance(q, 0)));
    }
    return out;
}

// -------------------------------------------------------------- service

/** The three-tenant mix of bench/service_workload at a fixed rate. */
std::vector<TenantSpec>
serviceMix(double offered_qps, double horizon_sec)
{
    std::vector<TenantSpec> mix(3);
    mix[0].name = "interactive";
    mix[0].priority = 0;
    mix[0].weight = 2.0;
    mix[0].arrivals.process = workload::ArrivalProcess::Poisson;
    mix[0].classes = {{6, 2.0}, {14, 1.0}};

    // The original 2 s / 6 s burst periods exceed the horizon, so one
    // seed's reporting traffic would be a single burst and another's
    // nearly none. With ~100 on/off cycles per horizon the offered
    // load, and so every metric, varies little from seed to seed.
    mix[1].name = "reporting";
    mix[1].priority = 1;
    mix[1].weight = 2.0;
    mix[1].arrivals.process = workload::ArrivalProcess::OnOff;
    mix[1].arrivals.meanOnSec = horizon_sec / 400.0;
    mix[1].arrivals.meanOffSec = 3.0 * horizon_sec / 400.0;
    mix[1].classes = {{12, 1.0}, {4, 1.0}, {3, 1.0}};

    mix[2].name = "batch";
    mix[2].priority = 1;
    mix[2].weight = 1.0;
    mix[2].arrivals.process = workload::ArrivalProcess::Diurnal;
    mix[2].arrivals.diurnalProfile = {0.4, 1.6, 1.6, 0.4};
    mix[2].classes = {{1, 1.0}, {13, 1.0}, {19, 1.0}};
    service::ServiceConfig quota_ref;
    quota_ref.admissionLimit = kAdmissionLimit;
    mix[2].dramQuotaBytes = 2 * quota_ref.resolvedQueryDramBytes();

    for (std::size_t i = 0; i < mix.size(); ++i) {
        mix[i].sloSec = kSloSec[i];
        mix[i].arrivals.rateQps = kShare[i] * offered_qps;
    }
    return mix;
}

/** A service over @p db; an empty @p mix means one FIFO tenant. */
std::unique_ptr<QueryService>
makeService(const tpch::TpchDatabase &db, const std::vector<TenantSpec> &mix,
            SpanLog &log)
{
    service::ServiceConfig cfg;
    cfg.numDevices = kDevices;
    cfg.admissionLimit = kAdmissionLimit;
    if (!mix.empty())
        cfg.maxQueuedPerTenant = kMaxQueuedPerTenant;
    for (const TenantSpec &t : mix) {
        service::TenantConfig tc;
        tc.name = t.name;
        tc.priority = t.priority;
        tc.weight = t.weight;
        tc.dramQuotaBytes = t.dramQuotaBytes;
        tc.sloSec = t.sloSec;
        cfg.tenants.push_back(tc);
    }
    auto svc = std::make_unique<QueryService>(cfg);
    Scope s(log, "columnstore.install");
    for (const auto &t : tablesOf(db))
        svc->addTable(t);
    db.registerMetadata(svc->catalog());
    return svc;
}

/** Per-query modelled outcome plus the SLO timeline, as JSON. */
bool
writeServiceReport(const std::string &path, const QueryService &svc,
                   const std::string &slo_json)
{
    std::ofstream f(path);
    f << "{\"slo\":" << slo_json << ",\"queries\":[";
    for (QueryId id = 0; id < static_cast<QueryId>(svc.numQueries());
         ++id) {
        const QueryRecord &rec = svc.record(id);
        f << (id ? ",\n" : "\n") << "{\"id\":" << id << ",\"name\":\""
          << obs::jsonEscape(rec.name) << "\",\"tenant\":" << rec.tenant
          << ",\"submit_s\":" << obs::jsonNumber(rec.submitSec)
          << ",\"done_s\":" << obs::jsonNumber(rec.doneSec)
          << ",\"shed\":" << (rec.shed ? 1 : 0) << ",\"wait\":";
        rec.waitLedger.toJson(f);
        f << '}';
    }
    f << "\n]}\n";
    return f.good();
}

/** Outcome of one replay of a trace through a QueryService. */
struct Replay
{
    std::vector<WorkloadEvent> trace;
    std::vector<QueryId> ids; ///< by trace index, -1 when submit threw
    std::vector<std::size_t> completedIdx; ///< trace indices not shed
    bool drained = false;
    service::ServiceStats stats;
    double timedSec = 0.0;
    double cpuSec = 0.0;
    /// Wall ms per completed query, per block of kCompletionBlock
    /// consecutive completions during drain (single completions cluster
    /// at event boundaries, so their gaps say little).
    std::vector<double> blockMsPerQuery;

    // Modelled outcome and exact counts.
    double fingerprint = 0.0;
    std::int64_t submitted = 0, completed = 0, shed = 0, suspended = 0;
    WorkCounts work; ///< completed queries' device and host work
    double goodputQps = 0.0, interactiveP99 = 0.0, sloAttainment = 0.0;
    double deviceBusyFrac = 0.0;
    std::int64_t flashAquomanRead = 0, flashHostRead = 0,
                 flashWritten = 0;
};

/**
 * The timed phase of a service workload: build the arrival trace, build
 * and submit every instance, drain, aggregate, and export the SLO
 * timeline and per-query report. Submit and drain exceptions are counted
 * as failed operations.
 */
Replay
replayTrace(QueryService &svc, const TpchInstanceGenerator &gen,
            const std::function<std::vector<WorkloadEvent>()> &make_trace,
            const std::string &report_path, SpanLog &log, Checks &chk)
{
    Replay out;
    std::vector<double> done_at;
    svc.setOnComplete(
        [&done_at](const QueryRecord &) { done_at.push_back(wallNow()); });
    std::int64_t submit_failures = 0;
    double w0 = wallNow(), c0 = cpuNow(), drain_start = 0.0;
    {
        Scope root(log, "bench.replay");
        {
            Scope s(log, "workload.build");
            out.trace = make_trace();
        }
        for (std::size_t i = 0; i < out.trace.size(); ++i) {
            const WorkloadEvent &ev = out.trace[i];
            auto id = static_cast<std::int64_t>(i);
            QueryId qid = -1;
            try {
                Query q;
                {
                    Scope s(log, "workload.build", id, ev.queryNumber);
                    q = gen.build(gen.instance(ev.queryNumber, ev.instance));
                }
                Scope s(log, "service.submit", id, ev.queryNumber);
                qid = svc.submit(q, ev.atSec, ev.tenant);
            } catch (const std::exception &e) {
                std::fprintf(stderr, "perfbench: submit %zu threw: %s\n", i,
                             e.what());
                ++submit_failures;
            }
            out.ids.push_back(qid);
        }
        drain_start = wallNow();
        try {
            Scope s(log, "service.drain");
            svc.drain();
            out.drained = true;
        } catch (const std::exception &e) {
            std::fprintf(stderr, "perfbench: drain threw: %s\n", e.what());
        }
        if (out.drained) {
            {
                Scope s(log, "service.aggregate");
                out.stats = svc.aggregate();
            }
            std::string slo;
            {
                Scope s(log, "obs.slo_json");
                slo = svc.sloEngine().jsonString();
            }
            Scope s(log, "obs.report_write");
            if (!writeServiceReport(report_path, svc, slo)) {
                std::fprintf(stderr, "perfbench: cannot write %s\n",
                             report_path.c_str());
                ++chk.failed;
            }
        }
    }
    out.timedSec = wallNow() - w0;
    out.cpuSec = cpuNow() - c0;
    svc.setOnComplete({});
    double prev = drain_start;
    for (std::size_t end = kCompletionBlock; end <= done_at.size();
         end += kCompletionBlock) {
        out.blockMsPerQuery.push_back((done_at[end - 1] - prev) * 1e3
                                      / kCompletionBlock);
        prev = done_at[end - 1];
    }

    auto n = static_cast<std::int64_t>(out.trace.size());
    chk.attempted += n;
    chk.failed += out.drained ? submit_failures : n;
    if (!out.drained)
        return out;

    perfbench::Fingerprint fp;
    std::int64_t within = 0;
    for (std::size_t i = 0; i < out.trace.size(); ++i) {
        if (out.ids[i] < 0)
            continue;
        const QueryRecord &rec = svc.record(out.ids[i]);
        fp.add(rec.submitSec);
        fp.add(rec.doneSec);
        fp.add(static_cast<std::int64_t>(rec.shed));
        for (double w : rec.waitLedger.sec)
            fp.add(w);
        ++out.submitted;
        if (rec.shed) {
            ++out.shed;
            continue;
        }
        ++out.completed;
        out.completedIdx.push_back(i);
        out.suspended += rec.suspendCount > 0 ? 1 : 0;
        out.work.suspensions += rec.suspendCount;
        out.work.addDevice(rec.stats);
        out.work.rowOps += rec.metrics.rowOps;
    }
    out.fingerprint = fp.value();
    for (const service::TenantStats &t : out.stats.tenants) {
        out.goodputQps += t.goodputQps;
        within += t.withinSlo;
    }
    out.interactiveP99 = out.stats.tenants.at(0).p99LatencySec;
    out.sloAttainment = out.submitted > 0
        ? static_cast<double>(within) / static_cast<double>(out.submitted)
        : 0.0;
    double busy = sum(out.stats.deviceBusySec);
    out.deviceBusyFrac = out.stats.makespanSec > 0.0
        ? busy / (svc.numDevices() * out.stats.makespanSec)
        : 0.0;
    for (int d = 0; d < svc.numDevices(); ++d) {
        const ControllerSwitch &sw = svc.deviceSwitch(d);
        out.flashAquomanRead += sw.bytesRead(FlashPort::Aquoman);
        out.flashHostRead += sw.bytesRead(FlashPort::Host);
        out.flashWritten += sw.bytesWritten(FlashPort::Host)
            + sw.bytesWritten(FlashPort::Aquoman);
    }
    return out;
}

/**
 * Compare service answers with Executor::run on the service's catalog:
 * every suspended query plus every kCheckEvery-th query id.
 */
void
checkServiceAnswers(QueryService &svc, const TpchInstanceGenerator &gen,
                    const Replay &rp, SpanLog &log, Checks &chk)
{
    for (std::size_t i = 0; i < rp.trace.size(); ++i) {
        QueryId id = rp.ids[i];
        if (id < 0)
            continue;
        const QueryRecord &rec = svc.record(id);
        if (rec.shed || (rec.suspendCount == 0 && id % kCheckEvery != 0))
            continue;
        const WorkloadEvent &ev = rp.trace[i];
        Scope root(log, "bench.check", id, ev.queryNumber);
        try {
            Query q = gen.build(gen.instance(ev.queryNumber, ev.instance));
            RelTable want;
            {
                Scope s(log, "engine.run", id, ev.queryNumber);
                want = Executor(svc.catalog()).run(q);
            }
            if (!chk.answer(rec.result, want, rec.name))
                ++chk.failed;
        } catch (const std::exception &e) {
            std::fprintf(stderr, "perfbench: checking %s threw: %s\n",
                         rec.name.c_str(), e.what());
            ++chk.failed;
        }
    }
}

/**
 * Replay the completed instances of @p rp through AquomanDevice::runQuery
 * (one TaskCompiler::compile each, too) on a standalone catalog that
 * holds @p db in memory, as a QueryService's catalog does, with the
 * service's per-query DRAM reservation: the device share of the
 * service's drain time.
 */
void
deviceReplay(const tpch::TpchDatabase &db, ControllerSwitch &sw,
             const TpchInstanceGenerator &gen, const Replay &rp,
             SpanLog &log, Checks &chk)
{
    Catalog catalog;
    for (const auto &t : tablesOf(db))
        catalog.put(t, nullptr);
    db.registerMetadata(catalog);
    service::ServiceConfig svc_cfg;
    svc_cfg.admissionLimit = kAdmissionLimit;
    AquomanConfig cfg = svc_cfg.device;
    cfg.dramBytes = svc_cfg.resolvedQueryDramBytes();
    for (std::size_t i : rp.completedIdx) {
        QueryId id = rp.ids[i];
        const WorkloadEvent &ev = rp.trace[i];
        Scope root(log, "bench.device_replay", id, ev.queryNumber);
        try {
            Query q = gen.build(gen.instance(ev.queryNumber, ev.instance));
            {
                Scope s(log, "aquoman.compile", id, ev.queryNumber);
                TaskCompiler(catalog, cfg).compile(q);
            }
            Scope s(log, "aquoman.run", id, ev.queryNumber);
            AquomanDevice(catalog, sw, cfg).runQuery(q);
        } catch (const std::exception &e) {
            std::fprintf(stderr, "perfbench: device replay of q%d #%zu "
                         "threw: %s\n", ev.queryNumber, i, e.what());
            ++chk.failed;
        }
    }
}

// ------------------------------------------------------------ workloads

/** Everything a run reports, gathered by the workload runners. */
struct RunResult
{
    std::vector<Metric> endToEnd;
    std::vector<Metric> perLayer;
    bool consistent = true; ///< modelled fingerprint repeated
};

/** Median set-up time over kSetups (generate + install / construct). */
struct Setup
{
    std::vector<double> seconds;
    double cpuSec = 0.0, wallSec = 0.0;

    void
    record(double wall, double cpu)
    {
        seconds.push_back(wall);
        wallSec += wall;
        cpuSec += cpu;
    }
};

tpch::TpchDatabase
generate(double sf, std::uint64_t seed, SpanLog &log)
{
    Scope s(log, "tpch.generate");
    return tpch::TpchDatabase::generate(tpch::TpchConfig{sf, seed});
}

std::int64_t
tableRows(const tpch::TpchDatabase &db)
{
    std::int64_t rows = 0;
    for (const auto &t : tablesOf(db))
        rows += t->numRows();
    return rows;
}

/** Logical and encoded bytes of the flash-resident tables. */
std::pair<std::int64_t, std::int64_t>
storedBytes(const Catalog &cat)
{
    std::int64_t logical = 0, encoded = 0;
    for (const auto &[name, entry] : cat.all()) {
        if (!entry.resident)
            continue;
        const Table &t = *entry.table;
        for (int c = 0; c < t.numColumns(); ++c) {
            std::int64_t bytes =
                t.numRows() * columnTypeWidth(t.col(c).type());
            const ColumnLayoutMeta *enc = entry.resident->encodingMeta(c);
            logical += bytes;
            encoded += enc ? enc->encodedBytes : bytes;
        }
    }
    return {logical, encoded};
}

/** Per-layer metrics every workload reports the same way. */
void
addCommonLayers(RunResult &res, const SpanLog &log,
                const tpch::TpchDatabase &db, const Fixture &fx,
                const Setup &setup, double query_cpu_per_wall)
{
    auto &m = res.perLayer;
    m.push_back({"tpch.generate_s",
                 median(log.durations("tpch.generate", "bench.setup")),
                 "s"});
    m.push_back({"tpch.rows", static_cast<double>(tableRows(db)), "count"});
    m.push_back({"columnstore.install_s",
                 median(log.durations("columnstore.install", "bench.setup")),
                 "s"});
    auto [logical, encoded] = storedBytes(fx.catalog);
    m.push_back({"columnstore.logical_bytes", static_cast<double>(logical),
                 "bytes"});
    m.push_back({"columnstore.encoded_bytes", static_cast<double>(encoded),
                 "bytes"});
    m.push_back({"common.threads",
                 static_cast<double>(ThreadPool::global().parallelism()),
                 "count"});
    m.push_back({"common.cpu_per_wall.setup",
                 setup.wallSec > 0 ? setup.cpuSec / setup.wallSec : 0.0,
                 "ratio"});
    m.push_back({"common.cpu_per_wall.query", query_cpu_per_wall, "ratio"});
}

/** Per-template device and engine wall time from Fig. 16 rows. */
void
addTemplateLayers(RunResult &res, const SpanLog &log)
{
    for (const char *layer : {"aquoman", "engine"}) {
        std::string span = std::string(layer) + ".run";
        for (int q : tpch::allQueryNumbers())
            res.perLayer.push_back(
                {span + "_ms.q" + std::to_string(q),
                 1e3 * median(log.durations(span, "bench.row", q)), "ms"});
    }
    res.perLayer.push_back(
        {"engine.host_model_us_p50",
         1e6 * median(log.durations("engine.host_model", "bench.row")),
         "us"});
    res.perLayer.push_back(
        {"obs.profile_build_us_p50",
         1e6 * median(log.durations("obs.profile_build", "bench.row")),
         "us"});
}

void
addModelLayers(RunResult &res, const std::vector<Row> &rows,
               double fingerprint)
{
    double l = 0, laq = 0, saq16 = 0, saving = 0;
    for (const Row &r : rows) {
        l += r.runL;
        laq += r.runLAq;
        saq16 += r.runSAq16;
        saving += r.cpuSaving;
    }
    auto &m = res.perLayer;
    m.push_back({"model.l_aquoman_s_total", laq, "sim_s"});
    m.push_back({"model.s_aquoman16_over_l", l > 0 ? saq16 / l : 0.0,
                 "ratio"});
    m.push_back({"model.cpu_saving_mean",
                 rows.empty() ? 0.0 : saving / rows.size(), "frac"});
    m.push_back({"model.fingerprint", fingerprint, "hash"});
}

/** service.* and obs.* layer metrics of @p replays traced replays. */
void
addServiceLayers(RunResult &res, const SpanLog &log, const Replay &rp,
                 int replays, double workload_build_s)
{
    auto per_replay = [&](const char *span) {
        return sum(log.durations(span, "bench.replay"))
            / std::max(1, replays);
    };
    double drain = per_replay("service.drain");
    double device = sum(log.durations("aquoman.run", "bench.device_replay"));
    auto &m = res.perLayer;
    m.push_back({"service.submit_s", per_replay("service.submit"), "s"});
    m.push_back({"service.drain_s", drain, "s"});
    m.push_back({"service.aggregate_ms",
                 1e3 * per_replay("service.aggregate"), "ms"});
    m.push_back({"service.replay_device_s", device, "s"});
    m.push_back({"service.non_device_s", drain - device, "s"});
    m.push_back({"service.completed", static_cast<double>(rp.completed),
                 "count"});
    m.push_back({"service.shed", static_cast<double>(rp.shed), "count"});
    m.push_back({"service.suspended", static_cast<double>(rp.suspended),
                 "count"});
    m.push_back({"service.device_busy_frac", rp.deviceBusyFrac, "frac"});
    for (int wc = 0; wc < obs::kNumWaitClasses; ++wc)
        m.push_back({std::string("service.wait.")
                         + obs::waitClassName(
                             static_cast<obs::WaitClass>(wc))
                         + "_s",
                     rp.stats.waitLedger.sec[wc], "sim_s"});
    m.push_back({"obs.slo_json_ms", 1e3 * per_replay("obs.slo_json"), "ms"});
    m.push_back({"obs.report_write_ms",
                 1e3 * per_replay("obs.report_write"), "ms"});
    m.push_back({"workload.build_s", workload_build_s, "s"});
}

void
addDeviceLayers(RunResult &res, const SpanLog &log, const char *run_root,
                const char *compile_root, const char *engine_root,
                const WorkCounts &work)
{
    std::vector<double> run = log.durations("aquoman.run", run_root);
    auto &m = res.perLayer;
    m.push_back(
        {"aquoman.compile_us_p50",
         1e6 * median(log.durations("aquoman.compile", compile_root)),
         "us"});
    m.push_back({"aquoman.run_ms_p50", 1e3 * quantile(run, 0.5), "ms"});
    m.push_back({"aquoman.run_ms_p90", 1e3 * quantile(run, 0.9), "ms"});
    m.push_back({"aquoman.tasks", static_cast<double>(work.tasks), "count"});
    m.push_back({"aquoman.transformed_rows",
                 static_cast<double>(work.transformedRows), "count"});
    m.push_back({"aquoman.spill_rows", static_cast<double>(work.spillRows),
                 "count"});
    m.push_back({"aquoman.suspensions",
                 static_cast<double>(work.suspensions), "count"});
    m.push_back({"aquoman.flash_bytes",
                 static_cast<double>(work.deviceFlashBytes), "bytes"});
    m.push_back({"engine.run_ms_p50",
                 1e3 * median(log.durations("engine.run", engine_root)),
                 "ms"});
    m.push_back({"engine.row_ops", work.rowOps, "count"});
}

void
addFlashLayers(RunResult &res, std::int64_t aq_read, std::int64_t host_read,
               std::int64_t written)
{
    res.perLayer.push_back({"flash.aquoman_read_bytes",
                            static_cast<double>(aq_read), "bytes"});
    res.perLayer.push_back({"flash.host_read_bytes",
                            static_cast<double>(host_read), "bytes"});
    res.perLayer.push_back(
        {"flash.written_bytes", static_cast<double>(written), "bytes"});
}

void
addBenchLayers(RunResult &res, const SpanLog &log, const char *timed_root,
               double traced_per_op, double untraced_per_op,
               const Checks &chk)
{
    res.perLayer.push_back(
        {"bench.trace_overhead_frac",
         untraced_per_op > 0 ? traced_per_op / untraced_per_op - 1.0 : 0.0,
         "frac"});
    res.perLayer.push_back(
        {"bench.span_coverage", log.coverage(timed_root), "frac"});
    res.perLayer.push_back({"bench.answers_checked",
                            static_cast<double>(chk.answersChecked),
                            "count"});
}

/**
 * tpch22: one caller runs closed-loop rounds of the 22 validation
 * queries as Fig. 16 rows, after one untimed warm-up round.
 */
RunResult
runTpch22(const Options &o, SpanLog &log, Checks &chk)
{
    RunResult res;
    Setup setup;
    tpch::TpchDatabase db;
    std::unique_ptr<Fixture> fx;
    for (int k = 0; k < kSetups; ++k) {
        fx.reset();
        db = tpch::TpchDatabase();
        releaseFreedMemory();
        double w0 = wallNow(), c0 = cpuNow();
        Scope root(log, "bench.setup");
        db = generate(kTpchSf, o.seed, log);
        fx = install(db, log);
        setup.record(wallNow() - w0, cpuNow() - c0);
    }
    std::int64_t written = fx->sw.bytesWritten(FlashPort::Host)
        + fx->sw.bytesWritten(FlashPort::Aquoman);

    TpchInstanceGenerator gen(o.seed, kTpchSf);
    std::vector<Query> queries;
    {
        Scope root(log, "bench.prepare");
        queries = validationQueries(gen, log);
    }
    double build_s = sum(log.durations("workload.build", "bench.prepare"));

    const std::vector<int> qnums = tpch::allQueryNumbers();
    bool traced = log.enabled();
    log.setEnabled(false);
    for (std::size_t i = 0; i < queries.size(); ++i)
        runRow(*fx, kTpchSf, queries[i], qnums[i], -1, log, chk);

    std::vector<std::vector<double>> per_query_ms(queries.size());
    std::vector<Row> first;
    double first_fp = 0.0;
    double untraced_wall = 0, untraced_cpu = 0, traced_wall = 0;
    int untraced_rounds = 0, traced_rounds = 0;
    std::vector<double> round_qps;
    std::int64_t aq_read = 0, host_read = 0;
    std::int64_t id = 0;
    for (int round = 0; anotherRound(untraced_wall + traced_wall, round,
                                     traced ? 2 : 1, o.seconds);
         ++round) {
        bool trace_round = traced && round % 2 == 0;
        log.setEnabled(trace_round);
        std::int64_t aq0 = fx->sw.bytesRead(FlashPort::Aquoman);
        std::int64_t host0 = fx->sw.bytesRead(FlashPort::Host);
        std::vector<Row> rows;
        double wall = 0, cpu = 0;
        for (std::size_t i = 0; i < queries.size(); ++i) {
            rows.push_back(
                runRow(*fx, kTpchSf, queries[i], qnums[i], id++, log, chk));
            wall += rows.back().wallSec;
            cpu += rows.back().cpuSec;
            per_query_ms[i].push_back(1e3 * rows.back().wallSec);
        }
        (trace_round ? traced_wall : untraced_wall) += wall;
        std::fprintf(stderr, "perfbench: round %d: %zu rows, %.3f s%s\n",
                     round, rows.size(), wall,
                     trace_round ? " (traced)" : "");
        if (trace_round) {
            ++traced_rounds;
        } else {
            ++untraced_rounds;
            untraced_cpu += cpu;
            round_qps.push_back(static_cast<double>(rows.size()) / wall);
        }
        double fp = rowsFingerprint(rows);
        if (round == 0) {
            first = std::move(rows);
            first_fp = fp;
            aq_read = fx->sw.bytesRead(FlashPort::Aquoman) - aq0;
            host_read = fx->sw.bytesRead(FlashPort::Host) - host0;
        } else if (fp != first_fp) {
            std::fprintf(stderr, "perfbench: round %d modelled fields "
                         "differ from round 0\n", round);
            res.consistent = false;
        }
    }
    log.setEnabled(traced);

    if (!traced) {
        std::vector<double> medians;
        for (const auto &ms : per_query_ms)
            medians.push_back(median(ms));
        double laq = 0, laq_max = 0;
        for (const Row &r : first) {
            laq += r.runLAq;
            laq_max = std::max(laq_max, r.runLAq);
        }
        auto &m = res.endToEnd;
        m.push_back({"setup_s", median(setup.seconds), "s"});
        m.push_back({"query_wall_ms_p50", quantile(medians, 0.5), "ms"});
        m.push_back({"query_wall_ms_p90", quantile(medians, 0.9), "ms"});
        m.push_back({"queries_per_s", median(round_qps), "1/s"});
        m.push_back({"peak_rss_mb", peakRssMb(), "MB"});
        // One tenant, no SLO: every row meets it; makespan is the
        // closed loop's summed L-AQUOMAN runtime; the 22-sample p99 is
        // the slowest row (nearest rank).
        m.push_back({"modelled_goodput_qps", first.size() / laq, "1/sim_s"});
        m.push_back({"modelled_interactive_p99_s", laq_max, "sim_s"});
        m.push_back({"modelled_slo_attainment", 1.0, "frac"});
        return res;
    }

    // Traced-only extras, outside the timed phase: compile calibration
    // and the 22 validation queries as one closed batch through the
    // service (the layers tpch22's timed phase does not use).
    {
        Scope root(log, "bench.calibrate");
        AquomanConfig cfg40 = scaledDevice(kTpchSf, 40ll << 30);
        for (int rep = 0; rep < kCompileReps; ++rep)
            for (std::size_t i = 0; i < queries.size(); ++i) {
                Scope s(log, "aquoman.compile", -1, qnums[i]);
                TaskCompiler(fx->catalog, cfg40).compile(queries[i]);
            }
    }
    std::unique_ptr<QueryService> svc;
    {
        Scope root(log, "bench.setup_service");
        svc = makeService(db, {}, log);
    }
    auto batch = [] {
        std::vector<WorkloadEvent> t;
        for (int q : tpch::allQueryNumbers())
            t.push_back(WorkloadEvent{0.0, 0, q, 0});
        return t;
    };
    Replay rp = replayTrace(*svc, gen, batch,
                            outPath(o.workload, ".report.json"), log, chk);
    checkServiceAnswers(*svc, gen, rp, log, chk);
    deviceReplay(db, fx->sw, gen, rp, log, chk);

    WorkCounts work;
    for (const Row &r : first)
        work.add(r.work);
    addCommonLayers(res, log, db, *fx, setup,
                    untraced_wall > 0 ? untraced_cpu / untraced_wall : 0.0);
    addFlashLayers(res, aq_read, host_read, written);
    addDeviceLayers(res, log, "bench.row", "bench.calibrate", "bench.row",
                    work);
    addTemplateLayers(res, log);
    addServiceLayers(res, log, rp, 1, build_s);
    addModelLayers(res, first, first_fp);
    addBenchLayers(res, log, "bench.row",
                   traced_rounds ? traced_wall / traced_rounds : 0.0,
                   untraced_rounds ? untraced_wall / untraced_rounds : 0.0,
                   chk);
    return res;
}

/**
 * service_overload / service_light: replays of one fixed open-loop
 * trace, each through a freshly constructed QueryService.
 */
RunResult
runService(const Options &o, SpanLog &log, Checks &chk)
{
    bool overload = o.workload == "service_overload";
    double rate = overload ? kOverloadQps : kLightQps;
    double horizon = overload ? kOverloadHorizonSec : kLightHorizonSec;
    std::vector<TenantSpec> mix = serviceMix(rate, horizon);

    RunResult res;
    Setup setup;
    tpch::TpchDatabase db;
    std::unique_ptr<QueryService> svc;
    for (int k = 0; k < kSetups; ++k) {
        svc.reset();
        db = tpch::TpchDatabase();
        releaseFreedMemory();
        double w0 = wallNow(), c0 = cpuNow();
        Scope root(log, "bench.setup");
        db = generate(kServiceSf, kServiceDataSeed, log);
        svc = makeService(db, mix, log);
        setup.record(wallNow() - w0, cpuNow() - c0);
    }

    TpchInstanceGenerator gen(o.seed, kServiceSf);
    auto make_trace = [&] {
        return workload::buildTrace(mix, kArrivalSeed, horizon);
    };
    std::string report = outPath(o.workload, ".report.json");

    // Untimed warm-up on the last set-up's service: the first quarter of
    // the trace. Every timed replay then gets a freshly built service.
    bool traced = log.enabled();
    log.setEnabled(false);
    replayTrace(
        *svc, gen,
        [&] {
            std::vector<WorkloadEvent> t = make_trace();
            t.resize(t.size() / 4);
            return t;
        },
        report, log, chk);
    log.setEnabled(traced);

    Replay first;
    std::vector<double> block_ms;
    double untraced_wall = 0, untraced_cpu = 0, traced_wall = 0;
    int untraced_replays = 0, traced_replays = 0;
    std::vector<double> replay_qps;
    for (int r = 0; anotherRound(untraced_wall + traced_wall, r,
                                 traced ? 2 : 1, o.seconds);
         ++r) {
        {
            svc.reset();
            releaseFreedMemory();
            Scope root(log, "bench.setup_service");
            svc = makeService(db, mix, log);
        }
        bool trace_replay = traced && r % 2 == 0;
        log.setEnabled(trace_replay);
        Replay rp = replayTrace(*svc, gen, make_trace, report, log, chk);
        log.setEnabled(traced);
        std::fprintf(stderr,
                     "perfbench: replay %d: %lld submitted, %lld completed, "
                     "%lld shed, %.3f s\n",
                     r, static_cast<long long>(rp.submitted),
                     static_cast<long long>(rp.completed),
                     static_cast<long long>(rp.shed), rp.timedSec);
        checkServiceAnswers(*svc, gen, rp, log, chk);
        if (trace_replay) {
            traced_wall += rp.timedSec;
            ++traced_replays;
        } else {
            untraced_wall += rp.timedSec;
            untraced_cpu += rp.cpuSec;
            ++untraced_replays;
            replay_qps.push_back(static_cast<double>(rp.completed)
                                 / rp.timedSec);
            block_ms.insert(block_ms.end(), rp.blockMsPerQuery.begin(),
                            rp.blockMsPerQuery.end());
        }
        if (r == 0) {
            first = std::move(rp);
        } else if (rp.fingerprint != first.fingerprint) {
            std::fprintf(stderr, "perfbench: replay %d modelled fields "
                         "differ from replay 0\n", r);
            res.consistent = false;
        }
    }

    if (!traced) {
        auto &m = res.endToEnd;
        m.push_back({"setup_s", median(setup.seconds), "s"});
        m.push_back({"query_wall_ms_p50", quantile(block_ms, 0.5), "ms"});
        m.push_back({"query_wall_ms_p90", quantile(block_ms, 0.9), "ms"});
        m.push_back({"queries_per_s", median(replay_qps), "1/s"});
        m.push_back({"peak_rss_mb", peakRssMb(), "MB"});
        m.push_back({"modelled_goodput_qps", first.goodputQps, "1/sim_s"});
        m.push_back({"modelled_interactive_p99_s", first.interactiveP99,
                     "sim_s"});
        m.push_back({"modelled_slo_attainment", first.sloAttainment,
                     "frac"});
        return res;
    }

    // Traced-only extras: the replay's instances through runQuery on a
    // standalone catalog, and the 22 validation queries as Fig. 16 rows
    // at this scale (per-template and model metrics).
    std::unique_ptr<Fixture> fx;
    {
        Scope root(log, "bench.fixture");
        fx = install(db, log);
    }
    deviceReplay(db, fx->sw, gen, first, log, chk);
    std::vector<Row> rows;
    {
        std::vector<Query> queries;
        {
            Scope root(log, "bench.prepare");
            queries = validationQueries(gen, log);
        }
        const std::vector<int> qnums = tpch::allQueryNumbers();
        std::int64_t id = -1;
        for (std::size_t i = 0; i < queries.size(); ++i)
            rows.push_back(runRow(*fx, kServiceSf, queries[i], qnums[i],
                                  id--, log, chk));
    }

    addCommonLayers(res, log, db, *fx, setup,
                    untraced_wall > 0 ? untraced_cpu / untraced_wall : 0.0);
    addFlashLayers(res, first.flashAquomanRead, first.flashHostRead,
                   first.flashWritten);
    addDeviceLayers(res, log, "bench.device_replay", "bench.device_replay",
                    "bench.check", first.work);
    addTemplateLayers(res, log);
    addServiceLayers(
        res, log, first, traced_replays,
        sum(log.durations("workload.build", "bench.replay"))
            / std::max(1, traced_replays));
    addModelLayers(res, rows, first.fingerprint);
    addBenchLayers(res, log, "bench.replay",
                   traced_replays ? traced_wall / traced_replays : 0.0,
                   untraced_replays ? untraced_wall / untraced_replays : 0.0,
                   chk);
    return res;
}

std::string
configStamp(const Options &o, double sf)
{
    std::string s = "{\"workload\":\"" + o.workload
        + "\",\"seed\":" + std::to_string(o.seed)
        + ",\"sf\":" + obs::jsonNumber(sf)
        + ",\"threads\":"
        + std::to_string(ThreadPool::global().parallelism())
        + ",\"build\":\"Release (NDEBUG)\""
        + ",\"aquoman_batch\":" + (batchExecutionEnabled() ? "1" : "0")
        + ",\"aquoman_compress\":" + (compressionEnabled() ? "1" : "0")
        + ",\"seconds\":" + obs::jsonNumber(o.seconds)
        + ",\"trace\":" + (o.trace ? "1" : "0") + "}";
    return s;
}

bool
writeExports(const Options &o, const SpanLog &log, const std::string &stamp)
{
    std::string stem = outPath(o.workload, "", &o.seed);
    std::ofstream trace(stem + ".trace.json");
    log.writeChromeTrace(trace, stamp);
    std::ofstream summary(stem + ".layers.json");
    log.writeSelfTimeSummary(summary, stamp);
    if (trace.good() && summary.good())
        return true;
    std::fprintf(stderr, "perfbench: cannot write %s.*.json\n",
                 stem.c_str());
    return false;
}

} // namespace

int
main(int argc, char **argv)
{
    Options o = parseArgs(argc, argv);
    checkEnvironment();
#ifndef NDEBUG
    badInput("this is not a Release build (NDEBUG is unset), so debug "
             "ledger audits would distort wall time; configure with "
             "-DCMAKE_BUILD_TYPE=Release");
#endif
    if (!std::getenv("AQUOMAN_THREADS"))
        ThreadPool::setGlobalParallelism(std::min(4, availableCpus()));
    std::error_code ec;
    std::filesystem::create_directories(kOutDir, ec);
    if (ec) {
        std::fprintf(stderr, "perfbench: cannot create %s: %s\n", kOutDir,
                     ec.message().c_str());
        return 1;
    }

    bool tpch22 = o.workload == "tpch22";
    std::string stamp = configStamp(o, tpch22 ? kTpchSf : kServiceSf);
    std::printf("config %s\n", stamp.c_str());
    std::fflush(stdout);

    SpanLog log;
    log.setEnabled(o.trace);
    Checks chk;
    chk.corruptNext = o.corrupt;
    RunResult res = tpch22 ? runTpch22(o, log, chk) : runService(o, log, chk);
    if (o.trace && !writeExports(o, log, stamp))
        return 1;

    const std::vector<Metric> &metrics = o.trace ? res.perLayer
                                                 : res.endToEnd;
    bool correct = chk.failed == 0 && res.consistent;
    for (const Metric &mt : metrics) {
        if (!std::isfinite(mt.value)) {
            std::fprintf(stderr, "perfbench: metric %s is not finite\n",
                         mt.name.c_str());
            correct = false;
        }
    }
    std::string json = "{\"correct\": " + std::string(correct ? "true"
                                                              : "false")
        + ", \"attempted\": " + std::to_string(chk.attempted)
        + ", \"failed\": " + std::to_string(chk.failed)
        + ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        const Metric &mt = metrics[i];
        json += (i ? ", \"" : "\"") + mt.name + "\": {\"value\": "
            + obs::jsonNumber(std::isfinite(mt.value) ? mt.value : 0.0)
            + ", \"unit\": \"" + mt.unit + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    return correct ? 0 : 1;
}
