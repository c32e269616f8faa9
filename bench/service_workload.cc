/**
 * @file
 * Open-loop production-traffic bench for the multi-tenant service: a
 * three-tenant mix (latency-sensitive interactive, bursty reporting,
 * heavy batch) generated by the workload subsystem is replayed against
 * a QueryService at offered loads of 1x and 2x the array's measured
 * capacity. Unlike service_throughput's closed-loop clients, arrivals
 * here never wait for completions — overload shows up as queue growth,
 * load shedding, and SLO misses, which is exactly what the bench
 * reports.
 *
 * Phases:
 *   1. Capacity probe: a batch of validation-parameter instances of
 *      every query class in the mix runs closed (all submitted at t=0)
 *      to measure the array's aggregate throughput and per-class
 *      service latency. Offered rates and tenant SLOs are calibrated
 *      from the probe, so the bench self-scales with AQUOMAN_SF.
 *   2. Open-loop runs at 1x and 2x capacity under the DRR multi-tenant
 *      admission policy (per-tenant queues bounded at 64, batch tenant
 *      DRAM-quota-limited).
 *   3. A FIFO baseline replay of the identical 2x trace (single
 *      implicit tenant, shared queue bound of 3*64) — demonstrating
 *      that weighted-fair admission bounds the interactive tenant's
 *      p99 under an adversarial heavy-tenant mix where FIFO lets batch
 *      queries queue ahead of urgent ones.
 *
 * All latencies/makespans are modelled seconds from the service's
 * discrete-event simulation: for a fixed --seed the trace, shed
 * decisions, and every modelled_* JSON field are byte-identical at any
 * AQUOMAN_THREADS.
 *
 * JSON report (--json <path>): one summary record per run keyed by
 * (devices, overload, fifo) and one record per tenant per run keyed by
 * (tenant, overload, fifo), with modelled_* fields gated exactly by
 * `aqreport gate` and wall_seconds gated by geomean. Records carry
 * the wait-state ledger (modelled_wait_<class>_seconds: six exclusive
 * classes whose fixed-order sum is total completed-query latency),
 * contention waiter-seconds, and shed-reason counts.
 *
 * --anatomy <path> exports the full per-query latency anatomy (wait
 * ledger, compressed critical path, blame matrix, per-tenant
 * contention row sums) for `aqreport anatomy`; all modelled, so
 * byte-stable per seed.
 *
 * --check-overload exits non-zero unless the 2x DRR run sheds
 * deterministically within bounds, keeps goodput above a quarter of
 * capacity, drives >= 1000 distinct instances, and beats the FIFO
 * baseline's interactive p99.
 *
 * --slo-report <path> writes the SLO engine's windowed timeline for
 * every run: {"window_seconds", "seed", "runs": [{"label", "overload",
 * "fifo", "alerts", "slo": <engine JSON>}]} where <engine JSON> carries
 * per-tenant totals, sparse per-window rollups (counts, latency
 * quantiles, burn rate, cumulative budget consumption), and the
 * burn-rate alert firings. Purely modelled, so byte-identical across
 * AQUOMAN_THREADS for a fixed --seed (`aqreport slo` pretty-prints
 * it, `aqreport diff` diffs it).
 *
 * --check-slo exits non-zero unless the 2x DRR run fires burn-rate
 * alerts (and 1x fires no more than 2x), the engine's totals agree
 * with the bench's own per-tenant accounting, and — rerunning the 2x
 * DRR trace with tracing on — tail sampling (1-in-10 healthy) shrinks
 * the trace to <= 25% of the unsampled bytes while retaining spans for
 * 100% of SLO-violating / shed / suspended queries and zero spans for
 * sampled-out ones.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "obs/trace.hh"
#include "service/query_service.hh"
#include "workload/tenant_mix.hh"
#include "workload/tpch_params.hh"

using namespace aquoman;
using namespace aquoman::bench;
using namespace aquoman::service;
using namespace aquoman::workload;

namespace {

constexpr int kDevices = 4;
constexpr int kAdmissionLimit = 8;
constexpr int kMaxQueuedPerTenant = 64;
/// Arrivals wanted in the 2x trace (>= 1000 distinct instances).
constexpr double kTraceTarget = 1100.0;

/** The three-tenant mix; rates filled in per run from the probe. */
std::vector<TenantSpec>
makeMix()
{
    std::vector<TenantSpec> mix(3);

    TenantSpec &interactive = mix[0];
    interactive.name = "interactive";
    interactive.priority = 0;
    interactive.weight = 2.0;
    interactive.arrivals.process = ArrivalProcess::Poisson;
    interactive.classes = {{6, 2.0}, {14, 1.0}};

    TenantSpec &reporting = mix[1];
    reporting.name = "reporting";
    reporting.priority = 1;
    reporting.weight = 2.0;
    reporting.arrivals.process = ArrivalProcess::OnOff;
    reporting.arrivals.meanOnSec = 2.0;
    reporting.arrivals.meanOffSec = 6.0;
    reporting.classes = {{12, 1.0}, {4, 1.0}, {3, 1.0}};

    // Adversarial heavy tenant: largest share of the offered load, all
    // of it expensive scans/joins, same priority class as reporting.
    TenantSpec &batch = mix[2];
    batch.name = "batch";
    batch.priority = 1;
    batch.weight = 1.0;
    batch.arrivals.process = ArrivalProcess::Diurnal;
    batch.arrivals.diurnalProfile = {0.4, 1.6, 1.6, 0.4};
    batch.classes = {{1, 1.0}, {13, 1.0}, {19, 1.0}};

    return mix;
}

struct Probe
{
    double capacityQps = 0.0;             ///< completed / makespan
    std::map<int, double> classServiceSec; ///< query -> mean svc time
};

/**
 * Closed capacity probe: three validation instances of every class in
 * @p mix submitted at t=0 through the FIFO policy. Service time is
 * latency minus queue wait, so batch queueing in the probe does not
 * inflate the SLO calibration.
 */
Probe
probeCapacity(const tpch::TpchDatabase &db,
              const TpchInstanceGenerator &gen,
              const std::vector<TenantSpec> &mix)
{
    ServiceConfig cfg;
    cfg.numDevices = kDevices;
    cfg.admissionLimit = kAdmissionLimit;
    cfg.traceLabel = "probe";
    QueryService svc(cfg);
    for (const auto &t : {db.region, db.nation, db.supplier, db.customer,
                          db.part, db.partsupp, db.orders, db.lineitem})
        svc.addTable(t);
    db.registerMetadata(svc.catalog());

    std::vector<int> classes;
    for (const TenantSpec &t : mix)
        for (const QueryClassWeight &c : t.classes)
            classes.push_back(c.queryNumber);

    std::map<QueryId, int> queryOf;
    for (int rep = 0; rep < 3; ++rep)
        for (int q : classes)
            queryOf[svc.submit(gen.build(gen.instance(q, 0)))] = q;
    svc.drain();

    Probe probe;
    ServiceStats stats = svc.aggregate();
    probe.capacityQps = stats.throughputQps;
    std::map<int, double> sum;
    std::map<int, int> n;
    for (const auto &[id, q] : queryOf) {
        const QueryRecord &rec = svc.record(id);
        sum[q] += rec.latencySec() - rec.queueWaitSec;
        ++n[q];
    }
    for (const auto &[q, s] : sum)
        probe.classServiceSec[q] = s / n[q];
    return probe;
}

/** Mean probe service time of @p t's classes, weighted by class mix. */
double
tenantServiceSec(const TenantSpec &t, const Probe &probe)
{
    double sum = 0.0, wsum = 0.0;
    for (const QueryClassWeight &c : t.classes) {
        sum += probe.classServiceSec.at(c.queryNumber) * c.weight;
        wsum += c.weight;
    }
    return wsum > 0.0 ? sum / wsum : 0.0;
}

/** Per-tenant slice of one run, computed identically for both
 *  policies (externally for FIFO, whose service sees one tenant). */
struct TenantOut
{
    std::string name;
    std::int64_t submitted = 0;
    std::int64_t completed = 0;
    std::int64_t shed = 0;
    std::int64_t withinSlo = 0;
    double p50 = 0.0, p90 = 0.0, p99 = 0.0;
    double meanQueueWaitSec = 0.0;
    double shedRate = 0.0;
    double goodputQps = 0.0;

    /** Summed wait ledgers of the tenant's completed queries. */
    obs::WaitLedger wait;

    /** Summed per-query contention waiter-seconds. */
    double contentionWaitSec = 0.0;
};

/** Per-query latency anatomy, captured before the run's service is
 *  torn down, for the --anatomy export. */
struct QueryAnatomyOut
{
    QueryId id = -1;
    std::string name;
    int tenant = 0; ///< service-side tenant index
    double submitSec = 0.0;
    double doneSec = 0.0;
    bool shed = false;
    obs::WaitLedger wait;
    double contentionSec = 0.0;
    std::vector<obs::WaitSegment> path; ///< compressed critical path
};

struct RunOut
{
    std::string label;
    double overload = 1.0;
    bool fifo = false;
    std::size_t instances = 0; ///< distinct generated instances offered
    ServiceStats stats;
    std::vector<TenantOut> tenants;
    double goodputQps = 0.0; ///< sum of tenant goodputs
    double wallSeconds = 0.0;

    std::string sloJson;        ///< SLO engine timeline (modelled)
    std::size_t sloAlerts = 0;  ///< burn-rate alert firings

    /// Engine per-tenant totals by mix index (DRR runs only; the FIFO
    /// service sees a single implicit tenant).
    std::vector<obs::SloEngine::TenantTotals> engineTotals;

    /// Trace-audit slices for the tail-sampling check: queries whose
    /// spans MUST survive sampling (SLO-violated / shed / suspended)
    /// and queries sampled out (traceKept == false).
    std::vector<QueryId> mustKeepIds;
    std::vector<QueryId> sampledOutIds;

    /// Per-query anatomy for --anatomy (service-side tenant indices).
    std::vector<QueryAnatomyOut> anatomy;
};

/**
 * Replay @p trace open-loop. With @p fifo the service gets no tenant
 * table (the pre-multi-tenant single shared FIFO queue, bounded at
 * mix-size * kMaxQueuedPerTenant for equal total queue capacity) and
 * per-tenant stats are reconstructed from the submission map.
 */
RunOut
runTrace(const tpch::TpchDatabase &db, const TpchInstanceGenerator &gen,
         const std::vector<TenantSpec> &mix,
         const std::vector<WorkloadEvent> &trace, double overload,
         bool fifo, double slo_window_sec = 0.0, int trace_sample_n = 0)
{
    WallTimer timer;
    ServiceConfig cfg;
    cfg.numDevices = kDevices;
    cfg.admissionLimit = kAdmissionLimit;
    cfg.traceLabel = (fifo ? "fifo" : "drr")
        + std::to_string(static_cast<int>(overload * 10));
    if (slo_window_sec > 0.0)
        cfg.slo.windowSec = slo_window_sec;
    cfg.traceSampleEveryN = trace_sample_n;
    if (fifo) {
        cfg.maxQueuedPerTenant =
            kMaxQueuedPerTenant * static_cast<int>(mix.size());
    } else {
        cfg.maxQueuedPerTenant = kMaxQueuedPerTenant;
        for (const TenantSpec &t : mix) {
            TenantConfig tc;
            tc.name = t.name;
            tc.priority = t.priority;
            tc.weight = t.weight;
            tc.dramQuotaBytes = t.dramQuotaBytes;
            tc.sloSec = t.sloSec;
            cfg.tenants.push_back(tc);
        }
    }
    QueryService svc(cfg);
    for (const auto &t : {db.region, db.nation, db.supplier, db.customer,
                          db.part, db.partsupp, db.orders, db.lineitem})
        svc.addTable(t);
    db.registerMetadata(svc.catalog());

    std::vector<int> tenantOf; // by QueryId (ids are dense from 0)
    for (const WorkloadEvent &ev : trace) {
        Query q = gen.build(gen.instance(ev.queryNumber, ev.instance));
        QueryId id =
            svc.submit(q, ev.atSec, fifo ? 0 : ev.tenant);
        if (static_cast<std::size_t>(id) != tenantOf.size())
            std::abort(); // dense-id assumption of the tenant map
        tenantOf.push_back(ev.tenant);
    }
    svc.drain();

    RunOut out;
    out.label = (fifo ? "fifo-" : "drr-")
        + std::to_string(static_cast<int>(overload)) + "x";
    out.overload = overload;
    out.fifo = fifo;
    out.instances = trace.size();
    out.stats = svc.aggregate();
    out.sloJson = svc.sloEngine().jsonString();
    out.sloAlerts = svc.sloEngine().alerts().size();
    if (!fifo)
        for (const TenantSpec &t : mix)
            out.engineTotals.push_back(svc.sloEngine().totals(t.name));

    // Per-tenant stats from the records, tenant-attributed via the
    // submission map so the FIFO run (whose service sees one tenant)
    // is sliced identically to the DRR run.
    out.tenants.resize(mix.size());
    std::vector<std::vector<double>> lat(mix.size());
    for (QueryId id = 0;
         id < static_cast<QueryId>(svc.numQueries()); ++id) {
        const QueryRecord &rec = svc.record(id);
        TenantOut &t = out.tenants[tenantOf[id]];
        ++t.submitted;
        QueryAnatomyOut qa;
        qa.id = id;
        qa.name = rec.name;
        qa.tenant = rec.tenant;
        qa.submitSec = rec.submitSec;
        qa.doneSec = rec.doneSec;
        qa.shed = rec.shed;
        qa.wait = rec.waitLedger;
        qa.contentionSec = rec.contentionWaitSec;
        qa.path = obs::criticalPath(
            rec.waitSegments,
            rec.profile.root.children.empty() ? nullptr : &rec.profile);
        out.anatomy.push_back(std::move(qa));
        if (rec.sloViolated || rec.shed || rec.suspendCount > 0)
            out.mustKeepIds.push_back(id);
        else if (!rec.traceKept)
            out.sampledOutIds.push_back(id);
        if (rec.shed) {
            ++t.shed;
            continue;
        }
        ++t.completed;
        double l = rec.latencySec();
        lat[tenantOf[id]].push_back(l);
        t.meanQueueWaitSec += rec.queueWaitSec;
        t.wait += rec.waitLedger;
        t.contentionWaitSec += rec.contentionWaitSec;
        if (mix[tenantOf[id]].sloSec <= 0.0
            || l <= mix[tenantOf[id]].sloSec)
            ++t.withinSlo;
    }
    for (std::size_t ti = 0; ti < mix.size(); ++ti) {
        TenantOut &t = out.tenants[ti];
        t.name = mix[ti].name;
        std::sort(lat[ti].begin(), lat[ti].end());
        t.p50 = obs::percentile(lat[ti], 0.50);
        t.p90 = obs::percentile(lat[ti], 0.90);
        t.p99 = obs::percentile(lat[ti], 0.99);
        if (t.completed > 0)
            t.meanQueueWaitSec /= static_cast<double>(t.completed);
        if (t.submitted > 0)
            t.shedRate = static_cast<double>(t.shed)
                / static_cast<double>(t.submitted);
        t.goodputQps = out.stats.makespanSec > 0.0
            ? static_cast<double>(t.withinSlo) / out.stats.makespanSec
            : 0.0;
        out.goodputQps += t.goodputQps;
    }
    out.wallSeconds = timer.seconds();
    return out;
}

struct SampleCheck
{
    std::size_t unsampledBytes = 0;
    std::size_t sampledBytes = 0;
    std::size_t droppedEvents = 0;
    std::int64_t mustKeep = 0;        ///< violated / shed / suspended
    std::int64_t mustKeepCovered = 0; ///< ... with spans in the trace
    std::int64_t sampledOutWithSpans = 0; ///< should be zero
};

/**
 * Tail-sampling efficacy check: replays @p trace twice with the global
 * tracer programmatically enabled — once unsampled, once with 1-in-10
 * healthy-query sampling — and measures the exported byte ratio plus
 * span coverage by sampling group (TraceEvent::group is the QueryId).
 *
 * The replay overrides each tenant's SLO target with @p tail_slo_sec
 * (the 2x run's observed per-tenant p99), so "violating" means a
 * genuine tail outlier. Tail sampling's premise is that interesting
 * queries are rare; under the bench's deliberately tight production
 * SLOs more than half of all 2x completions violate, and a sampler
 * required to retain 100% of them could never shrink the trace. The
 * tight-SLO runs above exercise alerting; this one measures sampling.
 *
 * Clears the tracer on entry and exit.
 */
SampleCheck
runSampleCheck(const tpch::TpchDatabase &db,
               const TpchInstanceGenerator &gen,
               const std::vector<TenantSpec> &mix,
               const std::vector<double> &tail_slo_sec,
               const std::vector<WorkloadEvent> &trace, double overload,
               double slo_window_sec)
{
    std::vector<TenantSpec> tmix = mix;
    for (std::size_t i = 0; i < tmix.size(); ++i)
        tmix[i].sloSec = tail_slo_sec[i];

    obs::SimTracer &tracer = obs::SimTracer::global();
    bool was_enabled = tracer.enabled();

    SampleCheck out;
    tracer.clear();
    tracer.enable();
    runTrace(db, gen, tmix, trace, overload, false, slo_window_sec,
             /*trace_sample_n=*/0);
    out.unsampledBytes = obs::jsonString(tracer).size();

    tracer.clear();
    RunOut sampled = runTrace(db, gen, tmix, trace, overload, false,
                              slo_window_sec, /*trace_sample_n=*/10);
    out.sampledBytes = obs::jsonString(tracer).size();
    out.droppedEvents = tracer.droppedEvents();

    std::set<std::int64_t> groups;
    for (const obs::TraceEvent &ev : tracer.events())
        if (ev.group >= 0)
            groups.insert(ev.group);
    out.mustKeep = static_cast<std::int64_t>(sampled.mustKeepIds.size());
    for (QueryId id : sampled.mustKeepIds)
        if (groups.count(id))
            ++out.mustKeepCovered;
    for (QueryId id : sampled.sampledOutIds)
        if (groups.count(id))
            ++out.sampledOutWithSpans;

    tracer.clear();
    if (!was_enabled)
        tracer.disable();
    return out;
}

/** Write the --slo-report JSON: all-modelled, byte-stable per seed. */
bool
writeSloReport(const std::string &path, double window_sec,
               std::uint64_t seed, const std::vector<RunOut> &runs)
{
    return obs::writeJsonFile(path, [&](obs::JsonWriter &w) {
        w.beginObject().key("window_seconds").number(window_sec);
        w.key("seed").integer(seed).key("runs").beginArray();
        for (const RunOut &r : runs) {
            w.beginObject().key("label").string(r.label);
            w.key("overload").number(r.overload).key("fifo").integer(r.fifo);
            w.key("alerts").integer(r.sloAlerts).key("slo").raw(r.sloJson);
            w.endObject();
        }
        w.endArray().endObject();
    });
}

/**
 * Write the --anatomy JSON: per run the tenant names, aggregate wait
 * ledger, blame matrix, per-tenant contention row sums, and for every
 * offered query its wait ledger, contention waiter-seconds, and
 * compressed critical path. `aqreport anatomy` consumes (and
 * re-validates) this file.
 */
bool
writeAnatomyReport(const std::string &path, std::uint64_t seed,
                   const std::vector<RunOut> &runs)
{
    return obs::writeJsonFile(path, [&](obs::JsonWriter &w) {
        w.beginObject().key("seed").integer(seed).key("runs").beginArray();
        for (const RunOut &r : runs) {
            std::vector<std::string> names;
            for (const TenantStats &t : r.stats.tenants)
                names.push_back(t.name);
            w.beginObject().key("label").string(r.label);
            w.key("overload").number(r.overload).key("fifo").integer(r.fifo);
            w.key("wait_totals");
            r.stats.waitLedger.toJson(w);
            w.key("blame");
            r.stats.blame.toJson(w, names);
            w.key("tenant_contention_seconds").beginArray();
            for (const TenantStats &t : r.stats.tenants)
                w.number(t.contentionWaitSec);
            w.endArray().key("queries").beginArray();
            for (const QueryAnatomyOut &qa : r.anatomy) {
                w.beginObject().key("id").integer(qa.id);
                w.key("name").string(qa.name).key("tenant").integer(qa.tenant);
                w.key("submit_seconds").number(qa.submitSec);
                w.key("done_seconds").number(qa.doneSec);
                w.key("shed").integer(qa.shed).key("wait");
                qa.wait.toJson(w);
                w.key("contention_seconds").number(qa.contentionSec);
                w.key("path").beginArray();
                for (const obs::WaitSegment &seg : qa.path) {
                    w.beginObject();
                    w.key("class").string(obs::waitClassName(seg.cls));
                    w.key("start_seconds").number(seg.startSec);
                    w.key("end_seconds").number(seg.endSec);
                    w.key("device").integer(seg.device);
                    w.key("detail").string(seg.detail).endObject();
                }
                w.endArray().endObject();
            }
            w.endArray().endObject();
        }
        w.endArray().endObject();
    });
}

} // namespace

int
main(int argc, char **argv)
{
    obs::Args args = obs::parseArgs(
        argc, argv, 1, {"--json", "--slo-report", "--anatomy", "--seed"},
        {"--check-overload", "--check-slo"}, 0);
    std::uint64_t seed = args.integer("--seed", 1);
    exitOnArgError(args, argv[0]);
    std::string json_path = args.value("--json");
    std::string slo_path = args.value("--slo-report");
    std::string anatomy_path = args.value("--anatomy");
    bool check_overload = args.has("--check-overload");
    bool check_slo = args.has("--check-slo");
    double sf = env::scaleFactor();
    header("Service workload: open-loop 3-tenant traffic at 1x / 2x "
           "capacity (SF " + std::to_string(sf) + ", seed "
           + std::to_string(seed) + ")");

    tpch::TpchDatabase db =
        tpch::TpchDatabase::generate(tpch::TpchConfig{sf, 19920101});
    TpchInstanceGenerator gen(seed, sf);
    std::vector<TenantSpec> mix = makeMix();

    Probe probe = probeCapacity(db, gen, mix);
    std::printf("capacity probe: %.2f qps aggregate\n",
                probe.capacityQps);
    for (const auto &[q, s] : probe.classServiceSec)
        std::printf("  q%02d mean service %.4f s\n", q, s);

    // Calibrate SLOs (multiples of each tenant's mean service time)
    // and the batch tenant's DRAM quota (two concurrent reservations).
    const double kSloSlack[] = {4.0, 6.0, 8.0};
    for (std::size_t i = 0; i < mix.size(); ++i)
        mix[i].sloSec = kSloSlack[i] * tenantServiceSec(mix[i], probe);
    {
        ServiceConfig quota_ref;
        quota_ref.admissionLimit = kAdmissionLimit;
        mix[2].dramQuotaBytes = 2 * quota_ref.resolvedQueryDramBytes();
    }

    // Offered-load split: batch is the heavy hitter.
    const double kShare[] = {0.3, 0.3, 0.4};
    // Horizon sized so the 2x trace carries >= kTraceTarget arrivals.
    double horizon = kTraceTarget / (2.0 * probe.capacityQps);
    // SLO rollup window: 24 windows across the horizon, so the default
    // burn-rate ladder's longest (24-window ticket) rule spans the run.
    double slo_window = horizon / 24.0;

    std::vector<RunOut> runs;
    std::vector<WorkloadEvent> trace2x;
    for (double overload : {1.0, 2.0}) {
        for (std::size_t i = 0; i < mix.size(); ++i)
            mix[i].arrivals.rateQps =
                overload * probe.capacityQps * kShare[i];
        std::vector<WorkloadEvent> trace =
            buildTrace(mix, seed, horizon);
        runs.push_back(
            runTrace(db, gen, mix, trace, overload, false, slo_window));
        if (overload == 2.0) {
            runs.push_back(
                runTrace(db, gen, mix, trace, overload, true,
                         slo_window));
            trace2x = trace;
        }
    }

    std::printf("\n%-10s %-12s %9s %9s %6s %9s %9s %9s %8s %8s\n",
                "run", "tenant", "submit", "complete", "shed",
                "p50 s", "p99 s", "wait s", "shed%", "good qps");
    for (const RunOut &r : runs) {
        std::string run_label = (r.fifo ? "fifo-" : "drr-")
            + std::to_string(r.overload).substr(0, 3) + "x";
        for (const TenantOut &t : r.tenants)
            std::printf("%-10s %-12s %9lld %9lld %6lld %9.4f %9.4f "
                        "%9.4f %8.2f %8.2f\n",
                        run_label.c_str(), t.name.c_str(),
                        static_cast<long long>(t.submitted),
                        static_cast<long long>(t.completed),
                        static_cast<long long>(t.shed), t.p50, t.p99,
                        t.meanQueueWaitSec, 100.0 * t.shedRate,
                        t.goodputQps);
        std::printf("%-10s %-12s %9zu %9lld %6lld %9s %9s %9s %8.2f "
                    "%8.2f\n",
                    run_label.c_str(), "TOTAL", r.instances,
                    static_cast<long long>(r.stats.completed),
                    static_cast<long long>(r.stats.shedTotal), "-",
                    "-", "-", 100.0 * r.stats.shedRate, r.goodputQps);
    }

    const RunOut &drr2 = runs[1];
    const RunOut &fifo2 = runs[2];
    std::printf("\ninteractive p99 at 2x: DRR %.4f s vs FIFO %.4f s "
                "(%.2fx better)\n",
                drr2.tenants[0].p99, fifo2.tenants[0].p99,
                drr2.tenants[0].p99 > 0.0
                    ? fifo2.tenants[0].p99 / drr2.tenants[0].p99
                    : 0.0);
    std::printf("goodput at 2x: DRR %.2f qps, FIFO %.2f qps "
                "(capacity %.2f)\n",
                drr2.goodputQps, fifo2.goodputQps, probe.capacityQps);
    for (const RunOut &r : runs)
        std::printf("slo: %-8s window %.3fs, %zu burn-rate alert(s)\n",
                    r.label.c_str(), slo_window, r.sloAlerts);

    for (const RunOut &r : runs) {
        if (r.fifo)
            continue; // the FIFO service sees one implicit tenant
        std::vector<std::string> names;
        for (const TenantStats &t : r.stats.tenants)
            names.push_back(t.name);
        std::printf("\nblame matrix (%s, contention waiter-seconds):\n",
                    r.label.c_str());
        std::ostringstream os;
        r.stats.blame.renderText(os, names);
        std::fputs(os.str().c_str(), stdout);
    }

    if (!json_path.empty()) {
        auto records = [&](obs::JsonWriter &w) {
            auto num = [&w](const std::string &k, double v) {
                w.key(k).number(v);
            };
            auto waits = [&](const obs::WaitLedger &ledger) {
                for (int wc = 0; wc < obs::kNumWaitClasses; ++wc)
                    num(std::string("modelled_wait_")
                            + obs::waitClassName(
                                static_cast<obs::WaitClass>(wc))
                            + "_seconds",
                        ledger.sec[wc]);
            };
            for (const RunOut &r : runs) {
                auto shedCount = [&r](const char *reason) {
                    auto it = r.stats.shedReasonCounts.find(reason);
                    return it == r.stats.shedReasonCounts.end()
                        ? 0 : it->second;
                };
                w.beginObject();
                num("devices", kDevices);
                num("overload", r.overload);
                num("fifo", r.fifo ? 1 : 0);
                num("seed", seed);
                num("instances", r.instances);
                num("queries_completed", r.stats.completed);
                num("modelled_makespan_seconds", r.stats.makespanSec);
                num("modelled_shed_total", r.stats.shedTotal);
                num("modelled_shed_rate", r.stats.shedRate);
                num("modelled_goodput_qps", r.goodputQps);
                num("modelled_throughput_qps", r.stats.throughputQps);
                num("modelled_p99_latency_seconds", r.stats.p99LatencySec);
                num("modelled_slo_alerts", r.sloAlerts);
                waits(r.stats.waitLedger);
                num("modelled_contention_wait_seconds",
                    r.stats.contentionWaitSec);
                num("modelled_shed_queue_full", shedCount("queue_full"));
                num("modelled_shed_quota_below_reservation",
                    shedCount("quota_below_reservation"));
                num("wall_seconds", r.wallSeconds);
                w.key("query_latency_histogram");
                r.stats.latencyHistogram.toJson(w);
                w.endObject();
                for (std::size_t ti = 0; ti < r.tenants.size(); ++ti) {
                    const TenantOut &t = r.tenants[ti];
                    w.beginObject();
                    num("tenant", ti);
                    num("overload", r.overload);
                    num("fifo", r.fifo ? 1 : 0);
                    num("submitted", t.submitted);
                    num("completed", t.completed);
                    num("modelled_shed", t.shed);
                    num("modelled_shed_rate", t.shedRate);
                    num("modelled_p50_latency_seconds", t.p50);
                    num("modelled_p90_latency_seconds", t.p90);
                    num("modelled_p99_latency_seconds", t.p99);
                    num("modelled_mean_queue_wait_seconds",
                        t.meanQueueWaitSec);
                    waits(t.wait);
                    num("modelled_contention_wait_seconds",
                        t.contentionWaitSec);
                    num("modelled_within_slo", t.withinSlo);
                    num("modelled_slo_violations", t.completed - t.withinSlo);
                    num("modelled_goodput_qps", t.goodputQps);
                    w.endObject();
                }
            }
        };
        if (!writeJsonReport(
                json_path, records,
                {{"query_latency_seconds", drr2.stats.latencyHistogram},
                 {"queue_wait_seconds", drr2.stats.queueWaitHistogram}}))
            return 1;
        std::printf("wrote %s\n", json_path.c_str());
    }

    if (!slo_path.empty()) {
        if (!writeSloReport(slo_path, slo_window, seed, runs))
            return 1;
        std::printf("wrote %s\n", slo_path.c_str());
    }

    if (!anatomy_path.empty()) {
        if (!writeAnatomyReport(anatomy_path, seed, runs))
            return 1;
        std::printf("wrote %s\n", anatomy_path.c_str());
    }

    if (check_overload) {
        int failures = 0;
        auto expect = [&](bool ok, const char *what) {
            if (!ok) {
                std::fprintf(stderr, "CHECK FAIL: %s\n", what);
                ++failures;
            }
        };
        expect(drr2.instances >= 1000,
               "2x trace must offer >= 1000 distinct instances");
        expect(drr2.stats.shedTotal > 0,
               "2x overload must shed deterministically");
        expect(drr2.stats.shedRate <= 0.9,
               "2x shed rate must stay <= 0.9");
        expect(drr2.goodputQps >= 0.25 * probe.capacityQps,
               "2x goodput must stay >= 25% of capacity");
        expect(drr2.tenants[0].p99 <= fifo2.tenants[0].p99,
               "DRR must bound interactive p99 vs FIFO at 2x");
        if (failures > 0)
            return 1;
        std::printf("overload checks passed\n");
    }

    if (check_slo) {
        int failures = 0;
        auto expect = [&](bool ok, const char *what) {
            if (!ok) {
                std::fprintf(stderr, "SLO CHECK FAIL: %s\n", what);
                ++failures;
            }
        };
        const RunOut &drr1 = runs[0];
        expect(drr2.sloAlerts >= 1,
               "2x overload must fire at least one burn-rate alert");
        expect(drr1.sloAlerts <= drr2.sloAlerts,
               "1x must fire no more alerts than 2x");
        // The engine's windowed rollups must reproduce the bench's own
        // per-record accounting exactly (both count the same modelled
        // events, through independent code paths).
        for (const RunOut *r : {&drr1, &drr2}) {
            for (std::size_t ti = 0; ti < r->tenants.size(); ++ti) {
                const TenantOut &t = r->tenants[ti];
                const auto &e = r->engineTotals[ti];
                expect(t.completed + t.shed == t.submitted,
                       "tenant accounting: completed + shed == "
                       "submitted");
                expect(e.completed == t.completed,
                       "engine completed must match bench completed");
                expect(e.shed == t.shed,
                       "engine shed must match bench shed");
                expect(e.violations == t.completed - t.withinSlo,
                       "engine violations must match completed - "
                       "withinSlo");
            }
        }

        std::printf("tail-sampling check: replaying 2x trace with "
                    "tracing on...\n");
        std::vector<double> tail_slo;
        for (const TenantOut &t : drr2.tenants)
            tail_slo.push_back(t.p99);
        SampleCheck sc = runSampleCheck(db, gen, mix, tail_slo,
                                        trace2x, 2.0, slo_window);
        std::printf("  unsampled trace %zu bytes, sampled %zu bytes "
                    "(%.1f%%), %zu events dropped\n",
                    sc.unsampledBytes, sc.sampledBytes,
                    sc.unsampledBytes > 0
                        ? 100.0 * static_cast<double>(sc.sampledBytes)
                            / static_cast<double>(sc.unsampledBytes)
                        : 0.0,
                    sc.droppedEvents);
        std::printf("  must-keep queries %lld, covered %lld; "
                    "sampled-out with spans %lld\n",
                    static_cast<long long>(sc.mustKeep),
                    static_cast<long long>(sc.mustKeepCovered),
                    static_cast<long long>(sc.sampledOutWithSpans));
        expect(sc.unsampledBytes > 0,
               "unsampled trace must be non-empty");
        expect(sc.sampledBytes * 4 <= sc.unsampledBytes,
               "sampled trace must be <= 25% of unsampled bytes");
        expect(sc.droppedEvents > 0,
               "sampling must drop events at 2x overload");
        expect(sc.mustKeep > 0,
               "2x overload must produce must-keep queries");
        expect(sc.mustKeepCovered == sc.mustKeep,
               "all SLO-violating/shed/suspended queries must retain "
               "spans");
        expect(sc.sampledOutWithSpans == 0,
               "sampled-out queries must leave zero spans");
        if (failures > 0)
            return 1;
        std::printf("slo checks passed\n");
    }
    return 0;
}
