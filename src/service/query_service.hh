/**
 * @file
 * Multi-query AQUOMAN service layer. A QueryService owns an array of M
 * simulated SSDs (each a FlashDevice behind its own ControllerSwitch)
 * with tables row-striped across them by the sharded store, and runs
 * K-at-a-time admission control plus a Table-Task scheduler that
 * interleaves the tasks of in-flight queries across the array — one
 * task in flight per device, round-robin across queries, exactly the
 * one-Table-Task-at-a-time regime the paper's device executes.
 *
 * Query lifecycle: Queued -> Running -> [Suspended ->] HostFinish ->
 * Done. Admission reserves the query's intermediate-DRAM budget on its
 * anchor device through DeviceMemoryManager; a failed reservation (or a
 * mid-plan suspension raised by the device executor, Sec. VI-E) ships
 * the remaining work to the host model, whose storage reads are priced
 * at the controller switch's contention-adjusted host-port bandwidth.
 *
 * Determinism contract (DESIGN.md §9): scheduling runs as a serial
 * discrete-event simulation in modelled time with (time, sequence)
 * event ordering, and every per-query decision depends only on
 * admission order — never on wall-clock or thread count. Queued
 * queries' functional device runs are made ahead on the thread pool
 * and joined at admission. For a fixed schedule seed, all results,
 * metrics, ledgers and modelled times are bit-identical for every
 * AQUOMAN_THREADS value.
 */

#ifndef AQUOMAN_SERVICE_QUERY_SERVICE_HH
#define AQUOMAN_SERVICE_QUERY_SERVICE_HH

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "aquoman/config.hh"
#include "aquoman/device.hh"
#include "columnstore/catalog.hh"
#include "engine/host_model.hh"
#include "engine/metrics.hh"
#include "flash/controller_switch.hh"
#include "obs/latency_anatomy.hh"
#include "obs/metrics.hh"
#include "obs/profile.hh"
#include "obs/slo.hh"
#include "relalg/plan.hh"

namespace aquoman::service {

using QueryId = std::int64_t;

/** Lifecycle states of a service query. */
enum class QueryState
{
    Queued,     ///< submitted, waiting for an admission slot
    Running,    ///< Table Tasks scheduled across the SSD array
    Suspended,  ///< shipped to the host (DRAM pressure / unsupported op)
    HostFinish, ///< host executing residual stages / receiving results
    Done,       ///< result delivered
    Shed,       ///< dropped by admission control (terminal, no result)
};

const char *queryStateName(QueryState s);

/** One structured lifecycle transition (modelled time). */
struct LifecycleEvent
{
    QueryState state = QueryState::Queued;
    double atSec = 0.0;
};

/**
 * One tenant of the service. The admission scheduler serves tenants by
 * strict priority class (lower number first) and, within a class, by
 * deficit round-robin weighted by @c weight — so a heavy tenant cannot
 * starve a light one in the same class, and a backlogged low-priority
 * tenant cannot delay an urgent one.
 */
struct TenantConfig
{
    std::string name = "default";

    /** Priority class; lower is served strictly first. */
    int priority = 1;

    /** Fair-share weight within the priority class (DRR quantum). */
    double weight = 1.0;

    /**
     * Device-DRAM bytes this tenant may hold across concurrently
     * admitted queries (0 = unlimited). A tenant at its quota stays
     * queued — skipped by the scheduler, not shed — until one of its
     * queries frees its reservation. A quota smaller than one query's
     * reservation sheds every arrival immediately.
     */
    std::int64_t dramQuotaBytes = 0;

    /** Latency SLO (modelled seconds, 0 = none); queries finishing
     *  within it count toward the tenant's goodput. */
    double sloSec = 0.0;
};

/** Static configuration of a QueryService instance. */
struct ServiceConfig
{
    /** SSDs in the array (tables are row-striped across all of them). */
    int numDevices = 4;

    /** Maximum concurrently admitted queries (K). */
    int admissionLimit = 8;

    /**
     * Schedule seed: rotates the anchor-device assignment. Any fixed
     * seed yields a fully deterministic schedule.
     */
    std::uint64_t scheduleSeed = 0;

    /** Per-device AQUOMAN pipeline configuration. */
    AquomanConfig device;

    /** Per-SSD flash configuration (name becomes "<name><i>"). */
    FlashConfig flash;

    /** Host completing suspended queries and residual stages. */
    HostConfig host = HostConfig::large();

    /**
     * Device-DRAM bytes reserved per admitted query for intermediates.
     * 0 means device.dramBytes / admissionLimit, so a full admission
     * window always fits. Reservation failure on the anchor device
     * suspends the query to the host at admission. Resolved once at
     * service construction — later mutation of admissionLimit on a
     * copied config cannot skew the quota of a live service.
     */
    std::int64_t queryDramBytes = 0;

    /**
     * Tenants sharing the service. Empty means one implicit
     * unlimited-quota tenant, which makes admission exact FIFO — the
     * pre-multi-tenant behavior, byte-for-byte.
     */
    std::vector<TenantConfig> tenants;

    /**
     * Bound on each tenant's admission queue (0 = unbounded). An
     * arrival that finds its tenant's queue full is shed: dropped
     * deterministically at its modelled arrival time, recorded with
     * QueryState::Shed, never executed.
     */
    int maxQueuedPerTenant = 0;

    /**
     * Prefix for this service's simulation-trace track names (useful
     * when one process runs several services against one tracer).
     * Empty uses the bare device / "queries" / "host-model" names.
     */
    std::string traceLabel;

    /**
     * SLO engine configuration. When `slo.objectives` is empty, one
     * objective per tenant with sloSec > 0 is derived automatically
     * (target = sloSec, attainment = slo.defaultAttainment), so the
     * engine tracks exactly the SLOs admission already reports on.
     */
    obs::SloConfig slo;

    /**
     * Tail-based trace sampling: 0 (default) keeps every query's
     * spans; N > 0 keeps full span trees only for queries that
     * violated their SLO, were shed, or suspended, plus the
     * deterministic 1-in-N sample of healthy queries (id % N == 0).
     * Sampling keys off the modelled outcome, so the sampled trace is
     * byte-identical across AQUOMAN_THREADS.
     */
    int traceSampleEveryN = 0;

    std::int64_t
    resolvedQueryDramBytes() const
    {
        if (queryDramBytes > 0)
            return queryDramBytes;
        return device.dramBytes / std::max(1, admissionLimit);
    }

    ServiceConfig() { flash.name = "ssd"; }
};

/** Full record of one query's trip through the service. */
struct QueryRecord
{
    QueryId id = -1;
    std::string name;
    QueryState state = QueryState::Queued;

    /** Tenant index (into ServiceConfig::tenants; 0 when none given). */
    int tenant = 0;

    /** True when admission control dropped the query (state Shed). */
    bool shed = false;

    /** Structured shed reason ("queue_full",
     *  "quota_below_reservation"; empty when not shed). */
    std::string shedReason;

    /** Device whose switch carries this query's host/DMA traffic and
     *  whose DRAM holds its reservation. */
    int anchorDevice = -1;

    double submitSec = 0.0;
    double admitSec = 0.0;
    double doneSec = 0.0;

    /** Modelled seconds spent waiting for admission. */
    double queueWaitSec = 0.0;

    /** Summed seconds of this query's scheduled device subtasks. */
    double deviceBusySec = 0.0;

    /** Modelled seconds of the HostFinish phase. */
    double hostFinishSec = 0.0;

    /** Suspensions (admission reservation failures + Sec. VI-E). */
    std::int64_t suspendCount = 0;

    /**
     * Wait-state ledger: every modelled second between submitSec and
     * doneSec in exactly one exclusive class. The fixed-order slot sum
     * equals latencySec() bitwise for every completed query (all-zero
     * for shed queries, whose latency is 0).
     */
    obs::WaitLedger waitLedger;

    /**
     * The same partition as timestamped intervals (the critical-path
     * raw material); collected when
     * obs::waitSegmentCollectionEnabled().
     */
    std::vector<obs::WaitSegment> waitSegments;

    /**
     * Contention-seconds this query charged to culprits: device-hold
     * overlaps while pending plus dram_wait. Waiter-seconds, not
     * wall-exclusive — parallel pending waits accrue independently.
     */
    double contentionWaitSec = 0.0;

    /** Bytes shipped to the host to finish the query. */
    std::int64_t hostFinishBytes = 0;

    /** Bit-exact query answer. */
    RelTable result;

    /** Device trace (empty stats when suspended at admission). */
    AquomanRunStats stats;

    /** Host-side work metrics (residual stages, or the whole query). */
    EngineMetrics metrics;

    /**
     * EXPLAIN-ANALYZE cost-attribution tree (built when
     * obs::profileCollectionEnabled(); modelled time only, so it is
     * byte-identical across AQUOMAN_THREADS / AQUOMAN_BATCH).
     */
    obs::QueryProfile profile;

    /** Why the query (partially) left the device, when it did. */
    obs::SuspendReason suspendReason = obs::SuspendReason::None;

    /** Completion latency exceeded the tenant's SLO objective. */
    bool sloViolated = false;

    /** Trace spans retained under tail sampling (always true when
     *  sampling is off). */
    bool traceKept = true;

    /** Timestamped lifecycle transitions (first entry is Queued at
     *  submit time, last is Done). */
    std::vector<LifecycleEvent> lifecycle;

    /** The lifecycle rendered as the legacy "t=..s name: A -> B"
     *  text lines. */
    std::vector<std::string> formatLifecycle() const;

    double latencySec() const { return doneSec - submitSec; }
};

/** Per-tenant slice of the aggregate statistics. */
struct TenantStats
{
    std::string name;
    std::int64_t submitted = 0;
    std::int64_t completed = 0;
    std::int64_t shed = 0;

    double p50LatencySec = 0.0;
    double p90LatencySec = 0.0;
    double p99LatencySec = 0.0;
    double meanQueueWaitSec = 0.0;

    /** shed / submitted. */
    double shedRate = 0.0;

    /** Completed queries that met the tenant's SLO (all, if no SLO). */
    std::int64_t withinSlo = 0;

    /** SLO-meeting completions per modelled second of makespan. */
    double goodputQps = 0.0;

    /** Summed wait ledgers of this tenant's completed queries. */
    obs::WaitLedger waitLedger;

    /**
     * Total contention wait: the tenant's BlameMatrix row sum
     * (device-hold overlaps while its queries were pending, plus their
     * dram_wait). Equals ServiceStats::blame.rowSum(tenant index)
     * bitwise by construction.
     */
    double contentionWaitSec = 0.0;
};

/** Aggregate service statistics over all completed queries. */
struct ServiceStats
{
    std::int64_t completed = 0;

    /** Queries dropped by admission control. */
    std::int64_t shedTotal = 0;

    /** shedTotal / (completed + shedTotal). */
    double shedRate = 0.0;

    /** One entry per configured tenant (one implicit when none). */
    std::vector<TenantStats> tenants;
    double makespanSec = 0.0;
    double throughputQps = 0.0;
    double p50LatencySec = 0.0;
    double p95LatencySec = 0.0;
    double p99LatencySec = 0.0;
    double meanQueueWaitSec = 0.0;

    /** Fraction of completed queries suspended at least once. */
    double suspendRate = 0.0;

    /** Per-device busy seconds (scheduled subtask time). */
    std::vector<double> deviceBusySec;

    /** Per-device Table-Task subtasks executed. */
    std::vector<std::int64_t> deviceTasksRun;

    /** Distribution of completed-query latencies (modelled seconds). */
    obs::Histogram latencyHistogram;

    /** Distribution of admission queue waits (modelled seconds). */
    obs::Histogram queueWaitHistogram;

    /**
     * Aggregate bottleneck histogram: pipeline-stage name -> number of
     * completed Table Tasks bound by that resource.
     */
    std::map<std::string, std::int64_t> bottleneckTaskCounts;

    /** SuspendReason name -> completed queries that suspended for it. */
    std::map<std::string, std::int64_t> suspendReasonCounts;

    /** Shed reason -> queries dropped for it (sibling of
     *  suspendReasonCounts; sheds were previously only tenant totals). */
    std::map<std::string, std::int64_t> shedReasonCounts;

    /** Summed wait ledgers over all completed queries. */
    obs::WaitLedger waitLedger;

    /**
     * Per-(victim x culprit) contention-seconds, indexed like
     * `tenants`. Row sums reappear as TenantStats::contentionWaitSec.
     */
    obs::BlameMatrix blame;

    /** blame.total(): all contention-seconds across tenants. */
    double contentionWaitSec = 0.0;

    /**
     * Device runs made ahead of admission and then discarded unseen:
     * the query's anchor DRAM reservation failed (the host ran it), or
     * a later submission of its tenant landed ahead of its pending
     * arrival and took the queue place it was run ahead for.
     * Wall-clock bookkeeping only: kept out of every report.
     */
    std::int64_t discardedSpeculativeRuns = 0;

    /**
     * Device runs made ahead for queries whose arrival had not fired
     * yet. Wall-clock bookkeeping only: kept out of every report.
     */
    std::int64_t arrivalRunsAhead = 0;
};

/**
 * The query service: M sharded SSDs, admission control, Table-Task
 * scheduling, suspend/resume to the host.
 */
class QueryService
{
  public:
    explicit QueryService(ServiceConfig cfg);
    ~QueryService();

    QueryService(const QueryService &) = delete;
    QueryService &operator=(const QueryService &) = delete;

    /** Row-stripe @p table across the SSD array and register it. */
    void addTable(std::shared_ptr<const Table> table);

    /** Catalog of registered tables (for key metadata setup). */
    Catalog &catalog();

    int numDevices() const;
    const ControllerSwitch &deviceSwitch(int d) const;

    /** Current modelled time (advances during drain()). */
    double now() const;

    /**
     * Submit @p q arriving at modelled time @p arrival_sec (clamped to
     * now()) on behalf of @p tenant (index into
     * ServiceConfig::tenants). Execution happens inside drain(); the
     * query may be shed there instead of executed.
     */
    QueryId submit(const Query &q, double arrival_sec = 0.0,
                   int tenant = 0);

    /**
     * Completion hook, fired as each query reaches Done. The callback
     * may submit() follow-up queries (closed-loop clients).
     */
    void setOnComplete(std::function<void(const QueryRecord &)> fn);

    /** Run the event loop until no events remain. */
    void drain();

    std::size_t numQueries() const;
    const QueryRecord &record(QueryId id) const;

    /** Aggregate statistics over queries completed so far. */
    ServiceStats aggregate() const;

    /**
     * Flight recorder: ring buffer of recent scheduling events. It is
     * rendered to stderr (and mirrored as trace instants) whenever a
     * query suspends or an admission reservation fails.
     */
    const obs::FlightRecorder &flightRecorder() const;

    /** Number of flight-recorder dumps triggered so far. */
    std::int64_t flightDumps() const;

    /** Text of the most recent dump ("" when none happened). */
    const std::string &lastFlightDump() const;

    /**
     * SLO engine fed by this service's completions / sheds /
     * suspensions (windowed rollups, error budgets, burn-rate alerts).
     * drain() closes windows as modelled time advances and finalises
     * the trailing window when the event queue empties, so the
     * engine's timeline JSON is complete after drain() returns.
     */
    const obs::SloEngine &sloEngine() const;

  private:
    struct Impl;
    std::unique_ptr<Impl> impl;
};

} // namespace aquoman::service

#endif // AQUOMAN_SERVICE_QUERY_SERVICE_HH
