#include "service/query_service.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <exception>
#include <iostream>
#include <map>
#include <queue>
#include <sstream>

#include "aquoman/query_profile.hh"
#include "common/env_options.hh"
#include "common/thread_pool.hh"
#include "engine/executor.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "service/sharded_store.hh"

namespace aquoman::service {

const char *
queryStateName(QueryState s)
{
    switch (s) {
      case QueryState::Queued:
        return "Queued";
      case QueryState::Running:
        return "Running";
      case QueryState::Suspended:
        return "Suspended";
      case QueryState::HostFinish:
        return "HostFinish";
      case QueryState::Done:
        return "Done";
      case QueryState::Shed:
        return "Shed";
    }
    return "?";
}

std::vector<std::string>
QueryRecord::formatLifecycle() const
{
    std::vector<std::string> out;
    const char *prev = "submitted";
    for (const LifecycleEvent &ev : lifecycle) {
        char buf[160];
        std::snprintf(buf, sizeof buf, "t=%.6fs %s: %s -> %s",
                      ev.atSec, name.c_str(), prev,
                      queryStateName(ev.state));
        out.emplace_back(buf);
        prev = queryStateName(ev.state);
    }
    return out;
}

namespace {

/**
 * Most functional device runs held ahead of admission: the look-ahead
 * window (DESIGN.md §9). It is a constant, not the pool size, so which
 * queries run ahead, and how many runs failed reservations discard, is
 * the same at every AQUOMAN_THREADS value. 32 rather than 16: on
 * perfbench (SF 0.02, 4 vCPUs, --seconds 15, alternating runs) it
 * gave a median 616 against 493 queries/s on service_light (five runs
 * each), where every batch is filled with pending arrivals and a
 * batch twice as long waits for its slowest run half as often, and
 * 516 against 479 on service_overload (seven and eight runs, inside
 * the run-to-run spread), with the same peak RSS on both.
 */
constexpr std::size_t kSpeculationWindow = 32;

/**
 * One query's functional device run, made on the pool before its
 * admission. It accounts into a private switch, so no shared ledger
 * moves before the run is joined at admission.
 */
struct AheadRun
{
    explicit AheadRun(FlashDevice &flash) : sw(flash) {}

    ControllerSwitch sw;
    OffloadedQueryResult out;
    std::exception_ptr error; ///< rethrown when the run is joined
};

/** One per-device slice of a Table Task. */
struct SubTask
{
    double seconds = 0.0;
    std::int64_t bytes = 0;
};

/**
 * One Table Task as scheduled: its per-device subtasks. Scan-type
 * tasks rooted in one sharded base table split across the devices
 * holding stripe rows; everything else runs whole on the anchor.
 */
struct TaskStep
{
    std::string what;
    std::map<int, SubTask> subs; ///< device -> slice
    int remaining = 0;
};

/**
 * RAII ambient trace group: stamps every event recorded inside the
 * scope (including worker-thread recordings during a synchronous
 * fan-out) with the query's sampling group. Restores the previous
 * group, not -1, so nested scopes compose.
 */
class TraceGroupScope
{
  public:
    TraceGroupScope(obs::SimTracer &t, bool active, std::int64_t gid)
        : tracer(active ? &t : nullptr)
    {
        if (tracer) {
            prev = tracer->ambientGroup();
            tracer->setAmbientGroup(gid);
        }
    }

    ~TraceGroupScope()
    {
        if (tracer)
            tracer->setAmbientGroup(prev);
    }

    TraceGroupScope(const TraceGroupScope &) = delete;
    TraceGroupScope &operator=(const TraceGroupScope &) = delete;

  private:
    obs::SimTracer *tracer;
    std::int64_t prev = -1;
};

/** SloConfig with per-tenant objectives resolved. */
obs::SloConfig
resolveSloConfig(const ServiceConfig &c)
{
    obs::SloConfig s = c.slo;
    if (s.objectives.empty())
        for (const TenantConfig &tc : c.tenants)
            if (tc.sloSec > 0.0)
                s.objectives.push_back(
                    {tc.name, tc.sloSec, s.defaultAttainment});
    return s;
}

} // namespace

struct QueryService::Impl
{
    /** One SSD of the array plus its scheduler state. */
    struct DeviceNode
    {
        std::unique_ptr<FlashDevice> flash;
        std::unique_ptr<ControllerSwitch> sw;
        std::unique_ptr<DeviceMemoryManager> dram;

        bool busy = false;
        QueryId inFlight = -1;
        /// Modelled time the in-flight subtask was dispatched (exact
        /// span start for the trace).
        double inFlightStart = 0.0;
        /// One ready-but-not-dispatched subtask: who is waiting and
        /// since when (the entry time bounds its blame overlap with
        /// the holds it sat through).
        struct PendingSub
        {
            QueryId qid = -1;
            double enterSec = 0.0;
        };

        /// Ready subtasks keyed by admission index: the round-robin
        /// cursor walks this order so interleaving is fair and
        /// deterministic.
        std::map<std::int64_t, PendingSub> pending;
        std::int64_t lastServed = -1;

        double busySec = 0.0;
        std::int64_t tasksRun = 0;
    };

    struct QueryExec
    {
        QueryRecord rec;
        Query query;
        /// Compiled stage plan (empty when suspended at admission);
        /// the EXPLAIN-ANALYZE profile is assembled from it.
        QueryCompilation comp;
        std::int64_t admissionIdx = -1;
        std::vector<TaskStep> steps;
        std::size_t nextStep = 0;
        std::int64_t reservedBytes = 0;
        int queryTrack = -1; ///< lifecycle trace track (lazy)
        /// Device run made ahead of admission (null until started).
        std::unique_ptr<AheadRun> ahead;

        /// Wait-ledger bookkeeping: the class the open interval will
        /// be accounted under, when it opened, and how many of this
        /// query's subtasks are in flight (union-of-intervals
        /// device_exec attribution — parallel per-device slices count
        /// wall-clock once).
        obs::WaitClass waitClass = obs::WaitClass::AdmissionQueue;
        double waitMark = 0.0;
        int subtasksInFlight = 0;
    };

    enum class EventKind
    {
        Arrival,
        SubtaskDone,
        HostDone,
    };

    struct Event
    {
        double time = 0.0;
        std::int64_t seq = 0; ///< tie-break: schedule order
        EventKind kind = EventKind::Arrival;
        QueryId qid = -1;
        int device = -1;

        bool
        operator>(const Event &o) const
        {
            if (time != o.time)
                return time > o.time;
            return seq > o.seq;
        }
    };

    /// Submitted queries whose Arrival has not fired, in the order
    /// their events fire: keyed by (submitSec, event seq).
    using ArrivalList = std::map<std::pair<double, std::int64_t>, QueryId>;

    /** Runtime admission state of one tenant. */
    struct TenantState
    {
        TenantConfig cfg;
        std::deque<QueryId> queue;
        ArrivalList arrivals; ///< pending arrivals, in event order
        double deficit = 0.0;       ///< DRR credit within its class
        std::int64_t dramInUse = 0; ///< reserved bytes across devices
        std::int64_t submitted = 0;
        std::int64_t shedCount = 0;
    };

    explicit Impl(ServiceConfig cfg_) : cfg(std::move(cfg_)), host(cfg.host)
    {
        AQ_ASSERT(cfg.numDevices > 0, "service needs >= 1 device");
        AQ_ASSERT(cfg.admissionLimit > 0, "admission limit must be >= 1");
        // Resolve the per-query DRAM reservation exactly once: the
        // quota of a live service must not move if a caller mutates
        // admissionLimit on a retained config copy.
        perQueryDram = cfg.resolvedQueryDramBytes();
        if (cfg.tenants.empty())
            tenants.emplace_back();
        else
            for (const TenantConfig &tc : cfg.tenants) {
                AQ_ASSERT(tc.weight > 0.0, "tenant weight must be > 0");
                tenants.emplace_back().cfg = tc;
            }
        tracePrefix = cfg.traceLabel.empty() ? "" : cfg.traceLabel + ".";
        devTracks.assign(cfg.numDevices, -1);
        aqPortTracks.assign(cfg.numDevices, -1);
        hostPortTracks.assign(cfg.numDevices, -1);
        blame.resize(static_cast<int>(tenants.size()));
        std::vector<ControllerSwitch *> switches;
        for (int d = 0; d < cfg.numDevices; ++d) {
            auto node = std::make_unique<DeviceNode>();
            FlashConfig fc = cfg.flash;
            fc.name = cfg.flash.name + std::to_string(d);
            node->flash = std::make_unique<FlashDevice>(fc);
            node->sw = std::make_unique<ControllerSwitch>(*node->flash);
            node->dram = std::make_unique<DeviceMemoryManager>(
                cfg.device.dramBytes);
            switches.push_back(node->sw.get());
            devices.push_back(std::move(node));
        }
        store = std::make_unique<ShardedTableStore>(std::move(switches));
        slo.setAlertSink(
            [this](const obs::SloAlert &a) { onSloAlert(a); });
    }

    // -- event plumbing ------------------------------------------------

    /** Queue an event; returns its tie-break sequence number. */
    std::int64_t
    schedule(double time, EventKind kind, QueryId qid, int device = -1)
    {
        events.push(Event{time, nextSeq, kind, qid, device});
        return nextSeq++;
    }

    // -- observability -------------------------------------------------

    std::string
    deviceName(int d) const
    {
        return cfg.flash.name + std::to_string(d);
    }

    std::string
    queryLabel(const QueryExec &e) const
    {
        return e.rec.name + "#" + std::to_string(e.rec.id);
    }

    /// Track registration is lazy so a tracer enabled after service
    /// construction still gets every track.
    int
    devTrack(int d)
    {
        if (devTracks[d] < 0)
            devTracks[d] = tracer.track(tracePrefix + deviceName(d),
                                        "table-tasks");
        return devTracks[d];
    }

    int
    aqPortTrack(int d)
    {
        if (aqPortTracks[d] < 0)
            aqPortTracks[d] = tracer.track(
                tracePrefix + deviceName(d), "switch aquoman-port");
        return aqPortTracks[d];
    }

    int
    hostPortTrack(int d)
    {
        if (hostPortTracks[d] < 0)
            hostPortTracks[d] = tracer.track(
                tracePrefix + deviceName(d), "switch host-port");
        return hostPortTracks[d];
    }

    int
    hostModelTrack()
    {
        if (hostTrack < 0)
            hostTrack =
                tracer.track(tracePrefix + "host-model", "phases");
        return hostTrack;
    }

    int
    sloAlertTrack()
    {
        if (sloTrack < 0)
            sloTrack = tracer.track(tracePrefix + "slo", "alerts");
        return sloTrack;
    }

    const std::string &
    tenantName(const QueryExec &e) const
    {
        return tenants[static_cast<std::size_t>(e.rec.tenant)].cfg.name;
    }

    /** Tail sampling active: spans carry group tags and resolve. */
    bool
    sampling() const
    {
        return cfg.traceSampleEveryN > 0 && tracer.enabled();
    }

    /**
     * Burn-rate firing from the SLO engine: remember it in the flight
     * recorder and mirror it as a trace instant (ungrouped — alerts are
     * never sampled away). The engine itself keeps the alert list.
     */
    void
    onSloAlert(const obs::SloAlert &a)
    {
        flight.record(a.atSec, "slo-alert", a.tenant,
                      "rule=" + a.rule + " short_burn="
                          + obs::jsonNumber(a.shortBurn) + " long_burn="
                          + obs::jsonNumber(a.longBurn));
        if (tracer.enabled())
            tracer.instant(sloAlertTrack(), a.tenant + " " + a.rule,
                           "slo-alert", a.atSec,
                           {obs::arg("short_burn", a.shortBurn),
                            obs::arg("long_burn", a.longBurn)});
    }

    /** Append one event to the flight-recorder ring at modelled time. */
    void
    flightNote(const std::string &cat, const std::string &subject,
               std::string detail = "")
    {
        flight.record(clock, cat, subject, std::move(detail));
    }

    /**
     * Render the flight-recorder ring to stderr, remember the text for
     * lastFlightDump(), and mirror not-yet-dumped events as trace
     * instants on a dedicated track.
     */
    void
    dumpFlight(const std::string &why)
    {
        std::ostringstream os;
        flight.render(os, why);
        lastDump = os.str();
        ++flightDumpCount;
        std::cerr << lastDump;
        if (tracer.enabled()) {
            if (flightTrack < 0)
                flightTrack = tracer.track(
                    tracePrefix + "flight-recorder", "events");
            for (const obs::FlightEvent &ev : flight.snapshot()) {
                if (ev.seq <= lastDumpedSeq)
                    continue;
                tracer.instant(flightTrack,
                               ev.category + " " + ev.subject,
                               "flight-recorder", ev.atSec);
                lastDumpedSeq = ev.seq;
            }
        }
    }

    /**
     * Record a lifecycle transition: a structured {state, atSec} event
     * plus, when tracing, a span on the query's track covering the
     * state just left.
     */
    void
    logState(QueryExec &e, QueryState to)
    {
        TraceGroupScope group(tracer, sampling(), e.rec.id);
        if (to == QueryState::Suspended)
            slo.recordSuspend(tenantName(e), clock);
        if (tracer.enabled()) {
            if (e.queryTrack < 0)
                e.queryTrack = tracer.track(tracePrefix + "queries",
                                            queryLabel(e));
            if (!e.rec.lifecycle.empty()) {
                const LifecycleEvent &prev = e.rec.lifecycle.back();
                tracer.span(e.queryTrack, queryStateName(prev.state),
                            "query-state", prev.atSec, clock);
            }
            if (to == QueryState::Done || to == QueryState::Shed)
                tracer.instant(e.queryTrack, queryStateName(to),
                               "query-state", clock);
        }
        e.rec.lifecycle.push_back({to, clock});
        e.rec.state = to;
    }

    // -- wait-state ledger ---------------------------------------------

    /**
     * Close the wait interval open since e.waitMark into the class it
     * was classified under, record the matching WaitSegment (when
     * collection is on), and — for dram_wait — charge the stall to
     * the tenant's own quota in the blame matrix. @p device / @p
     * detail annotate the segment being closed.
     */
    void
    accrueWait(QueryExec &e, int device = -1,
               const std::string &detail = std::string())
    {
        double dur = clock - e.waitMark;
        if (dur > 0.0) {
            e.rec.waitLedger.add(e.waitClass, dur);
            if (e.waitClass == obs::WaitClass::DramWait) {
                // Quota stalls are self-inflicted: the culprit is the
                // victim tenant's own running reservations.
                blame.add(e.rec.tenant, e.rec.tenant, dur);
                e.rec.contentionWaitSec += dur;
                slo.recordBlame(tenantName(e), tenantName(e), clock,
                                dur);
            }
            if (obs::waitSegmentCollectionEnabled())
                e.rec.waitSegments.push_back(
                    {e.waitClass, e.waitMark, clock, device, detail});
        }
        e.waitMark = clock;
    }

    /** Accrue the open interval, then switch the query's class. */
    void
    setWaitClass(QueryExec &e, obs::WaitClass to, int device = -1,
                 const std::string &detail = std::string())
    {
        if (to == e.waitClass)
            return; // lazy accrual: the open interval just continues
        accrueWait(e, device, detail);
        e.waitClass = to;
    }

    /**
     * (Re)classify every queued query at a stable point — after
     * tryAdmit() ran to fixpoint. With every admission slot taken, the
     * whole queue waits for a slot (admission_queue); with free slots
     * a tenant can only still be queued because its DRAM quota blocks
     * it, else tryAdmit would have served it (dram_wait). The interval
     * since the previous stable point stays with the class assigned
     * there.
     */
    void
    reclassifyQueuedWaits()
    {
        obs::WaitClass cls = running >= cfg.admissionLimit
                                 ? obs::WaitClass::AdmissionQueue
                                 : obs::WaitClass::DramWait;
        for (TenantState &t : tenants)
            for (QueryId qid : t.queue)
                setWaitClass(execs[qid], cls);
    }

    /**
     * A subtask of @p culprit released device @p d after holding it
     * over [hold_start, clock]: every query still pending on d charges
     * the overlap of its pending interval with that hold to the
     * culprit's tenant. These are waiter-seconds — several victims may
     * blame the same hold — distinct from the wall-exclusive
     * device_busy ledger class.
     */
    void
    blameWaiters(int d, double hold_start, const QueryExec &culprit)
    {
        DeviceNode &dn = *devices[d];
        if (dn.pending.empty())
            return;
        for (const auto &[idx, p] : dn.pending) {
            QueryExec &victim = execs[p.qid];
            double ov = clock - std::max(p.enterSec, hold_start);
            if (!(ov > 0.0))
                continue;
            blame.add(victim.rec.tenant, culprit.rec.tenant, ov);
            victim.rec.contentionWaitSec += ov;
            slo.recordBlame(tenantName(victim), tenantName(culprit),
                            clock, ov);
        }
    }

    /**
     * Seal a completed query's ledger: the trailing host class (the
     * last nonzero slot by construction) absorbs the floating-point
     * residual so the fixed-order slot sum equals
     * (doneSec - submitSec) bitwise — telescoping interval sums are
     * not associative-exact on their own. The correction is a few
     * ulps at most; debug builds cross-check it against the natural
     * host interval and assert the exact partition.
     */
    void
    sealWaitLedger(QueryExec &e)
    {
        AQ_ASSERT(e.waitClass == obs::WaitClass::SuspendHost ||
                      e.waitClass == obs::WaitClass::HostFinish,
                  "ledger must seal in a host class");
        double total = e.rec.doneSec - e.rec.submitSec;
        int k = static_cast<int>(e.waitClass);
        obs::WaitLedger &w = e.rec.waitLedger;
        for (int iter = 0; iter < 8 && w.total() != total; ++iter)
            w.sec[k] += total - w.total();
        if (obs::waitSegmentCollectionEnabled() && clock > e.waitMark)
            e.rec.waitSegments.push_back({e.waitClass, e.waitMark,
                                          clock, e.rec.anchorDevice,
                                          "host"});
        e.waitMark = clock;
#ifndef NDEBUG
        std::string err;
        AQ_ASSERT(obs::validateWaitPartition(w, total, &err), err);
        double natural = e.rec.hostFinishSec;
        AQ_ASSERT(std::fabs(w.sec[k] - natural) <=
                      1e-9 * std::max(1.0, std::fabs(natural)),
                  "host-phase residual drifted from its interval");
#endif
    }

    /**
     * Drop what only execution reads (plan, compilation, schedule) once
     * @p e is shed or done: a replay holds thousands of finished
     * queries, and only their records are read again.
     */
    static void
    releaseWork(QueryExec &e)
    {
        e.query = Query{};
        e.comp = QueryCompilation{};
        std::vector<TaskStep>().swap(e.steps);
    }

    // -- admission -----------------------------------------------------

    /**
     * Deterministic tail-drop: the arriving query is dropped at its
     * modelled arrival time, transitions Queued -> Shed, and never
     * executes. Fires the completion hook so open-loop drivers see
     * every submitted query exactly once.
     */
    void
    shed(QueryExec &e, const char *reason, const std::string &why)
    {
        // runAhead's room rule, kept by keepArrivalRoom, makes this
        // impossible: a run held by a shed query is a look-ahead bug.
        AQ_ASSERT(!e.ahead, "shed query ", queryLabel(e),
                  " holds a device run made ahead of its arrival");
        TenantState &t = tenants[static_cast<std::size_t>(e.rec.tenant)];
        ++t.shedCount;
        e.rec.shed = true;
        e.rec.shedReason = reason;
        e.rec.doneSec = clock;
        logState(e, QueryState::Shed);
        slo.recordShed(t.cfg.name, clock);
        if (sampling())
            tracer.resolveGroup(e.rec.id, /*keep=*/true);
        flightNote("shed", queryLabel(e),
                   "tenant=" + t.cfg.name + " " + why);
        shedIds.push_back(e.rec.id);
        releaseWork(e);
        if (onComplete)
            onComplete(e.rec);
    }

    /**
     * An arrival enters its tenant's admission queue unless the queue
     * is at its bound (tail drop) or the tenant's DRAM quota can never
     * fit one reservation (immediate shed — queueing would be
     * forever).
     */
    void
    onArrival(QueryId qid)
    {
        QueryExec &e = execs[qid];
        TenantState &t = tenants[static_cast<std::size_t>(e.rec.tenant)];
        // Events fire in (time, seq) order, so each tenant's arrivals
        // leave its pending list from the front.
        AQ_ASSERT(!t.arrivals.empty() && t.arrivals.begin()->second == qid,
                  "arrival of ", queryLabel(e), " out of event order");
        t.arrivals.erase(t.arrivals.begin());
        if (quotaBelowReservation(t)) {
            shed(e, "quota_below_reservation",
                 "quota " + std::to_string(t.cfg.dramQuotaBytes)
                     + " below per-query reservation "
                     + std::to_string(perQueryDram));
            return;
        }
        if (cfg.maxQueuedPerTenant > 0 &&
            static_cast<int>(t.queue.size()) >= cfg.maxQueuedPerTenant) {
            shed(e, "queue_full",
                 "queue full ("
                     + std::to_string(cfg.maxQueuedPerTenant) + ")");
            return;
        }
        t.queue.push_back(qid);
        tryAdmit();
    }

    /** Every arrival of @p t is shed: one reservation exceeds its quota. */
    bool
    quotaBelowReservation(const TenantState &t) const
    {
        return t.cfg.dramQuotaBytes > 0 &&
               t.cfg.dramQuotaBytes < perQueryDram;
    }

    /**
     * How many of @p t's next arrivals are sure to be queued, not
     * shed, unless a later submission lands ahead of them (see
     * keepArrivalRoom). A queue grows only through its tenant's own
     * arrivals, so the k-th next one finds at most queue.size() + k - 1
     * queued queries and cannot hit maxQueuedPerTenant while k is at
     * most the queue's free room.
     */
    std::size_t
    arrivalRoom(const TenantState &t) const
    {
        if (quotaBelowReservation(t))
            return 0;
        if (cfg.maxQueuedPerTenant <= 0)
            return t.arrivals.size();
        auto bound = static_cast<std::size_t>(cfg.maxQueuedPerTenant);
        return bound - std::min(bound, t.queue.size());
    }

    /**
     * Keep every run held by one of @p t's pending arrivals within its
     * earliest arrivalRoom(), after a submission joined them at
     * @p added. An arrival leaving the list moves every later one up
     * a place and takes at most one queue place, and an admission
     * frees a queue place, so only a submission breaks the rule: one made
     * during drain() (a closed loop's completion hook) can land ahead
     * of arrivals already run ahead and push the last of them past the
     * room, where it could be shed. That arrival's run is dropped here,
     * unseen, and counted with the discarded runs.
     */
    void
    keepArrivalRoom(TenantState &t, ArrivalList::const_iterator added)
    {
        std::size_t room = arrivalRoom(t);
        if (room >= t.arrivals.size() || std::next(added) == t.arrivals.end())
            return;
        if (takeAhead(execs[std::next(t.arrivals.begin(), room)->second]))
            ++discardedRuns;
    }

    /** A tenant may be served when it has work and quota headroom. */
    bool
    eligible(const TenantState &t) const
    {
        if (t.queue.empty())
            return false;
        return t.cfg.dramQuotaBytes <= 0 ||
               t.dramInUse + perQueryDram <= t.cfg.dramQuotaBytes;
    }

    /**
     * Pick the next tenant to serve: strict priority class first, then
     * deficit round-robin within the class. Each pass over the class
     * tops up every eligible tenant's deficit by its weight; a tenant
     * is served when its deficit reaches one query's cost (1.0).
     * Single tenant degenerates to exact FIFO.
     */
    int
    pickTenant()
    {
        int best_prio = 0;
        bool any = false;
        for (const TenantState &t : tenants)
            if (eligible(t) &&
                (!any || t.cfg.priority < best_prio)) {
                best_prio = t.cfg.priority;
                any = true;
            }
        if (!any)
            return -1;
        std::size_t n = tenants.size();
        for (;;) {
            for (std::size_t step = 0; step < n; ++step) {
                std::size_t i = (drrCursor + step) % n;
                TenantState &t = tenants[i];
                if (t.cfg.priority != best_prio || !eligible(t))
                    continue;
                if (t.deficit >= 1.0) {
                    t.deficit -= 1.0;
                    // Stay on this tenant: it keeps its turn while it
                    // has credit, then the cursor moves past it.
                    drrCursor = i;
                    return static_cast<int>(i);
                }
                t.deficit += t.cfg.weight;
            }
            drrCursor = (drrCursor + 1) % n; // full pass: rotate start
        }
    }

    void
    tryAdmit()
    {
        while (running < cfg.admissionLimit) {
            int ti = pickTenant();
            if (ti < 0)
                break;
            TenantState &t = tenants[static_cast<std::size_t>(ti)];
            QueryId qid = t.queue.front();
            t.queue.pop_front();
            if (t.queue.empty())
                t.deficit = 0.0; // classic DRR: no credit hoarding
            admit(qid);
        }
        reclassifyQueuedWaits();
    }

    void
    admit(QueryId qid)
    {
        QueryExec &e = execs[qid];
        TenantState &t = tenants[static_cast<std::size_t>(e.rec.tenant)];
        e.admissionIdx = admissionCounter++;
        e.rec.admitSec = clock;
        e.rec.queueWaitSec = clock - e.rec.submitSec;
        // Close the queue-phase interval (admission_queue or
        // dram_wait, whatever the last stable point decided); until a
        // subtask actually dispatches the query is waiting on devices.
        setWaitClass(e, obs::WaitClass::DeviceBusy);
        slo.recordQueueWait(t.cfg.name, clock, e.rec.queueWaitSec);
        e.rec.anchorDevice = static_cast<int>(
            (e.admissionIdx + cfg.scheduleSeed) % devices.size());
        ++running;

        DeviceNode &anchor = *devices[e.rec.anchorDevice];
        std::int64_t want = perQueryDram;
        std::string slot = "service.q" + std::to_string(qid);
        if (!anchor.dram->allocate(slot, want)) {
            // Admission-time suspension: no device DRAM for this
            // query's intermediates — the host runs it whole, and a
            // device run made ahead for it is discarded unseen.
            if (takeAhead(e))
                ++discardedRuns;
            e.rec.suspendReason = obs::SuspendReason::AdmissionDram;
            flightNote("admit-fail", queryLabel(e),
                       "no DRAM on " + deviceName(e.rec.anchorDevice)
                           + " for " + std::to_string(want) + " bytes");
            dumpFlight("admission DRAM reservation failed for "
                       + queryLabel(e));
            runOnHost(e);
            return;
        }
        e.reservedBytes = want;
        t.dramInUse += want;
        flightNote("admit", queryLabel(e),
                   "anchor=" + deviceName(e.rec.anchorDevice)
                       + " dram=" + std::to_string(want));
        runOnDevice(e);
    }

    /** Paper suspension path: the host executes the entire query. */
    void
    runOnHost(QueryExec &e)
    {
        TraceGroupScope group(tracer, sampling(), e.rec.id);
        ++e.rec.suspendCount;
        logState(e, QueryState::Suspended);

        DeviceNode &anchor = *devices[e.rec.anchorDevice];
        Executor ex(catalog_, anchor.sw.get());
        if (obs::profileCollectionEnabled())
            ex.setProfileSink(&e.rec.stats.hostOps);
        if (tracer.enabled())
            ex.setTraceLabel(tracePrefix + queryLabel(e));
        e.rec.result = ex.run(e.query);
        e.rec.metrics = ex.metrics();
        e.rec.metrics.suspendCount = e.rec.suspendCount;
        // Everything it touched came over the switch's host port.
        e.rec.metrics.hostFinishBytes = e.rec.metrics.flashBytesRead;
        e.rec.hostFinishBytes = e.rec.metrics.hostFinishBytes;

        beginHostFinish(e, e.rec.metrics, /*dma_bytes=*/0);
    }

    /**
     * Normal path: join the query's functional device run (making it
     * now if it was not made ahead), then schedule its trace. The
     * run's switch traffic lands on the anchor's ledgers here, and its
     * exception, if any, is rethrown here: the same query, at the same
     * point of drain(), as a run made at admission.
     */
    void
    runOnDevice(QueryExec &e)
    {
        TraceGroupScope group(tracer, sampling(), e.rec.id);
        logState(e, QueryState::Running);

        if (!e.ahead)
            runAhead(e);
        std::unique_ptr<AheadRun> run = takeAhead(e);
        ControllerSwitch &sw = *devices[e.rec.anchorDevice]->sw;
        for (FlashPort port : {FlashPort::Host, FlashPort::Aquoman}) {
            sw.accountRead(port, run->sw.bytesRead(port));
            sw.accountWrite(port, run->sw.bytesWritten(port));
        }
        if (run->error)
            std::rethrow_exception(run->error);
        OffloadedQueryResult &r = run->out;
        e.rec.result = std::move(r.result);
        e.rec.stats = std::move(r.stats);
        e.comp = std::move(r.compilation);
        e.rec.metrics = e.rec.stats.hostResidual;
        e.rec.suspendCount = e.rec.metrics.suspendCount;
        e.rec.hostFinishBytes = e.rec.metrics.hostFinishBytes;

        buildSteps(e);
        if (e.steps.empty()) {
            afterDeviceWork(e);
            return;
        }
        enqueueStep(e);
    }

    /**
     * Make @p first's device run now, together with the runs of up to
     * kSpeculationWindow - 1 other queries that have none, as one task
     * group on the pool; at most kSpeculationWindow runs are held at
     * once. Queued queries come first (tenant queue fronts, then the
     * next in line), then pending arrivals, depth by depth across
     * tenants, each tenant only its earliest arrivalRoom() ones. A run
     * depends only on its query, perQueryDram and the read-only
     * catalog; queued queries are always admitted later, and the room
     * rule keeps every chosen arrival from being shed, so a run is
     * wasted only when its anchor reservation fails or a later
     * submission displaces its arrival (keepArrivalRoom). Runs start only
     * from an admission whose reservation succeeded, so a reservation
     * larger than device DRAM never runs ahead. While tracing, the
     * window is 1: the tracer's ambient group is process-global, and
     * concurrent runs would stamp each other's spans.
     */
    void
    runAhead(QueryExec &first)
    {
        std::size_t window = tracer.enabled() ? 1 : kSpeculationWindow;
        std::vector<QueryExec *> batch{&first};
        auto add = [&](QueryExec &q) {
            if (!q.ahead && aheadHeld + batch.size() < window)
                batch.push_back(&q);
        };
        for (std::size_t depth = 0; aheadHeld + batch.size() < window;
             ++depth) {
            bool deeper = false;
            for (const TenantState &t : tenants) {
                if (depth >= t.queue.size())
                    continue;
                deeper = true;
                add(execs[t.queue[depth]]);
            }
            if (!deeper)
                break;
        }
        std::size_t queued = batch.size();
        std::vector<std::pair<ArrivalList::const_iterator, std::size_t>>
            next; // per tenant: next pending arrival, room left
        for (const TenantState &t : tenants)
            next.emplace_back(t.arrivals.begin(), arrivalRoom(t));
        for (bool deeper = true;
             deeper && aheadHeld + batch.size() < window;) {
            deeper = false;
            for (std::size_t ti = 0; ti < tenants.size(); ++ti) {
                auto &[it, room] = next[ti];
                if (room == 0 || it == tenants[ti].arrivals.end())
                    continue;
                deeper = true;
                --room;
                add(execs[(it++)->second]);
            }
        }
        arrivalRuns += static_cast<std::int64_t>(batch.size() - queued);
        TaskGroup group;
        for (QueryExec *q : batch) {
            // Every device shares one flash config, which is all a run
            // reads of its switch besides the ledgers.
            q->ahead = std::make_unique<AheadRun>(*devices[0]->flash);
            ++aheadHeld;
            group.run([this, q] { runFunctional(*q); });
        }
        group.wait();
    }

    /** Pool task: @p e's functional device run into e.ahead. */
    void
    runFunctional(QueryExec &e)
    {
        AheadRun &run = *e.ahead;
        try {
            AquomanConfig dev_cfg = cfg.device;
            dev_cfg.dramBytes = perQueryDram;
            if (tracer.enabled())
                dev_cfg.traceLabel = tracePrefix + queryLabel(e);
            AquomanDevice dev(catalog_, run.sw, dev_cfg);
            run.out = dev.runQuery(e.query);
        } catch (...) {
            run.error = std::current_exception();
        }
    }

    /** Detach @p e's run-ahead result (null when it has none). */
    std::unique_ptr<AheadRun>
    takeAhead(QueryExec &e)
    {
        if (e.ahead)
            --aheadHeld;
        return std::move(e.ahead);
    }

    /**
     * Turn the device executor's Table-Task trace into scheduler
     * steps. A task streaming exactly one sharded base table splits
     * into per-device subtasks proportional to stripe rows (devices
     * with empty stripes are skipped); other tasks run on the anchor.
     */
    void
    buildSteps(QueryExec &e)
    {
        for (const TableTaskRecord &t : e.rec.stats.tasks) {
            TaskStep step;
            step.what = t.what;
            const TableSharding *sh =
                !t.table.empty() && store->has(t.table)
                ? &store->sharding(t.table) : nullptr;
            if (sh && sh->totalRows > 0) {
                std::int64_t bytes_left = t.flashBytes;
                for (int d = 0; d < static_cast<int>(devices.size());
                     ++d) {
                    if (sh->rowsOnDevice[d] == 0)
                        continue;
                    SubTask sub;
                    sub.seconds = t.seconds * sh->fraction(d);
                    // Integer byte split: remainder rides the last
                    // non-empty stripe so slices sum exactly.
                    sub.bytes = t.flashBytes * sh->rowsOnDevice[d]
                        / sh->totalRows;
                    step.subs[d] = sub;
                    bytes_left -= sub.bytes;
                }
                if (!step.subs.empty())
                    step.subs.rbegin()->second.bytes += bytes_left;
            } else {
                step.subs[e.rec.anchorDevice] =
                    SubTask{t.seconds, t.flashBytes};
            }
            if (!step.subs.empty())
                e.steps.push_back(std::move(step));
        }
    }

    void
    enqueueStep(QueryExec &e)
    {
        TaskStep &step = e.steps[e.nextStep];
        step.remaining = static_cast<int>(step.subs.size());
        for (const auto &[d, sub] : step.subs)
            devices[d]->pending[e.admissionIdx] = {e.rec.id, clock};
        for (const auto &[d, sub] : step.subs)
            dispatch(d);
    }

    /**
     * Issue the next subtask on device @p d: round-robin over ready
     * queries by admission index (first index above the cursor, else
     * wrap to the smallest).
     */
    void
    dispatch(int d)
    {
        DeviceNode &dn = *devices[d];
        if (dn.busy || dn.pending.empty())
            return;
        auto it = dn.pending.upper_bound(dn.lastServed);
        if (it == dn.pending.end())
            it = dn.pending.begin();
        dn.lastServed = it->first;
        QueryId qid = it->second.qid;
        dn.pending.erase(it);

        QueryExec &e = execs[qid];
        const SubTask &sub = e.steps[e.nextStep].subs.at(d);
        dn.busy = true;
        dn.inFlight = qid;
        dn.inFlightStart = clock;
        // First subtask in flight ends the device_busy wait; further
        // parallel slices extend the same device_exec interval.
        if (e.subtasksInFlight++ == 0)
            setWaitClass(e, obs::WaitClass::DeviceExec, d,
                         e.steps[e.nextStep].what);
        flightNote("dispatch", deviceName(d),
                   queryLabel(e) + " " + e.steps[e.nextStep].what);
        schedule(clock + sub.seconds, EventKind::SubtaskDone, qid, d);
    }

    void
    onSubtaskDone(const Event &ev)
    {
        TraceGroupScope group(tracer, sampling(), ev.qid);
        DeviceNode &dn = *devices[ev.device];
        AQ_ASSERT(dn.busy && dn.inFlight == ev.qid, "scheduler state");
        dn.busy = false;
        dn.inFlight = -1;

        QueryExec &e = execs[ev.qid];
        TaskStep &step = e.steps[e.nextStep];
        const SubTask &sub = step.subs.at(ev.device);
        dn.busySec += sub.seconds;
        ++dn.tasksRun;
        dn.sw->accountRead(FlashPort::Aquoman, sub.bytes);
        e.rec.deviceBusySec += sub.seconds;

        if (tracer.enabled()) {
            // One span per Table-Task subtask on the device's track,
            // mirrored on its switch's AQUOMAN-port track with the
            // bandwidth the port sustained over the span.
            tracer.span(devTrack(ev.device), step.what, "table-task",
                        dn.inFlightStart, clock,
                        {obs::arg("query", e.rec.name),
                         obs::arg("bytes", sub.bytes)});
            double gbps = sub.seconds > 0.0
                ? static_cast<double>(sub.bytes) / sub.seconds / 1e9
                : 0.0;
            tracer.span(aqPortTrack(ev.device), "aquoman read",
                        "switch-port", dn.inFlightStart, clock,
                        {obs::arg("bytes", sub.bytes),
                         obs::arg("bandwidth_gbps", gbps)});
        }

        // This hold just ended: queries pending on the device blame
        // the culprit's tenant for the overlap they sat through, and
        // with no slice of this query left in flight its device_exec
        // interval closes (back to device_busy until the next
        // dispatch — or the host phase, scheduled at this same clock).
        blameWaiters(ev.device, dn.inFlightStart, e);
        if (--e.subtasksInFlight == 0)
            setWaitClass(e, obs::WaitClass::DeviceBusy, ev.device,
                         step.what);

        if (--step.remaining == 0) {
            ++e.nextStep;
            if (e.nextStep < e.steps.size())
                enqueueStep(e);
            else
                afterDeviceWork(e);
        }
        dispatch(ev.device);
    }

    /** All Table Tasks done: hand the query to its host phase. */
    void
    afterDeviceWork(QueryExec &e)
    {
        if (e.rec.suspendCount > 0) {
            // The device executor raised Sec. VI-E suspensions while
            // running; surface them in the lifecycle.
            logState(e, QueryState::Suspended);
            flightNote("suspend", queryLabel(e),
                       "suspendCount="
                           + std::to_string(e.rec.suspendCount));
            dumpFlight("query " + queryLabel(e)
                       + " suspended to host");
        }
        beginHostFinish(e, e.rec.metrics, e.rec.stats.dmaBytes);
    }

    /**
     * Price the host phase (residual stages + result DMA) at the
     * anchor switch's contention-adjusted host-port bandwidth: AQUOMAN
     * subtasks active on the anchor halve the host's share.
     */
    void
    beginHostFinish(QueryExec &e, const EngineMetrics &m,
                    std::int64_t dma_bytes)
    {
        TraceGroupScope group(tracer, sampling(), e.rec.id);
        logState(e, QueryState::HostFinish);
        // The rest of the query's life is its host phase — one of the
        // two exclusive trailing classes, by whether it suspended.
        setWaitClass(e, e.rec.suspendCount > 0
                            ? obs::WaitClass::SuspendHost
                            : obs::WaitClass::HostFinish);
        DeviceNode &anchor = *devices[e.rec.anchorDevice];
        bool contended = anchor.busy || !anchor.pending.empty();
        double bw = anchor.sw->effectiveReadBandwidth(contended);
        HostRunEstimate est = host.estimate(m, bw);
        e.rec.hostFinishSec = est.runtime + dma_bytes / bw;
        flightNote("host-finish", queryLabel(e),
                   "sec=" + std::to_string(e.rec.hostFinishSec));
        if (obs::profileCollectionEnabled()) {
            HostPhaseProfile hp;
            hp.hostSeconds = est.runtime;
            hp.dmaSeconds = dma_bytes / bw;
            hp.dmaBytes = dma_bytes;
            hp.hostBytes = std::max<std::int64_t>(
                0, e.rec.hostFinishBytes - dma_bytes);
            e.rec.profile =
                buildQueryProfile(e.rec.name, e.comp, e.rec.stats, hp);
            if (e.rec.suspendReason == obs::SuspendReason::AdmissionDram) {
                // The admission failure outranks anything the (never
                // run) device executor could have reported.
                e.rec.profile.suspend = e.rec.suspendReason;
                e.rec.profile.root.suspend = e.rec.suspendReason;
            } else {
                e.rec.suspendReason = e.rec.profile.suspend;
            }
        }
        if (tracer.enabled()) {
            double end = clock + e.rec.hostFinishSec;
            tracer.span(hostPortTrack(e.rec.anchorDevice),
                        e.rec.name + " host read", "switch-port",
                        clock, end,
                        {obs::arg("bytes", e.rec.hostFinishBytes),
                         obs::arg("bandwidth_gbps", bw / 1e9),
                         obs::arg("contended",
                                  contended ? "yes" : "no")});
            tracer.span(hostModelTrack(),
                        queryLabel(e) + " hostFinish", "host-phase",
                        clock, end,
                        {obs::arg("io_seconds", est.ioTime),
                         obs::arg("cpu_seconds", est.cpuTime),
                         obs::arg("dma_bytes", dma_bytes)});
        }
        schedule(clock + e.rec.hostFinishSec, EventKind::HostDone,
                 e.rec.id);
    }

    void
    finish(QueryExec &e)
    {
        logState(e, QueryState::Done);
        flightNote("done", queryLabel(e));
        e.rec.doneSec = clock;
        sealWaitLedger(e);
        e.rec.metrics.queueWaitSec = e.rec.queueWaitSec;
        TenantState &t = tenants[static_cast<std::size_t>(e.rec.tenant)];
        e.rec.sloViolated =
            slo.isViolation(t.cfg.name, e.rec.latencySec());
        slo.recordCompletion(t.cfg.name, clock, e.rec.latencySec());
        if (sampling()) {
            // Tail-sampling verdict: the interesting outcomes keep
            // their full span trees; healthy queries survive only the
            // deterministic 1-in-N sample.
            bool keep = e.rec.sloViolated || e.rec.suspendCount > 0 ||
                        (e.rec.id % cfg.traceSampleEveryN == 0);
            e.rec.traceKept = keep;
            tracer.resolveGroup(e.rec.id, keep);
        }
        if (e.reservedBytes > 0) {
            devices[e.rec.anchorDevice]->dram->free(
                "service.q" + std::to_string(e.rec.id));
            t.dramInUse -= e.reservedBytes;
            e.reservedBytes = 0;
        }
        --running;
        completed.push_back(e.rec.id);
        releaseWork(e);
        tryAdmit();
        if (onComplete)
            onComplete(e.rec);
    }

    // -- event loop ----------------------------------------------------

    void
    drain()
    {
        while (!events.empty()) {
            Event ev = events.top();
            events.pop();
            AQ_ASSERT(ev.time >= clock, "time went backwards");
            clock = ev.time;
            // Close every rollup window that ended before this event;
            // burn-rate alerts fire here, in modelled-time order.
            slo.advanceTo(clock);
            switch (ev.kind) {
              case EventKind::Arrival:
                onArrival(ev.qid);
                break;
              case EventKind::SubtaskDone:
                onSubtaskDone(ev);
                break;
              case EventKind::HostDone:
                finish(execs[ev.qid]);
                break;
            }
        }
        // Event queue empty: evaluate the trailing partial window so
        // the timeline is complete up to the final modelled second.
        slo.finish(clock);
    }

    ServiceConfig cfg;
    HostModel host;
    Catalog catalog_;
    std::vector<std::unique_ptr<DeviceNode>> devices;
    std::unique_ptr<ShardedTableStore> store;

    std::map<QueryId, QueryExec> execs;
    std::vector<TenantState> tenants;
    std::size_t drrCursor = 0;
    std::int64_t perQueryDram = 0;
    std::vector<QueryId> completed;
    std::vector<QueryId> shedIds;

    /// Per-(victim x culprit) contention-seconds, indexed by tenant.
    obs::BlameMatrix blame;
    std::priority_queue<Event, std::vector<Event>, std::greater<>>
        events;
    std::function<void(const QueryRecord &)> onComplete;

    obs::FlightRecorder flight{env::flightEvents().value_or(256)};
    std::string lastDump;
    std::int64_t flightDumpCount = 0;
    std::int64_t lastDumpedSeq = -1;
    int flightTrack = -1;

    obs::SloEngine slo{resolveSloConfig(cfg)};
    int sloTrack = -1;

    double clock = 0.0;
    std::int64_t nextSeq = 0;
    std::int64_t nextQueryId = 0;
    std::int64_t admissionCounter = 0;
    int running = 0;
    std::size_t aheadHeld = 0;      ///< runs made ahead, not yet joined
    std::int64_t discardedRuns = 0; ///< dropped unseen, never joined
    std::int64_t arrivalRuns = 0;   ///< made before the query's arrival

    obs::SimTracer &tracer = obs::SimTracer::global();
    std::string tracePrefix;
    std::vector<int> devTracks;
    std::vector<int> aqPortTracks;
    std::vector<int> hostPortTracks;
    int hostTrack = -1;
};

// =====================================================================
// QueryService
// =====================================================================

QueryService::QueryService(ServiceConfig cfg)
    : impl(std::make_unique<Impl>(std::move(cfg)))
{
}

QueryService::~QueryService() = default;

void
QueryService::addTable(std::shared_ptr<const Table> table)
{
    impl->store->store(*table);
    // Execution reads the in-memory columns (resident == nullptr);
    // the stripes on flash carry capacity pressure and load traffic,
    // and drive the per-device split of scan Table Tasks.
    impl->catalog_.put(std::move(table), nullptr);
}

Catalog &
QueryService::catalog()
{
    return impl->catalog_;
}

int
QueryService::numDevices() const
{
    return static_cast<int>(impl->devices.size());
}

const ControllerSwitch &
QueryService::deviceSwitch(int d) const
{
    return *impl->devices.at(d)->sw;
}

double
QueryService::now() const
{
    return impl->clock;
}

QueryId
QueryService::submit(const Query &q, double arrival_sec, int tenant)
{
    AQ_ASSERT(tenant >= 0 &&
              tenant < static_cast<int>(impl->tenants.size()),
              "no tenant ", tenant);
    QueryId id = impl->nextQueryId++;
    Impl::QueryExec &e = impl->execs[id];
    e.query = q;
    e.rec.id = id;
    e.rec.name = q.name.empty() ? "q" + std::to_string(id) : q.name;
    e.rec.tenant = tenant;
    e.rec.submitSec = std::max(arrival_sec, impl->clock);
    e.rec.state = QueryState::Queued;
    e.waitMark = e.rec.submitSec; // wait ledger opens at submission
    e.rec.lifecycle.push_back({QueryState::Queued, e.rec.submitSec});
    Impl::TenantState &t = impl->tenants[static_cast<std::size_t>(tenant)];
    ++t.submitted;
    impl->flight.record(e.rec.submitSec, "submit",
                        impl->queryLabel(e), "");
    std::int64_t seq =
        impl->schedule(e.rec.submitSec, Impl::EventKind::Arrival, id);
    impl->keepArrivalRoom(
        t, t.arrivals.emplace(std::make_pair(e.rec.submitSec, seq), id)
               .first);
    return id;
}

void
QueryService::setOnComplete(std::function<void(const QueryRecord &)> fn)
{
    impl->onComplete = std::move(fn);
}

void
QueryService::drain()
{
    impl->drain();
}

std::size_t
QueryService::numQueries() const
{
    return impl->execs.size();
}

const QueryRecord &
QueryService::record(QueryId id) const
{
    auto it = impl->execs.find(id);
    AQ_ASSERT(it != impl->execs.end(), "no query ", id);
    return it->second.rec;
}

const obs::FlightRecorder &
QueryService::flightRecorder() const
{
    return impl->flight;
}

std::int64_t
QueryService::flightDumps() const
{
    return impl->flightDumpCount;
}

const std::string &
QueryService::lastFlightDump() const
{
    return impl->lastDump;
}

const obs::SloEngine &
QueryService::sloEngine() const
{
    return impl->slo;
}

ServiceStats
QueryService::aggregate() const
{
    ServiceStats s;
    s.completed = static_cast<std::int64_t>(impl->completed.size());
    s.shedTotal = static_cast<std::int64_t>(impl->shedIds.size());
    if (s.completed + s.shedTotal > 0)
        s.shedRate = static_cast<double>(s.shedTotal) /
                     static_cast<double>(s.completed + s.shedTotal);
    for (const auto &dn : impl->devices) {
        s.deviceBusySec.push_back(dn->busySec);
        s.deviceTasksRun.push_back(dn->tasksRun);
    }
    for (const Impl::TenantState &t : impl->tenants) {
        TenantStats ts;
        ts.name = t.cfg.name;
        ts.submitted = t.submitted;
        ts.shed = t.shedCount;
        s.tenants.push_back(std::move(ts));
    }
    s.discardedSpeculativeRuns = impl->discardedRuns;
    s.arrivalRunsAhead = impl->arrivalRuns;
    s.blame = impl->blame;
    s.contentionWaitSec = s.blame.total();
    for (std::size_t ti = 0; ti < s.tenants.size(); ++ti)
        s.tenants[ti].contentionWaitSec =
            s.blame.rowSum(static_cast<int>(ti));
    for (QueryId id : impl->shedIds) {
        const QueryRecord &r = impl->execs.at(id).rec;
        if (!r.shedReason.empty())
            ++s.shedReasonCounts[r.shedReason];
    }
    if (impl->completed.empty())
        return s;

    std::vector<double> lat;
    std::vector<std::vector<double>> tenant_lat(impl->tenants.size());
    double first_submit = 0.0, last_done = 0.0;
    std::int64_t suspended = 0;
    bool first = true;
    for (QueryId id : impl->completed) {
        const QueryRecord &r = impl->execs.at(id).rec;
        lat.push_back(r.latencySec());
        s.latencyHistogram.record(r.latencySec());
        s.queueWaitHistogram.record(r.queueWaitSec);
        s.meanQueueWaitSec += r.queueWaitSec;
        auto ti = static_cast<std::size_t>(r.tenant);
        tenant_lat[ti].push_back(r.latencySec());
        TenantStats &ts = s.tenants[ti];
        ++ts.completed;
        ts.meanQueueWaitSec += r.queueWaitSec;
        ts.waitLedger += r.waitLedger;
        s.waitLedger += r.waitLedger;
        double slo = impl->tenants[ti].cfg.sloSec;
        if (slo <= 0.0 || r.latencySec() <= slo)
            ++ts.withinSlo;
        for (const TableTaskRecord &t : r.stats.tasks)
            ++s.bottleneckTaskCounts[obs::pipeStageName(t.bottleneck)];
        if (r.suspendReason != obs::SuspendReason::None)
            ++s.suspendReasonCounts[obs::suspendReasonName(
                r.suspendReason)];
        if (r.suspendCount > 0)
            ++suspended;
        if (first || r.submitSec < first_submit)
            first_submit = r.submitSec;
        last_done = std::max(last_done, r.doneSec);
        first = false;
    }
    s.meanQueueWaitSec /= static_cast<double>(lat.size());
    s.suspendRate =
        static_cast<double>(suspended) / static_cast<double>(lat.size());
    s.makespanSec = last_done - first_submit;
    s.throughputQps = s.makespanSec > 0.0
        ? static_cast<double>(s.completed) / s.makespanSec : 0.0;

    std::sort(lat.begin(), lat.end());
    s.p50LatencySec = obs::percentile(lat, 0.50);
    s.p95LatencySec = obs::percentile(lat, 0.95);
    s.p99LatencySec = obs::percentile(lat, 0.99);

    for (std::size_t ti = 0; ti < s.tenants.size(); ++ti) {
        TenantStats &ts = s.tenants[ti];
        if (ts.submitted > 0)
            ts.shedRate = static_cast<double>(ts.shed) /
                          static_cast<double>(ts.submitted);
        if (ts.completed > 0)
            ts.meanQueueWaitSec /= static_cast<double>(ts.completed);
        std::sort(tenant_lat[ti].begin(), tenant_lat[ti].end());
        ts.p50LatencySec = obs::percentile(tenant_lat[ti], 0.50);
        ts.p90LatencySec = obs::percentile(tenant_lat[ti], 0.90);
        ts.p99LatencySec = obs::percentile(tenant_lat[ti], 0.99);
        ts.goodputQps = s.makespanSec > 0.0
            ? static_cast<double>(ts.withinSlo) / s.makespanSec : 0.0;
    }
    return s;
}

} // namespace aquoman::service
