/**
 * @file
 * SLO engine: per-tenant latency objectives, error-budget accounting,
 * and multi-window burn-rate alerting over the windowed time-series
 * rollups — all in **modelled** simulation seconds, so for a fixed
 * event stream every number, alert, and rendered byte is identical at
 * any AQUOMAN_THREADS.
 *
 * Vocabulary (Google SRE-style):
 *  - An objective is (latency target, attainment fraction): "99% of
 *    completions within 0.5 s". A completion slower than the target, a
 *    shed query, or any other terminal failure is a *bad event*.
 *  - The error budget over a horizon is `total * (1 - attainment)` bad
 *    events; budget_consumed = bad / budget (may exceed 1).
 *  - The burn rate over a window span is
 *    `(bad / total) / (1 - attainment)`: 1.0 burns the budget exactly
 *    at the sustainable rate, higher burns it proportionally faster.
 *  - A burn-rate rule pairs a long window (smooths noise) with a short
 *    window (confirms the burn is still happening) and fires when both
 *    exceed the rule's threshold. Firings are edge-triggered per
 *    (tenant, rule): the alert re-arms only after a window where the
 *    condition no longer holds.
 *
 * The engine is fed by the query service (completions, sheds,
 * suspensions) and evaluated lazily as modelled time advances; alert
 * firings are timestamped at the close of the window that tripped
 * them and delivered through an optional sink (the service mirrors
 * them into the flight recorder and as trace instants).
 */

#ifndef AQUOMAN_OBS_SLO_HH
#define AQUOMAN_OBS_SLO_HH

#include <cstdint>
#include <functional>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "obs/timeseries.hh"

namespace aquoman::obs {

/** One tenant's latency objective. */
struct SloObjective
{
    std::string tenant;

    /** Completion latency target in modelled seconds (<= 0 disables
     *  the objective; events are still rolled up for the timeline). */
    double latencyTargetSec = 0.0;

    /** Fraction of completions that must meet the target (0, 1). */
    double attainment = 0.95;
};

/** One multi-window burn-rate alert rule (windows in base-window
 *  counts, so the rule scales with SloConfig::windowSec). */
struct BurnRateRule
{
    std::string name;
    int longWindows = 6;  ///< smoothing span
    int shortWindows = 1; ///< confirmation span
    double threshold = 4.0;
};

/** The standard two-rule ladder: a fast page rule (short span, high
 *  threshold) and a slow ticket rule (long span, low threshold). */
std::vector<BurnRateRule> defaultBurnRateRules();

/** Static configuration of an SloEngine. */
struct SloConfig
{
    /** Rollup window width in modelled seconds. */
    double windowSec = 1.0;

    /** Attainment used when objectives are derived from tenant
     *  latency targets without an explicit fraction. */
    double defaultAttainment = 0.95;

    std::vector<SloObjective> objectives;

    /** Alert rules; empty means defaultBurnRateRules(). */
    std::vector<BurnRateRule> rules;
};

/** One burn-rate alert firing. */
struct SloAlert
{
    std::string tenant;
    std::string rule;
    double atSec = 0.0; ///< close of the window that tripped the rule
    double shortBurn = 0.0;
    double longBurn = 0.0;
};

/**
 * The engine. Feed events in nondecreasing modelled time, advance the
 * watermark as the simulation clock moves, and call finish() once at
 * the end so the trailing partial window is evaluated and rendered.
 */
class SloEngine
{
  public:
    explicit SloEngine(SloConfig cfg);

    const SloConfig &config() const { return cfg; }

    /** True when at least one objective has a positive target. */
    bool active() const;

    /** Would a completion of @p tenant at @p latency_sec violate its
     *  objective? (False for tenants without an objective.) */
    bool isViolation(const std::string &tenant,
                     double latency_sec) const;

    void recordCompletion(const std::string &tenant, double at_sec,
                          double latency_sec);
    void recordShed(const std::string &tenant, double at_sec);
    void recordSuspend(const std::string &tenant, double at_sec);

    /**
     * Admission-queue wait of one admitted query, windowed per tenant
     * (series "slo_queue_wait_seconds"), so burn-rate breaches can be
     * correlated with queueing onset window by window instead of one
     * whole-run histogram.
     */
    void recordQueueWait(const std::string &tenant, double at_sec,
                         double wait_sec);

    /**
     * Contention-seconds @p victim waited because of @p culprit
     * (series "slo_blame_seconds", labels culprit + tenant=victim) —
     * the windowed twin of the service's BlameMatrix. Not part of the
     * timeline JSON; read it back through store().
     */
    void recordBlame(const std::string &victim,
                     const std::string &culprit, double at_sec,
                     double sec);

    /** Called synchronously for each alert firing, during advanceTo /
     *  finish. */
    void setAlertSink(std::function<void(const SloAlert &)> fn);

    /** Evaluate every window that closed strictly before @p sec. */
    void advanceTo(double sec);

    /** Advance to @p sec, then evaluate the trailing partial window.
     *  Idempotent for a fixed end time. */
    void finish(double sec);

    const std::vector<SloAlert> &alerts() const { return firings; }

    /** Whole-horizon rollup of one tenant. */
    struct TenantTotals
    {
        std::int64_t completed = 0;
        std::int64_t violations = 0;
        std::int64_t shed = 0;
        std::int64_t suspended = 0;
        /** (completed - violations) / completed; 1 when idle. */
        double attainment = 1.0;
        /** bad / (total * (1 - attainment target)); 0 without an
         *  objective. */
        double budgetConsumed = 0.0;
    };

    TenantTotals totals(const std::string &tenant) const;

    /** Tenants seen so far (sorted; union of objectives and events). */
    std::vector<std::string> tenants() const;

    const TimeSeriesStore &store() const { return ts; }

    /**
     * Deterministic timeline JSON (stable key order):
     *   {"window_seconds":W, "horizon_seconds":H,
     *    "tenants":[{"name","objective","totals","windows":[...]}],
     *    "alerts":[...]}
     * Per-tenant windows are sparse (only windows with activity) and
     * carry counts, p50/p90/p99 latency, the queue-wait histogram,
     * the single-window burn rate, and cumulative budget consumption.
     */
    void toJson(JsonWriter &w) const;
    std::string jsonString() const;

  private:
    struct RuleState
    {
        bool active = false;
    };

    const SloObjective *objectiveOf(const std::string &tenant) const;
    double burnOver(const std::string &tenant, std::int64_t first,
                    std::int64_t last) const;
    void closeWindow(std::int64_t idx);

    SloConfig cfg;
    TimeSeriesStore ts;
    std::map<std::string, SloObjective> objectives;
    /// Tenants in deterministic (sorted) order; values are per-rule
    /// edge-trigger state.
    std::map<std::string, std::vector<RuleState>> tenantRules;
    std::vector<SloAlert> firings;
    std::function<void(const SloAlert &)> sink;
    std::int64_t closedThrough = -1; ///< highest evaluated window
    double horizonSec = 0.0;
    bool finished = false;
};

} // namespace aquoman::obs

#endif // AQUOMAN_OBS_SLO_HH
