/**
 * @file
 * System-level performance model combining the host baseline (Sec.
 * VIII-A) with the AQUOMAN device trace: runtime, CPU-cycle saving and
 * memory footprints for one query on one host configuration, plus the
 * offload classification the paper reports (fully offloaded / partially
 * offloaded-suspended / not offloaded).
 */

#ifndef AQUOMAN_AQUOMAN_PERF_MODEL_HH
#define AQUOMAN_AQUOMAN_PERF_MODEL_HH

#include <algorithm>

#include "aquoman/device.hh"
#include "engine/host_model.hh"

namespace aquoman {

/** The paper's offload classes (Sec. VIII-B). */
enum class OffloadClass { Full, Partial, None };

inline const char *
offloadClassName(OffloadClass c)
{
    switch (c) {
      case OffloadClass::Full:    return "full";
      case OffloadClass::Partial: return "partial";
      case OffloadClass::None:    return "none";
    }
    return "?";
}

/** Derived system figures for one query on one host config. */
struct SystemEvaluation
{
    /** Baseline: MonetDB on plain SSDs. */
    HostRunEstimate baseline;

    /** AQUOMAN path: device seconds + host residual. */
    double deviceSeconds = 0.0;
    double hostResidualSeconds = 0.0;
    double offloadRuntime = 0.0;

    /** Fraction of offloaded runtime spent on the device (Fig 16c). */
    double offloadFraction = 0.0;

    /** x86 CPU-cycle saving vs the baseline (Fig 16c). */
    double cpuSaving = 0.0;

    /** Host memory under offload (Fig 16b). */
    std::int64_t hostMaxRss = 0;
    std::int64_t hostAvgRss = 0;
    std::int64_t deviceDramPeak = 0;

    double speedup = 0.0;
    OffloadClass offloadClass = OffloadClass::None;
};

/**
 * Evaluate one query: @p baseline_metrics comes from running the query
 * on the baseline engine, @p aq from AquomanDevice::runQuery.
 */
inline SystemEvaluation
evaluateOffload(const EngineMetrics &baseline_metrics,
                const AquomanRunStats &aq, const HostModel &host)
{
    SystemEvaluation ev;
    ev.baseline = host.estimate(baseline_metrics);

    HostRunEstimate res = host.estimate(aq.hostResidual);
    double dma = aq.dmaBytes / host.cfg().storageReadBandwidth;
    ev.deviceSeconds = aq.deviceSeconds;
    ev.hostResidualSeconds = res.runtime + dma;
    ev.offloadRuntime = ev.deviceSeconds + ev.hostResidualSeconds;
    ev.offloadFraction = ev.offloadRuntime > 0
        ? ev.deviceSeconds / ev.offloadRuntime : 0.0;
    ev.cpuSaving = baseline_metrics.rowOps > 0
        ? std::max(0.0, 1.0 - aq.hostResidual.rowOps
                             / baseline_metrics.rowOps)
        : 0.0;
    ev.hostMaxRss = res.maxRss;
    ev.hostAvgRss = res.avgRss;
    ev.deviceDramPeak = aq.deviceDramPeak;
    ev.speedup = ev.offloadRuntime > 0
        ? ev.baseline.runtime / ev.offloadRuntime : 1.0;

    // Classification (Sec. VIII-B): None when nothing ran on the
    // device. A query counts as Partial (suspended) when host stages
    // consumed device output AND either the remaining host work is a
    // material fraction of the runtime or the device aggregate spilled
    // per-group state to the host mid-query (conditions 1/3 of
    // Sec. VI-E). Otherwise the query is "offloaded nearly 100% of the
    // time" and counts as Full.
    bool suspended = !aq.deviceStages.empty() && !aq.suspensions.empty();
    if (aq.deviceStages.empty() || ev.offloadFraction < 0.05) {
        ev.offloadClass = OffloadClass::None;
    } else if (suspended
               && (ev.offloadFraction < 0.95 || aq.spillGroups > 0)) {
        ev.offloadClass = OffloadClass::Partial;
    } else {
        ev.offloadClass = OffloadClass::Full;
    }
    return ev;
}

} // namespace aquoman

#endif // AQUOMAN_AQUOMAN_PERF_MODEL_HH
