/**
 * @file
 * Windowed time-series rollups over labeled counters and histograms,
 * driven by **modelled** simulation seconds. Samples land in
 * fixed-width windows (floor(at_sec / windowSec)); window contents are
 * plain sums and order-independent log-bucketed histograms, so a store
 * fed the same events in any order — or sharded and merged in any
 * order — renders byte-identical JSON. That is the property the SLO
 * engine and the service benches lean on: rollups never depend on
 * AQUOMAN_THREADS.
 *
 * Series are keyed by an exposition-style name built with
 * obs::labeledMetric() (e.g. `slo.completed{tenant="interactive"}`),
 * so the Prometheus renderer can reuse the label block verbatim.
 */

#ifndef AQUOMAN_OBS_TIMESERIES_HH
#define AQUOMAN_OBS_TIMESERIES_HH

#include <cstdint>
#include <map>
#include <ostream>
#include <string>

#include "obs/metrics.hh"

namespace aquoman::obs {

/**
 * A store of windowed series. Not thread-safe by itself: callers that
 * share one store across threads must serialize access (the service
 * feeds it from its serial discrete-event loop).
 */
class TimeSeriesStore
{
  public:
    explicit TimeSeriesStore(double window_sec);

    double windowSec() const { return width; }

    /** Window index holding modelled time @p at_sec (times < 0 clamp
     *  to window 0 so callers cannot mint negative windows). */
    std::int64_t windowIndex(double at_sec) const;

    /** Inclusive start of window @p idx in modelled seconds. */
    double
    windowStartSec(std::int64_t idx) const
    {
        return static_cast<double>(idx) * width;
    }

    /** Add @p delta to counter series @p key in @p at_sec's window. */
    void add(const std::string &key, double at_sec, double delta);

    /** Record @p value into histogram series @p key in @p at_sec's
     *  window. */
    void observe(const std::string &key, double at_sec, double value);

    /**
     * Merge @p other into this store (window widths must match).
     * Order-independent: merging shards in any order, or replaying the
     * original samples directly, yields the identical store.
     */
    void merge(const TimeSeriesStore &other);

    /** Counter value in one window (0 when absent). */
    double counterAt(const std::string &key, std::int64_t idx) const;

    /** Sum of a counter over windows [first, last] inclusive. */
    double counterInRange(const std::string &key, std::int64_t first,
                          std::int64_t last) const;

    /** Histogram for one window (empty when absent). */
    Histogram histogramAt(const std::string &key,
                          std::int64_t idx) const;

    /** Merged histogram over windows [first, last] inclusive. */
    Histogram histogramInRange(const std::string &key,
                               std::int64_t first,
                               std::int64_t last) const;

    bool empty() const { return counters.empty() && hists.empty(); }

    /** Smallest / largest window index holding any sample (0 / -1 on
     *  an empty store). */
    std::int64_t firstWindow() const;
    std::int64_t lastWindow() const;

    /**
     * Deterministic JSON: series sorted by key, windows ascending.
     *   {"window_seconds": W,
     *    "counters": {"key": [{"window":k,"start_seconds":..,"value":..}]},
     *    "histograms": {"key": [{"window":k,"start_seconds":..,
     *                            "histogram":{<Histogram::toJson>}}]}}
     */
    void toJson(JsonWriter &w) const;

    /**
     * Prometheus text exposition with explicit millisecond timestamps
     * (one sample per window at the window's start). Histogram series
     * emit quantile samples plus `_sum` / `_count` companion series so
     * scrape-side rate() and avg() work; counter series emit plain
     * samples. Series keys keep their labeledMetric() label block.
     * Base names are sanitised to [a-zA-Z0-9_:]; series whose name is
     * still invalid afterwards (empty, or starting with a digit) are
     * dropped, and hostile label blocks (raw newlines, unterminated
     * braces) fall back to a fully sanitised flat name.
     */
    void toPrometheus(std::ostream &os) const;

    void clear();

  private:
    double width;
    /// series key -> window index -> value; std::map iteration gives
    /// the deterministic (sorted) exposition order.
    std::map<std::string, std::map<std::int64_t, double>> counters;
    std::map<std::string, std::map<std::int64_t, Histogram>> hists;
};

} // namespace aquoman::obs

#endif // AQUOMAN_OBS_TIMESERIES_HH
