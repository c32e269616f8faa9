/**
 * @file
 * Metric building blocks: the log-bucketed latency Histogram, the
 * nearest-rank percentile, and labeled series keys for the Prometheus
 * exposition. Counters themselves live
 * in typed fields of the structs that own them (ServiceStats,
 * TenantStats, the flash and switch byte ledgers); windowed series
 * live in obs::TimeSeriesStore.
 */

#ifndef AQUOMAN_OBS_METRICS_HH
#define AQUOMAN_OBS_METRICS_HH

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "obs/json.hh"

namespace aquoman::obs {

/**
 * Nearest-rank percentile @p p (in (0, 1]) of the ascending samples
 * @p sorted: the ceil(p*n)-th smallest; 0 when there are none.
 */
double percentile(const std::vector<double> &sorted, double p);

/**
 * Escape a Prometheus label value: backslash, double quote and newline
 * become \\, \" and \n per the text exposition format.
 */
std::string promLabelEscape(const std::string &s);

/**
 * Canonical series key for a labeled metric:
 * `name{key="escaped value",...}`. TimeSeriesStore::toPrometheus()
 * recognises the brace-suffixed form and emits the label block verbatim
 * (values are already escaped here), merging histogram quantile labels
 * into it.
 */
std::string labeledMetric(
    const std::string &name,
    const std::vector<std::pair<std::string, std::string>> &labels);

/**
 * A log-bucketed histogram of non-negative samples. Buckets subdivide
 * each power-of-two octave into kSubBuckets equal slices, so relative
 * quantile error is bounded by 1/kSubBuckets regardless of magnitude.
 * Counts are order-independent: merging or reordering record() calls
 * yields the identical histogram, which keeps quantiles deterministic.
 */
class Histogram
{
  public:
    static constexpr int kSubBuckets = 16;

    void record(double v);
    void merge(const Histogram &other);

    std::int64_t count() const { return n; }
    double sum() const { return total; }
    double min() const { return n ? lo : 0.0; }
    double max() const { return n ? hi : 0.0; }
    double mean() const { return n ? total / static_cast<double>(n) : 0.0; }

    /**
     * Quantile @p q in [0, 1]: the upper bound of the bucket holding
     * the ceil(q*n)-th sample, clamped to the observed [min, max].
     */
    double quantile(double q) const;

    /** {"count":..,"sum":..,"min":..,"max":..,"mean":..,"p50":..,
     *  "p90":..,"p99":..} */
    void toJson(JsonWriter &w) const;

  private:
    static int bucketOf(double v);
    static double bucketUpperBound(int idx);

    /// Sparse bucket index -> sample count; std::map iteration order is
    /// ascending bucket (hence ascending value), giving deterministic
    /// quantile walks.
    std::map<int, std::int64_t> buckets;
    std::int64_t n = 0;
    double total = 0.0;
    double lo = 0.0;
    double hi = 0.0;
};

} // namespace aquoman::obs

#endif // AQUOMAN_OBS_METRICS_HH
