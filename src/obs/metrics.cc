#include "obs/metrics.hh"

#include <algorithm>
#include <cmath>

namespace aquoman::obs {

double
percentile(const std::vector<double> &sorted, double p)
{
    if (sorted.empty())
        return 0.0;
    auto idx = static_cast<std::size_t>(
        std::ceil(p * static_cast<double>(sorted.size()))) - 1;
    return sorted[std::min(idx, sorted.size() - 1)];
}

// =====================================================================
// Histogram
// =====================================================================

/// Non-positive samples share one bucket below every positive one.
static constexpr int kZeroBucket = INT32_MIN / 2;

int
Histogram::bucketOf(double v)
{
    if (!(v > 0.0))
        return kZeroBucket;
    int e = 0;
    double f = std::frexp(v, &e); // f in [0.5, 1)
    int sub = static_cast<int>((f - 0.5) * 2.0 * kSubBuckets);
    sub = std::min(sub, kSubBuckets - 1);
    return e * kSubBuckets + sub;
}

double
Histogram::bucketUpperBound(int idx)
{
    if (idx == kZeroBucket)
        return 0.0;
    int e = idx >= 0 ? idx / kSubBuckets
                     : -((-idx + kSubBuckets - 1) / kSubBuckets);
    int sub = idx - e * kSubBuckets;
    return std::ldexp(0.5 + (sub + 1) / (2.0 * kSubBuckets), e);
}

void
Histogram::record(double v)
{
    if (n == 0) {
        lo = hi = v;
    } else {
        lo = std::min(lo, v);
        hi = std::max(hi, v);
    }
    ++n;
    total += v;
    ++buckets[bucketOf(v)];
}

void
Histogram::merge(const Histogram &other)
{
    if (other.n == 0)
        return;
    if (n == 0) {
        lo = other.lo;
        hi = other.hi;
    } else {
        lo = std::min(lo, other.lo);
        hi = std::max(hi, other.hi);
    }
    n += other.n;
    total += other.total;
    for (const auto &[idx, cnt] : other.buckets)
        buckets[idx] += cnt;
}

double
Histogram::quantile(double q) const
{
    // Empty histograms must answer a defined value, never walk an
    // empty bucket list; a single sample pins every quantile.
    if (n == 0 || buckets.empty())
        return 0.0;
    if (n == 1)
        return lo;
    q = std::clamp(q, 0.0, 1.0);
    auto target = static_cast<std::int64_t>(
        std::ceil(q * static_cast<double>(n)));
    target = std::max<std::int64_t>(target, 1);
    std::int64_t cum = 0;
    for (const auto &[idx, cnt] : buckets) {
        cum += cnt;
        if (cum >= target)
            return std::clamp(bucketUpperBound(idx), lo, hi);
    }
    return hi;
}

void
Histogram::toJson(JsonWriter &w) const
{
    w.beginObject().key("count").integer(n).key("sum").number(total);
    w.key("min").number(min()).key("max").number(max());
    w.key("mean").number(mean()).key("p50").number(quantile(0.50));
    w.key("p90").number(quantile(0.90)).key("p99").number(quantile(0.99));
    w.endObject();
}

std::string
promLabelEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
          case '\\':
            out += "\\\\";
            break;
          case '"':
            out += "\\\"";
            break;
          case '\n':
            out += "\\n";
            break;
          default:
            out += c;
        }
    }
    return out;
}

std::string
labeledMetric(const std::string &name,
              const std::vector<std::pair<std::string, std::string>>
                  &labels)
{
    std::string out = name;
    out += '{';
    bool first = true;
    for (const auto &[k, v] : labels) {
        if (!first)
            out += ',';
        first = false;
        out += k;
        out += "=\"";
        out += promLabelEscape(v);
        out += '"';
    }
    out += '}';
    return out;
}

} // namespace aquoman::obs
