/** @file
 * Windowed time-series rollup contracts: samples land in the right
 * fixed-width windows, merge() is order-independent (sharded stores
 * render byte-identical JSON however they are combined), series render
 * sorted by key, the Prometheus exposition carries `_sum` / `_count`
 * companions for histogram series and sanitises or drops names it
 * cannot emit safely, and Histogram::merge itself is order-independent
 * under a deterministic fuzz of shardings.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "obs/json.hh"
#include "obs/metrics.hh"
#include "obs/timeseries.hh"

namespace aquoman::obs {
namespace {

JsonValue
parsed(const std::string &json)
{
    JsonValue v;
    std::string error;
    EXPECT_TRUE(parseJson(json, &v, &error)) << error << ": " << json;
    return v;
}

TEST(TimeSeriesStore, WindowIndexing)
{
    TimeSeriesStore ts(0.5);
    EXPECT_EQ(ts.windowIndex(0.0), 0);
    EXPECT_EQ(ts.windowIndex(0.49), 0);
    EXPECT_EQ(ts.windowIndex(0.5), 1);
    EXPECT_EQ(ts.windowIndex(1.74), 3);
    // Negative modelled times clamp to window 0.
    EXPECT_EQ(ts.windowIndex(-2.0), 0);
    EXPECT_DOUBLE_EQ(ts.windowStartSec(3), 1.5);
}

TEST(TimeSeriesStore, CountersAndRanges)
{
    TimeSeriesStore ts(1.0);
    EXPECT_TRUE(ts.empty());
    EXPECT_EQ(ts.firstWindow(), 0);
    EXPECT_EQ(ts.lastWindow(), -1);

    ts.add("c", 0.2, 1.0);
    ts.add("c", 0.7, 2.0);
    ts.add("c", 2.5, 4.0);
    EXPECT_FALSE(ts.empty());
    EXPECT_EQ(ts.firstWindow(), 0);
    EXPECT_EQ(ts.lastWindow(), 2);
    EXPECT_DOUBLE_EQ(ts.counterAt("c", 0), 3.0);
    EXPECT_DOUBLE_EQ(ts.counterAt("c", 1), 0.0);
    EXPECT_DOUBLE_EQ(ts.counterAt("c", 2), 4.0);
    EXPECT_DOUBLE_EQ(ts.counterAt("missing", 0), 0.0);
    EXPECT_DOUBLE_EQ(ts.counterInRange("c", 0, 2), 7.0);
    EXPECT_DOUBLE_EQ(ts.counterInRange("c", 1, 2), 4.0);
    EXPECT_DOUBLE_EQ(ts.counterInRange("c", 3, 9), 0.0);
}

TEST(TimeSeriesStore, HistogramWindows)
{
    TimeSeriesStore ts(1.0);
    ts.observe("h", 0.1, 1.0);
    ts.observe("h", 0.9, 3.0);
    ts.observe("h", 1.5, 10.0);
    EXPECT_EQ(ts.histogramAt("h", 0).count(), 2);
    EXPECT_EQ(ts.histogramAt("h", 1).count(), 1);
    EXPECT_EQ(ts.histogramAt("h", 5).count(), 0);
    Histogram merged = ts.histogramInRange("h", 0, 1);
    EXPECT_EQ(merged.count(), 3);
    EXPECT_DOUBLE_EQ(merged.sum(), 14.0);
}

/** Tiny deterministic PRNG so the fuzz never depends on libc. */
struct Lcg
{
    std::uint64_t s;
    explicit Lcg(std::uint64_t seed) : s(seed) {}
    std::uint64_t
    next()
    {
        s = s * 6364136223846793005ULL + 1442695040888963407ULL;
        return s >> 33;
    }
    double frac() { return static_cast<double>(next() % 100000) / 1e3; }
    /** Multiples of 1/256 in [1/256, 100]: summation is exact in a
     *  double regardless of association, so sharded partial sums equal
     *  the direct accumulation bit-for-bit. */
    double
    dyadic()
    {
        return static_cast<double>(1 + next() % 25600) / 256.0;
    }
};

TEST(TimeSeriesStore, MergeIsOrderIndependent)
{
    // One reference store fed directly, versus three shards fed
    // round-robin and merged in two different orders.
    Lcg rng(7);
    TimeSeriesStore direct(0.25);
    std::vector<TimeSeriesStore> shards(3, TimeSeriesStore(0.25));
    for (int i = 0; i < 400; ++i) {
        double at = rng.frac();
        double v = rng.dyadic();
        const std::string key = (i % 2) ? "a" : "b";
        direct.add(key, at, v);
        direct.observe("lat", at, v);
        shards[i % 3].add(key, at, v);
        shards[i % 3].observe("lat", at, v);
    }

    TimeSeriesStore fwd(0.25);
    for (const TimeSeriesStore &s : shards)
        fwd.merge(s);
    TimeSeriesStore rev(0.25);
    for (auto it = shards.rbegin(); it != shards.rend(); ++it)
        rev.merge(*it);

    EXPECT_EQ(jsonString(direct), jsonString(fwd));
    EXPECT_EQ(jsonString(direct), jsonString(rev));
    EXPECT_EQ(jsonString(direct), jsonString(direct));
}

TEST(HistogramMerge, OrderIndependenceFuzz)
{
    // 20 rounds: random samples split into random shards, shards merged
    // in forward and reverse order; every aggregate and quantile must
    // equal the directly-built histogram exactly.
    for (std::uint64_t round = 0; round < 20; ++round) {
        Lcg rng(1000 + round);
        int n = 50 + static_cast<int>(rng.next() % 450);
        int num_shards = 1 + static_cast<int>(rng.next() % 7);

        Histogram direct;
        std::vector<Histogram> shards(num_shards);
        for (int i = 0; i < n; ++i) {
            double v = rng.dyadic();
            direct.record(v);
            shards[rng.next() % num_shards].record(v);
        }

        Histogram fwd;
        for (const Histogram &s : shards)
            fwd.merge(s);
        Histogram rev;
        for (auto it = shards.rbegin(); it != shards.rend(); ++it)
            rev.merge(*it);

        for (const Histogram *m : {&fwd, &rev}) {
            EXPECT_EQ(m->count(), direct.count()) << "round " << round;
            EXPECT_DOUBLE_EQ(m->sum(), direct.sum())
                << "round " << round;
            EXPECT_DOUBLE_EQ(m->min(), direct.min())
                << "round " << round;
            EXPECT_DOUBLE_EQ(m->max(), direct.max())
                << "round " << round;
            for (double q : {0.0, 0.5, 0.9, 0.99, 1.0})
                EXPECT_DOUBLE_EQ(m->quantile(q), direct.quantile(q))
                    << "round " << round << " q " << q;
        }

        EXPECT_EQ(jsonString(direct), jsonString(fwd)) << "round " << round;
    }
}

TEST(TimeSeriesStore, PrometheusHistogramCompanions)
{
    TimeSeriesStore ts(1.0);
    std::string key =
        labeledMetric("slo_latency_seconds", {{"tenant", "t0"}});
    ts.observe(key, 0.5, 0.1);
    ts.observe(key, 0.6, 0.3);
    ts.add(labeledMetric("slo_completed", {{"tenant", "t0"}}), 0.5,
           2.0);

    std::ostringstream os;
    ts.toPrometheus(os);
    std::string text = os.str();

    // Histogram series expose quantiles plus _sum / _count companions
    // carrying the label block; counters are plain samples.
    EXPECT_NE(text.find("slo_latency_seconds_sum{tenant=\"t0\"}"),
              std::string::npos)
        << text;
    EXPECT_NE(text.find("slo_latency_seconds_count{tenant=\"t0\"}"),
              std::string::npos)
        << text;
    EXPECT_NE(text.find("quantile=\"0.99\""), std::string::npos)
        << text;
    EXPECT_NE(text.find("slo_completed{tenant=\"t0\"}"),
              std::string::npos)
        << text;
    // One _count sample must carry the window's observation count.
    EXPECT_NE(text.find("slo_latency_seconds_count{tenant=\"t0\"} 2"),
              std::string::npos)
        << text;
}

TEST(TimeSeriesStore, JsonShapeAndClear)
{
    TimeSeriesStore ts(2.0);
    ts.add("c", 1.0, 5.0);
    ts.observe("h", 3.0, 1.5);
    std::string j = jsonString(ts);
    JsonValue v = parsed(j);
    EXPECT_EQ(v.num("window_seconds"), 2.0) << j;
    EXPECT_EQ(v.at("counters").kind, JsonValue::Kind::Object) << j;
    EXPECT_EQ(v.at("histograms").kind, JsonValue::Kind::Object) << j;
    // The histogram sample at t=3 lands in window 1, starting at 2 s.
    const JsonValue &h = v.at("histograms").at("h");
    ASSERT_EQ(h.array.size(), 1u) << j;
    EXPECT_EQ(h.array[0].num("start_seconds"), 2.0) << j;
    ts.clear();
    EXPECT_TRUE(ts.empty());
    EXPECT_EQ(ts.lastWindow(), -1);
}

TEST(TimeSeriesStore, JsonSeriesAreSortedByKey)
{
    TimeSeriesStore ts(1.0);
    ts.add("zeta", 0.0, 1.0);
    ts.add("alpha", 0.0, 2.0);
    ts.observe("lat", 0.0, 0.25);
    std::string js = jsonString(ts);
    JsonValue v = parsed(js);
    // std::map iteration: "alpha" precedes "zeta" in the output.
    const JsonValue &counters = v.at("counters");
    ASSERT_EQ(counters.object.size(), 2u) << js;
    EXPECT_EQ(counters.object[0].first, "alpha") << js;
    EXPECT_EQ(counters.object[1].first, "zeta") << js;
    EXPECT_NE(v.at("histograms").find("lat"), nullptr) << js;
}

std::string
promText(const TimeSeriesStore &ts)
{
    std::ostringstream os;
    ts.toPrometheus(os);
    return os.str();
}

TEST(TimeSeriesPrometheus, SanitisesNames)
{
    TimeSeriesStore ts(1.0);
    ts.add("flash.ssd0.bytes_read", 0.0, 4096.0);
    ts.observe("service.query latency", 0.0, 0.5);
    std::string text = promText(ts);
    EXPECT_NE(text.find("flash_ssd0_bytes_read 4096"), std::string::npos)
        << text;
    EXPECT_NE(text.find("service_query_latency_count 1"),
              std::string::npos)
        << text;
    EXPECT_NE(text.find("quantile=\"0.99\""), std::string::npos) << text;
    // Dotted metric names must not survive sanitisation.
    EXPECT_EQ(text.find("flash.ssd0"), std::string::npos) << text;
}

TEST(TimeSeriesPrometheus, EscapesHostileLabelValues)
{
    TimeSeriesStore ts(1.0);
    // A label value carrying every character the exposition format
    // must escape: backslash, double quote, newline.
    std::string hostile = "a\\b\"c\nd";
    ts.add(labeledMetric("service.device_utilization",
                         {{"device", hostile}}),
           0.0, 0.5);
    std::string text = promText(ts);
    EXPECT_NE(text.find("service_device_utilization{device="
                        "\"a\\\\b\\\"c\\nd\"} 0.5"),
              std::string::npos)
        << text;
    // The raw newline must never reach the exposition: every line is
    // either a comment or "name{labels} value timestamp".
    std::istringstream lines(text);
    std::string line;
    while (std::getline(lines, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        EXPECT_NE(line.find(' '), std::string::npos) << line;
    }
}

TEST(TimeSeriesPrometheus, RejectsInvalidMetricNames)
{
    TimeSeriesStore ts(1.0);
    // Sanitises to "123_bad": leading digit, not a valid metric name.
    ts.add("123 bad", 0.0, 1.0);
    // Sanitises to the empty string.
    ts.add("...", 0.0, 2.0);
    ts.observe("9lat", 0.0, 1.0);
    ts.add("fine.name", 0.0, 3.0);
    std::string text = promText(ts);
    EXPECT_EQ(text.find("123_bad"), std::string::npos) << text;
    EXPECT_EQ(text.find("9lat"), std::string::npos) << text;
    EXPECT_NE(text.find("fine_name 3"), std::string::npos) << text;
    std::istringstream lines(text);
    std::string line;
    while (std::getline(lines, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        char c = line[0];
        EXPECT_TRUE((c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
                    || c == '_' || c == ':')
            << line;
    }
}

TEST(TimeSeriesPrometheus, LabeledHistogramMergesQuantileLabel)
{
    TimeSeriesStore ts(1.0);
    ts.observe(labeledMetric("svc.latency", {{"device", "ssd0"}}), 0.0,
               0.25);
    std::string text = promText(ts);
    EXPECT_NE(text.find("svc_latency{device=\"ssd0\","
                        "quantile=\"0.5\"}"),
              std::string::npos)
        << text;
    EXPECT_NE(text.find("svc_latency_count{device=\"ssd0\"} 1"),
              std::string::npos)
        << text;
    EXPECT_NE(text.find("svc_latency_sum{device=\"ssd0\"} 0.25"),
              std::string::npos)
        << text;
}

} // namespace
} // namespace aquoman::obs
