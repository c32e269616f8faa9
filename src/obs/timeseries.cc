#include "obs/timeseries.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"

namespace aquoman::obs {

TimeSeriesStore::TimeSeriesStore(double window_sec) : width(window_sec)
{
    AQ_ASSERT(window_sec > 0.0, "window width must be positive");
}

std::int64_t
TimeSeriesStore::windowIndex(double at_sec) const
{
    if (!(at_sec > 0.0))
        return 0;
    return static_cast<std::int64_t>(std::floor(at_sec / width));
}

void
TimeSeriesStore::add(const std::string &key, double at_sec, double delta)
{
    counters[key][windowIndex(at_sec)] += delta;
}

void
TimeSeriesStore::observe(const std::string &key, double at_sec,
                         double value)
{
    hists[key][windowIndex(at_sec)].record(value);
}

void
TimeSeriesStore::merge(const TimeSeriesStore &other)
{
    AQ_ASSERT(width == other.width,
              "cannot merge stores with different window widths");
    for (const auto &[key, windows] : other.counters)
        for (const auto &[idx, v] : windows)
            counters[key][idx] += v;
    for (const auto &[key, windows] : other.hists)
        for (const auto &[idx, h] : windows)
            hists[key][idx].merge(h);
}

double
TimeSeriesStore::counterAt(const std::string &key,
                           std::int64_t idx) const
{
    auto it = counters.find(key);
    if (it == counters.end())
        return 0.0;
    auto wit = it->second.find(idx);
    return wit == it->second.end() ? 0.0 : wit->second;
}

double
TimeSeriesStore::counterInRange(const std::string &key,
                                std::int64_t first,
                                std::int64_t last) const
{
    auto it = counters.find(key);
    if (it == counters.end())
        return 0.0;
    double sum = 0.0;
    for (auto wit = it->second.lower_bound(first);
         wit != it->second.end() && wit->first <= last; ++wit)
        sum += wit->second;
    return sum;
}

Histogram
TimeSeriesStore::histogramAt(const std::string &key,
                             std::int64_t idx) const
{
    auto it = hists.find(key);
    if (it == hists.end())
        return Histogram{};
    auto wit = it->second.find(idx);
    return wit == it->second.end() ? Histogram{} : wit->second;
}

Histogram
TimeSeriesStore::histogramInRange(const std::string &key,
                                  std::int64_t first,
                                  std::int64_t last) const
{
    Histogram out;
    auto it = hists.find(key);
    if (it == hists.end())
        return out;
    for (auto wit = it->second.lower_bound(first);
         wit != it->second.end() && wit->first <= last; ++wit)
        out.merge(wit->second);
    return out;
}

std::int64_t
TimeSeriesStore::firstWindow() const
{
    bool any = false;
    std::int64_t first = 0;
    for (const auto &[key, windows] : counters)
        if (!windows.empty()) {
            std::int64_t w = windows.begin()->first;
            first = any ? std::min(first, w) : w;
            any = true;
        }
    for (const auto &[key, windows] : hists)
        if (!windows.empty()) {
            std::int64_t w = windows.begin()->first;
            first = any ? std::min(first, w) : w;
            any = true;
        }
    return any ? first : 0;
}

std::int64_t
TimeSeriesStore::lastWindow() const
{
    bool any = false;
    std::int64_t last = 0;
    for (const auto &[key, windows] : counters)
        if (!windows.empty()) {
            std::int64_t w = windows.rbegin()->first;
            last = any ? std::max(last, w) : w;
            any = true;
        }
    for (const auto &[key, windows] : hists)
        if (!windows.empty()) {
            std::int64_t w = windows.rbegin()->first;
            last = any ? std::max(last, w) : w;
            any = true;
        }
    return any ? last : -1;
}

void
TimeSeriesStore::toJson(JsonWriter &w) const
{
    // One layout for both kinds: series by key, windows ascending.
    auto series = [&](const char *kind, const auto &all, auto value) {
        w.key(kind).beginObject();
        for (const auto &[key, windows] : all) {
            w.key(key).beginArray();
            for (const auto &[idx, v] : windows) {
                w.beginObject().key("window").integer(idx);
                w.key("start_seconds").number(windowStartSec(idx));
                value(v);
                w.endObject();
            }
            w.endArray();
        }
        w.endObject();
    };
    w.beginObject().key("window_seconds").number(width);
    series("counters", counters, [&](double v) { w.key("value").number(v); });
    series("histograms", hists, [&](const Histogram &h) {
        w.key("histogram");
        h.toJson(w);
    });
    w.endObject();
}

namespace {

std::string
promName(const std::string &name)
{
    std::string out;
    out.reserve(name.size());
    for (char c : name) {
        bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
            || (c >= '0' && c <= '9') || c == '_' || c == ':';
        out += ok ? c : '_';
    }
    return out;
}

/** A series key split into sanitised metric name + label block. */
struct PromKey
{
    std::string name;   ///< sanitised base name
    std::string labels; ///< "{...}" incl. braces, or empty
    bool valid = false; ///< name matches [a-zA-Z_:][a-zA-Z0-9_:]*
};

PromKey
splitPromKey(const std::string &key)
{
    PromKey out;
    std::string base = key;
    auto brace = key.find('{');
    // Label blocks come from labeledMetric(), whose values are
    // already escaped; a block with a raw newline or no closing
    // brace is hostile and falls back to a fully sanitised flat name.
    if (brace != std::string::npos && key.back() == '}'
            && key.find('\n', brace) == std::string::npos) {
        base = key.substr(0, brace);
        out.labels = key.substr(brace);
    }
    out.name = promName(base);
    // promName leaves only [a-zA-Z0-9_:]; the name is still invalid
    // when empty or when it starts with a digit.
    out.valid = !out.name.empty()
        && !(out.name[0] >= '0' && out.name[0] <= '9');
    return out;
}

/** `name{existing,quantile="q"}` — merge a quantile into the block. */
std::string
withQuantile(const PromKey &k, const char *q)
{
    std::string out = k.name;
    if (k.labels.empty()) {
        out += "{quantile=\"";
    } else {
        out += k.labels.substr(0, k.labels.size() - 1);
        out += ",quantile=\"";
    }
    out += q;
    out += "\"}";
    return out;
}

std::int64_t
windowTimestampMs(double start_sec)
{
    return static_cast<std::int64_t>(std::llround(start_sec * 1000.0));
}

} // namespace

void
TimeSeriesStore::toPrometheus(std::ostream &os) const
{
    for (const auto &[key, windows] : counters) {
        PromKey pk = splitPromKey(key);
        if (!pk.valid)
            continue;
        os << "# TYPE " << pk.name << " counter\n";
        for (const auto &[idx, v] : windows)
            os << pk.name << pk.labels << ' ' << jsonNumber(v) << ' '
               << windowTimestampMs(windowStartSec(idx)) << "\n";
    }
    for (const auto &[key, windows] : hists) {
        PromKey pk = splitPromKey(key);
        if (!pk.valid)
            continue;
        os << "# TYPE " << pk.name << " summary\n";
        for (const auto &[idx, h] : windows) {
            std::int64_t ts = windowTimestampMs(windowStartSec(idx));
            constexpr std::pair<const char *, double> kQuantiles[] = {
                {"0.5", 0.5}, {"0.9", 0.9}, {"0.99", 0.99}};
            for (const auto &[label, q] : kQuantiles)
                os << withQuantile(pk, label) << ' '
                   << jsonNumber(h.quantile(q)) << ' ' << ts << "\n";
            os << pk.name << "_sum" << pk.labels << ' '
               << jsonNumber(h.sum()) << ' ' << ts << "\n";
            os << pk.name << "_count" << pk.labels << ' ' << h.count()
               << ' ' << ts << "\n";
        }
    }
}

void
TimeSeriesStore::clear()
{
    counters.clear();
    hists.clear();
}

} // namespace aquoman::obs
