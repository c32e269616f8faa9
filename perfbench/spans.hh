/**
 * @file
 * In-memory span log for the benchmark's traced runs. The benchmark
 * opens one span around each call it makes into a layer's public
 * function (name "<layer>.<call>"), so wall time is attributed from
 * outside the program, without instrumenting src/. Spans carry their
 * parent, a per-operation id shared by every span of one query, and a
 * tag (the TPC-H template number). Nothing is written until exit:
 * writeChromeTrace() and writeSelfTimeSummary() export the log.
 */

#ifndef AQUOMAN_PERFBENCH_SPANS_HH
#define AQUOMAN_PERFBENCH_SPANS_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/** One timed call. Times are microseconds since the log was created. */
struct Span
{
    const char *name = "";
    double startUs = 0.0;
    double endUs = 0.0;
    int parent = -1;       ///< index into the log, -1 for a root
    std::int64_t id = -1;  ///< operation id (one query / one row)
    int tag = 0;           ///< TPC-H template number, 0 when none

    double seconds() const { return (endUs - startUs) * 1e-6; }
};

/** Layer of a span name: the text before the first '.'. */
inline std::string_view
layerOf(std::string_view name)
{
    return name.substr(0, name.find('.'));
}

/**
 * Span recorder. While disabled, open() returns -1 and close() is a
 * no-op, so untraced code paths pay one branch per call site.
 * Single-threaded: the benchmark drives every layer from one caller.
 */
class SpanLog
{
  public:
    SpanLog() : origin(std::chrono::steady_clock::now()) {}

    bool enabled() const { return on; }

    /** Switch recording on or off; only between root spans. */
    void setEnabled(bool enable) { on = enable; }

    int
    open(const char *name, std::int64_t id, int tag)
    {
        if (!on)
            return -1;
        int idx = static_cast<int>(log.size());
        log.push_back(Span{name, nowUs(), 0.0, current, id, tag});
        current = idx;
        return idx;
    }

    void
    close(int idx)
    {
        if (idx < 0)
            return;
        log[idx].endUs = nowUs();
        current = log[idx].parent;
    }

    const std::vector<Span> &spans() const { return log; }

    /** Root span of @p idx (the span itself when it has no parent). */
    const Span &
    rootOf(int idx) const
    {
        while (log[idx].parent >= 0)
            idx = log[idx].parent;
        return log[idx];
    }

    /** Durations (seconds) of spans named @p name under a root named
     *  @p root, optionally restricted to template @p tag (0 = any). */
    std::vector<double>
    durations(std::string_view name, std::string_view root,
              int tag = 0) const
    {
        std::vector<double> out;
        for (std::size_t i = 0; i < log.size(); ++i) {
            const Span &s = log[i];
            if (name == s.name && (tag == 0 || s.tag == tag)
                && root == rootOf(static_cast<int>(i)).name)
                out.push_back(s.seconds());
        }
        return out;
    }

    /**
     * Share of the wall time of roots named @p root covered by layer
     * spans: the outermost spans whose name is not "bench.*". Spans of
     * one thread nest, so their durations add without overlap.
     */
    double
    coverage(std::string_view root) const
    {
        double covered = 0.0, total = 0.0;
        for (std::size_t i = 0; i < log.size(); ++i) {
            const Span &s = log[i];
            if (s.parent < 0) {
                if (root == s.name)
                    total += s.seconds();
                continue;
            }
            if (layerOf(s.name) != "bench"
                && layerOf(log[s.parent].name) == "bench"
                && root == rootOf(static_cast<int>(i)).name)
                covered += s.seconds();
        }
        return total > 0.0 ? covered / total : 0.0;
    }

    /** Chrome trace-event JSON ("X" complete events, one thread). */
    void
    writeChromeTrace(std::ostream &os, const std::string &stamp) const
    {
        os.setf(std::ios::fixed);
        os.precision(3);
        os << "{\"otherData\":" << stamp << ",\"traceEvents\":[";
        for (std::size_t i = 0; i < log.size(); ++i) {
            const Span &s = log[i];
            os << (i ? ",\n" : "\n") << "{\"name\":\"" << s.name
               << "\",\"cat\":\"" << layerOf(s.name)
               << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
               << s.startUs << ",\"dur\":" << (s.endUs - s.startUs)
               << ",\"args\":{\"span\":" << i << ",\"parent\":"
               << s.parent << ",\"id\":" << s.id << ",\"tag\":" << s.tag
               << "}}";
        }
        os << "\n]}\n";
    }

    /**
     * Per-span-name and per-layer totals: count, summed duration, and
     * summed self time (duration minus the time child spans cover).
     */
    void
    writeSelfTimeSummary(std::ostream &os, const std::string &stamp) const
    {
        std::vector<double> child(log.size(), 0.0);
        for (const Span &s : log)
            if (s.parent >= 0)
                child[s.parent] += s.seconds();
        struct Sum
        {
            std::int64_t count = 0;
            double totalS = 0.0, selfS = 0.0;
        };
        std::map<std::string, Sum> byName, byLayer;
        for (std::size_t i = 0; i < log.size(); ++i) {
            const Span &s = log[i];
            double self = s.seconds() - child[i];
            for (Sum *sum : {&byName[s.name],
                             &byLayer[std::string(layerOf(s.name))]}) {
                ++sum->count;
                sum->totalS += s.seconds();
                sum->selfS += self;
            }
        }
        auto emit = [&os](const std::map<std::string, Sum> &m) {
            bool first = true;
            for (const auto &[name, sum] : m) {
                os << (first ? "\n" : ",\n") << "    \"" << name
                   << "\": {\"count\": " << sum.count
                   << ", \"total_s\": " << sum.totalS
                   << ", \"self_s\": " << sum.selfS << "}";
                first = false;
            }
        };
        os.precision(9);
        os << "{\n  \"config\": " << stamp << ",\n  \"layers\": {";
        emit(byLayer);
        os << "\n  },\n  \"spans\": {";
        emit(byName);
        os << "\n  }\n}\n";
    }

  private:
    double
    nowUs() const
    {
        return std::chrono::duration<double, std::micro>(
                   std::chrono::steady_clock::now() - origin)
            .count();
    }

    std::chrono::steady_clock::time_point origin;
    bool on = false;
    int current = -1;
    std::vector<Span> log;
};

/** RAII span: opens on construction, closes on scope exit. */
class Scope
{
  public:
    Scope(SpanLog &log, const char *name, std::int64_t id = -1, int tag = 0)
        : spans(log), idx(log.open(name, id, tag))
    {
    }
    ~Scope() { spans.close(idx); }

    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    SpanLog &spans;
    int idx;
};

} // namespace perfbench

#endif // AQUOMAN_PERFBENCH_SPANS_HH
