/**
 * @file
 * Simulation tracer: structured spans and instants on named tracks,
 * exported as Chrome trace_event JSON (load in Perfetto or
 * chrome://tracing). Timestamps are **modelled** simulation seconds,
 * never wall clock, so a deterministic run produces a byte-identical
 * trace for every AQUOMAN_THREADS value.
 *
 * Tracks map to Perfetto's process/thread hierarchy: a track is a
 * (process, thread) name pair — e.g. ("ssd0", "tasks") or
 * ("queries", "q6#3"). Export sorts tracks by name and renumbers
 * pids/tids, so registration order never leaks into the output.
 *
 * Disabled by default; setting AQUOMAN_TRACE=<path> enables the tracer
 * at first use and installs an atexit hook that writes the trace there,
 * so any binary in the repo honours the variable. Hot paths must guard
 * with enabled().
 */

#ifndef AQUOMAN_OBS_TRACE_HH
#define AQUOMAN_OBS_TRACE_HH

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "obs/json.hh"

namespace aquoman::obs {

/** One span argument: key plus a pre-rendered JSON value token. */
struct TraceArg
{
    std::string key;
    std::string json;
};

TraceArg arg(const std::string &key, double v);
TraceArg arg(const std::string &key, std::int64_t v);
TraceArg arg(const std::string &key, const std::string &v);
TraceArg arg(const std::string &key, const char *v);

/** One recorded event. Spans keep exact start *and* end marks (not a
 *  duration) so tests can assert bitwise contiguity of adjacent spans. */
struct TraceEvent
{
    char phase = 'X'; ///< 'X' complete span, 'i' instant
    int track = -1;
    std::string name;
    std::string category;
    double tsSec = 0.0;
    double endSec = 0.0; ///< == tsSec for instants
    /** Tail-sampling group (-1 = ungrouped, always retained). Stamped
     *  from the ambient group at record time; see resolveGroup(). */
    std::int64_t group = -1;
    std::vector<TraceArg> args;
};

/** The process-wide simulation tracer. */
class SimTracer
{
  public:
    struct TrackInfo
    {
        std::string process;
        std::string thread;
    };

    /** The process-wide instance (reads AQUOMAN_TRACE on first use). */
    static SimTracer &global();

    /** Cheap hot-path guard; check before building names or args. */
    bool
    enabled() const
    {
        return on.load(std::memory_order_relaxed);
    }

    void enable() { on.store(true, std::memory_order_relaxed); }
    void disable() { on.store(false, std::memory_order_relaxed); }

    /** Register (or find) the track (@p process, @p thread). */
    int track(const std::string &process, const std::string &thread);

    /** Record a complete span on @p track over [start_sec, end_sec]. */
    void span(int track, const std::string &name,
              const std::string &category, double start_sec,
              double end_sec, std::vector<TraceArg> args = {});

    /** Record an instant event on @p track at @p at_sec. */
    void instant(int track, const std::string &name,
                 const std::string &category, double at_sec,
                 std::vector<TraceArg> args = {});

    /**
     * Tail-based sampling. Events are grouped (typically one group per
     * query): setAmbientGroup(g) stamps every subsequently recorded
     * event with g until cleared with setAmbientGroup(-1). This covers
     * worker-thread recordings too, because the service sets the group
     * around the synchronous call that fans work out. Once a group's
     * fate is known (query completed / shed / suspended / sampled),
     * resolveGroup(g, keep) either finalises its events (keep) or
     * drops them from every export (events(), eventCount(), toJson()).
     * Dropped groups are compacted from the log in batches so memory
     * stays bounded; unresolved groups are retained at export.
     * Ungrouped events (group -1) are never sampled away.
     */
    void setAmbientGroup(std::int64_t group);
    std::int64_t ambientGroup() const;
    void resolveGroup(std::int64_t group, bool keep);

    /** Total events shed by resolveGroup(.., false) so far. */
    std::size_t droppedEvents() const;

    /** Snapshot of all recorded events (tests / exporters). */
    std::vector<TraceEvent> events() const;

    std::size_t eventCount() const;

    TrackInfo trackInfo(int track) const;

    /**
     * Render the whole trace as Chrome trace_event JSON
     * ({"traceEvents": [...]}; ts/dur in microseconds). Deterministic:
     * tracks sort by (process, thread) name and events by track, with
     * per-track recording order preserved.
     */
    void toJson(JsonWriter &w) const;

    /** Write the trace to @p path; false (with a message) on failure. */
    bool writeJson(const std::string &path) const;

    /** Path from AQUOMAN_TRACE ("" when unset). */
    const std::string &envPath() const { return envPath_; }

    /** Drop all tracks and events (does not change enabled()). */
    void clear();

  private:
    SimTracer();

    /// Dropped groups pending physical removal are compacted from the
    /// log once this many have accumulated.
    static constexpr std::size_t kCompactGroups = 64;

    void compactLocked();

    mutable std::mutex mu;
    std::atomic<bool> on{false};
    std::string envPath_;
    std::vector<TrackInfo> tracks;
    std::vector<TraceEvent> log;
    std::int64_t ambient = -1;
    /// Live (unresolved) group -> number of events recorded for it.
    std::map<std::int64_t, std::size_t> groupCounts;
    /// Groups resolved as dropped but not yet compacted out of log.
    std::set<std::int64_t> dropSet;
    std::size_t pendingDropped = 0; ///< events in log owned by dropSet
    std::size_t totalDropped = 0;
};

} // namespace aquoman::obs

#endif // AQUOMAN_OBS_TRACE_HH
