#include "obs/trace.hh"

#include <algorithm>
#include <cstdlib>
#include <map>

#include "common/env_options.hh"
#include "obs/json.hh"

namespace aquoman::obs {

TraceArg
arg(const std::string &key, double v)
{
    return {key, jsonNumber(v)};
}

TraceArg
arg(const std::string &key, std::int64_t v)
{
    return {key, std::to_string(v)};
}

TraceArg
arg(const std::string &key, const std::string &v)
{
    return {key, jsonString([&](JsonWriter &w) { w.string(v); })};
}

TraceArg
arg(const std::string &key, const char *v)
{
    return arg(key, std::string(v));
}

SimTracer::SimTracer() : envPath_(env::tracePath())
{
    if (!envPath_.empty()) {
        on.store(true, std::memory_order_relaxed);
        std::atexit([] {
            SimTracer &t = SimTracer::global();
            if (!t.envPath().empty() && t.eventCount() > 0)
                t.writeJson(t.envPath());
        });
    }
}

SimTracer &
SimTracer::global()
{
    // Intentionally leaked: the constructor registers an atexit hook
    // (AQUOMAN_TRACE) that must outlive static destruction, which would
    // otherwise run before the hook and leave it a destroyed tracer.
    static SimTracer *tracer = new SimTracer;
    return *tracer;
}

int
SimTracer::track(const std::string &process, const std::string &thread)
{
    std::lock_guard<std::mutex> lock(mu);
    for (std::size_t i = 0; i < tracks.size(); ++i) {
        if (tracks[i].process == process && tracks[i].thread == thread)
            return static_cast<int>(i);
    }
    tracks.push_back({process, thread});
    return static_cast<int>(tracks.size() - 1);
}

void
SimTracer::span(int track, const std::string &name,
                const std::string &category, double start_sec,
                double end_sec, std::vector<TraceArg> args)
{
    TraceEvent ev;
    ev.phase = 'X';
    ev.track = track;
    ev.name = name;
    ev.category = category;
    ev.tsSec = start_sec;
    ev.endSec = end_sec;
    ev.args = std::move(args);
    std::lock_guard<std::mutex> lock(mu);
    ev.group = ambient;
    if (ambient != -1)
        ++groupCounts[ambient];
    log.push_back(std::move(ev));
}

void
SimTracer::instant(int track, const std::string &name,
                   const std::string &category, double at_sec,
                   std::vector<TraceArg> args)
{
    TraceEvent ev;
    ev.phase = 'i';
    ev.track = track;
    ev.name = name;
    ev.category = category;
    ev.tsSec = at_sec;
    ev.endSec = at_sec;
    ev.args = std::move(args);
    std::lock_guard<std::mutex> lock(mu);
    ev.group = ambient;
    if (ambient != -1)
        ++groupCounts[ambient];
    log.push_back(std::move(ev));
}

void
SimTracer::setAmbientGroup(std::int64_t group)
{
    std::lock_guard<std::mutex> lock(mu);
    ambient = group;
}

std::int64_t
SimTracer::ambientGroup() const
{
    std::lock_guard<std::mutex> lock(mu);
    return ambient;
}

void
SimTracer::compactLocked()
{
    log.erase(std::remove_if(log.begin(), log.end(),
                             [&](const TraceEvent &ev) {
                                 return ev.group != -1 &&
                                        dropSet.count(ev.group) != 0;
                             }),
              log.end());
    dropSet.clear();
    pendingDropped = 0;
}

void
SimTracer::resolveGroup(std::int64_t group, bool keep)
{
    if (group == -1)
        return;
    std::lock_guard<std::mutex> lock(mu);
    auto it = groupCounts.find(group);
    std::size_t count = it == groupCounts.end() ? 0 : it->second;
    if (it != groupCounts.end())
        groupCounts.erase(it);
    if (keep || count == 0)
        return;
    dropSet.insert(group);
    pendingDropped += count;
    totalDropped += count;
    if (dropSet.size() >= kCompactGroups)
        compactLocked();
}

std::size_t
SimTracer::droppedEvents() const
{
    std::lock_guard<std::mutex> lock(mu);
    return totalDropped;
}

std::vector<TraceEvent>
SimTracer::events() const
{
    std::lock_guard<std::mutex> lock(mu);
    std::vector<TraceEvent> out;
    out.reserve(log.size() - pendingDropped);
    for (const TraceEvent &ev : log)
        if (ev.group == -1 || dropSet.count(ev.group) == 0)
            out.push_back(ev);
    return out;
}

std::size_t
SimTracer::eventCount() const
{
    std::lock_guard<std::mutex> lock(mu);
    return log.size() - pendingDropped;
}

SimTracer::TrackInfo
SimTracer::trackInfo(int track) const
{
    std::lock_guard<std::mutex> lock(mu);
    return tracks.at(static_cast<std::size_t>(track));
}

void
SimTracer::toJson(JsonWriter &w) const
{
    std::vector<TrackInfo> tr;
    std::vector<TraceEvent> evs;
    {
        std::lock_guard<std::mutex> lock(mu);
        tr = tracks;
        evs.reserve(log.size() - pendingDropped);
        for (const TraceEvent &ev : log)
            if (ev.group == -1 || dropSet.count(ev.group) == 0)
                evs.push_back(ev);
    }

    // Tracks whose every event was sampled away are omitted entirely —
    // no metadata lines — so a dropped query leaves zero bytes behind.
    std::vector<bool> used(tr.size(), false);
    for (const TraceEvent &ev : evs)
        used[static_cast<std::size_t>(ev.track)] = true;

    // Renumber pids/tids by sorted (process, thread) names so the
    // output never depends on registration order. Each track is fed by
    // one logical (serial) sequence, so preserving per-track recording
    // order with a stable sort keeps the whole file deterministic.
    std::map<std::string, int> pids;
    for (std::size_t i = 0; i < tr.size(); ++i)
        if (used[i])
            pids.emplace(tr[i].process, 0);
    int next_pid = 1;
    for (auto &[name, pid] : pids)
        pid = next_pid++;

    std::map<std::pair<std::string, std::string>, int> tids;
    for (std::size_t i = 0; i < tr.size(); ++i)
        if (used[i])
            tids.emplace(std::make_pair(tr[i].process, tr[i].thread), 0);
    int next_tid = 1;
    for (auto &[name, tid] : tids)
        tid = next_tid++;

    std::vector<std::size_t> order(evs.size());
    for (std::size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    auto sort_key = [&](std::size_t i) {
        const TrackInfo &t = tr[static_cast<std::size_t>(evs[i].track)];
        return std::make_pair(pids.at(t.process),
                              tids.at({t.process, t.thread}));
    };
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                         return sort_key(a) < sort_key(b);
                     });

    w.beginObject().key("traceEvents").beginArray();
    // Metadata: process and thread names, in sorted (pid, tid) order.
    auto meta = [&w](const char *what, int pid, int tid,
                     const std::string &name) {
        w.beginObject().key("ph").string("M").key("name").string(what);
        w.key("pid").integer(pid).key("tid").integer(tid);
        w.key("args").beginObject().key("name").string(name);
        w.endObject().endObject();
    };
    for (const auto &[name, pid] : pids)
        meta("process_name", pid, 0, name);
    for (const auto &[name, tid] : tids)
        meta("thread_name", pids.at(name.first), tid, name.second);
    for (std::size_t i : order) {
        const TraceEvent &ev = evs[i];
        const TrackInfo &t =
            tr[static_cast<std::size_t>(ev.track)];
        w.beginObject().key("ph").string(std::string_view(&ev.phase, 1));
        w.key("name").string(ev.name).key("cat").string(ev.category);
        w.key("pid").integer(pids.at(t.process));
        w.key("tid").integer(tids.at({t.process, t.thread}));
        w.key("ts").number(ev.tsSec * 1e6);
        if (ev.phase == 'X')
            w.key("dur").number((ev.endSec - ev.tsSec) * 1e6);
        if (ev.phase == 'i')
            w.key("s").string("t");
        if (!ev.args.empty()) {
            w.key("args").beginObject();
            for (const TraceArg &a : ev.args)
                w.key(a.key).raw(a.json);
            w.endObject();
        }
        w.endObject();
    }
    w.endArray().endObject();
}

bool
SimTracer::writeJson(const std::string &path) const
{
    return writeJsonFile(path, [this](JsonWriter &w) { toJson(w); });
}

void
SimTracer::clear()
{
    std::lock_guard<std::mutex> lock(mu);
    tracks.clear();
    log.clear();
    ambient = -1;
    groupCounts.clear();
    dropSet.clear();
    pendingDropped = 0;
    totalDropped = 0;
}

} // namespace aquoman::obs
