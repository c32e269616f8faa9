#include "aquoman/query_profile.hh"

#include <cstdio>
#include <iterator>
#include <map>

namespace aquoman {

obs::SuspendReason
classifyQuerySuspension(const QueryCompilation &comp,
                        const AquomanRunStats &stats)
{
    if (stats.suspendedDram)
        return obs::SuspendReason::DramOverflow;
    if (comp.regexForcedHost)
        return obs::SuspendReason::StringHeapRegex;
    for (const StageSuspension &s : stats.suspensions) {
        if (s.reason != obs::SuspendReason::None)
            return s.reason;
    }
    if (stats.spillGroups > 0)
        return obs::SuspendReason::GroupSpill;
    return obs::SuspendReason::None;
}

namespace {

obs::ProfileNode
taskNode(const TableTaskRecord &t)
{
    obs::ProfileNode n;
    n.name = t.what;
    n.kind = "table-task";
    n.rowsIn = t.rowsIn;
    n.rowsOut = t.rowsOut;
    n.flashBytes = t.flashBytes;
    n.stages = t.stages;
    if (!t.table.empty())
        n.detail = "table=" + t.table;
    return n;
}

} // namespace

obs::QueryProfile
buildQueryProfile(const std::string &query_name,
                  const QueryCompilation &comp,
                  const AquomanRunStats &stats,
                  const HostPhaseProfile &host,
                  const std::string &offload_class)
{
    obs::QueryProfile prof;
    prof.query = query_name;
    prof.suspend = classifyQuerySuspension(comp, stats);
    if (!offload_class.empty()) {
        prof.offloadClass = offload_class;
    } else if (stats.tasks.empty()) {
        prof.offloadClass = "none";
    } else if (!stats.suspensions.empty() || stats.spillGroups > 0) {
        prof.offloadClass = "partial";
    } else {
        prof.offloadClass = "full";
    }

    prof.root.name = query_name;
    prof.root.kind = "query";
    prof.root.suspend = prof.suspend;

    // Group the chronological task ledger by compiled stage; the
    // per-stage groups preserve execution order, so a pre-order walk
    // visits tasks exactly as they accrued.
    std::map<std::string, std::vector<const TableTaskRecord *>> by_stage;
    for (const TableTaskRecord &t : stats.tasks)
        by_stage[t.stage].push_back(&t);

    for (const StageDecision &d : comp.stages) {
        obs::ProfileNode sn;
        sn.name = "stage " + d.stageId;
        bool on_device = false;
        for (const std::string &id : stats.deviceStages)
            on_device |= id == d.stageId;
        sn.kind = on_device ? "device-stage" : "host-stage";
        for (const StageSuspension &s : stats.suspensions) {
            if (s.stage == d.stageId) {
                sn.suspend = s.reason;
                sn.detail = s.detail;
                break;
            }
        }
        auto it = by_stage.find(d.stageId);
        if (it != by_stage.end()) {
            for (const TableTaskRecord *t : it->second)
                sn.children.push_back(taskNode(*t));
        }
        prof.root.children.push_back(std::move(sn));
    }

    // Closing work outside any stage (final gathers, result DMA).
    auto it = by_stage.find("");
    if (it != by_stage.end()) {
        for (const TableTaskRecord *t : it->second)
            prof.root.children.push_back(taskNode(*t));
    }

    obs::ProfileNode hp;
    hp.name = "host phase";
    hp.kind = "host-phase";
    hp.stages.add(obs::PipeStage::Switch, host.dmaSeconds);
    hp.stages.add(obs::PipeStage::HostPhase, host.hostSeconds);
    hp.switchBytes = host.dmaBytes + host.hostBytes;
    hp.detail = "residual x86 estimate + result DMA";
    hp.children = stats.hostOps.children;
    prof.root.children.push_back(std::move(hp));
    return prof;
}

std::string
describeTask(const TableTaskRecord &t)
{
    static const char *const kKindNames[] = {"flash", "transform", "sort",
                                             "merge", "group-by"};
    std::string out = t.what;
    if (t.rowsIn >= 0) {
        out += ": " + std::to_string(t.rowsIn) + " -> "
            + std::to_string(t.rowsOut) + " rows";
    }
    if (t.selectorPreds > 0 || t.regexPreds > 0) {
        out += ", " + std::to_string(t.selectorPreds) + " CPE + "
            + std::to_string(t.regexPreds) + " regex predicate(s)";
    }
    int counts[std::size(kKindNames)] = {};
    for (const WorkItem &w : t.work)
        ++counts[static_cast<int>(w.kind)];
    for (std::size_t k = 0; k < std::size(kKindNames); ++k) {
        if (counts[k] > 0)
            out += "; " + std::to_string(counts[k]) + "x " + kKindNames[k];
    }
    char tail[64];
    std::snprintf(tail, sizeof(tail), "; %.3f ms, %s-bound",
                  t.seconds * 1e3, obs::pipeStageName(t.bottleneck));
    return out + tail;
}

} // namespace aquoman
