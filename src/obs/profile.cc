#include "obs/profile.hh"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <ostream>
#include <sstream>

#include "obs/metrics.hh"

namespace aquoman::obs {

const char *
pipeStageName(PipeStage s)
{
    switch (s) {
      case PipeStage::FlashRead:
        return "flash_read";
      case PipeStage::Selector:
        return "selector";
      case PipeStage::Transformer:
        return "transformer";
      case PipeStage::Swissknife:
        return "swissknife";
      case PipeStage::Switch:
        return "switch";
      case PipeStage::HostPhase:
        return "host_phase";
      case PipeStage::Decode:
        return "decode";
    }
    return "?";
}

const char *
suspendReasonName(SuspendReason r)
{
    switch (r) {
      case SuspendReason::None:
        return "none";
      case SuspendReason::MidPlanGroupBy:
        return "mid_plan_group_by";
      case SuspendReason::StringHeapRegex:
        return "string_heap_regex";
      case SuspendReason::GroupSpill:
        return "group_spill";
      case SuspendReason::DramOverflow:
        return "dram_overflow";
      case SuspendReason::AdmissionDram:
        return "admission_dram";
      case SuspendReason::UnsupportedOp:
        return "unsupported_op";
    }
    return "?";
}

double
StageSeconds::total() const
{
    // Fixed association order: callers rely on bitwise-stable totals.
    double t = 0.0;
    for (int i = 0; i < kNumPipeStages; ++i)
        t += sec[i];
    return t;
}

PipeStage
StageSeconds::bottleneck() const
{
    int best = 0;
    for (int i = 1; i < kNumPipeStages; ++i) {
        if (sec[i] > sec[best])
            best = i;
    }
    return static_cast<PipeStage>(best);
}

StageSeconds &
StageSeconds::operator+=(const StageSeconds &o)
{
    for (int i = 0; i < kNumPipeStages; ++i)
        sec[i] += o.sec[i];
    return *this;
}

double
ProfileNode::selectivity() const
{
    if (rowsIn <= 0 || rowsOut < 0)
        return -1.0;
    return static_cast<double>(rowsOut) / static_cast<double>(rowsIn);
}

StageSeconds
ProfileNode::subtreeStages() const
{
    StageSeconds s = stages;
    for (const ProfileNode &c : children)
        s += c.subtreeStages();
    return s;
}

double
ProfileNode::subtreeSeconds() const
{
    // Pre-order sequential sum: the device records Table Tasks in
    // execution order, so this association reproduces deviceSeconds
    // (plus the trailing host phase) bitwise.
    double t = stages.total();
    for (const ProfileNode &c : children)
        t += c.subtreeSeconds();
    return t;
}

std::int64_t
ProfileNode::subtreeFlashBytes() const
{
    std::int64_t b = flashBytes;
    for (const ProfileNode &c : children)
        b += c.subtreeFlashBytes();
    return b;
}

namespace {

std::string
fmt(const char *f, double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), f, v);
    return buf;
}

std::string
fmtCount(std::int64_t v)
{
    if (v < 0)
        return "-";
    return std::to_string(v);
}

std::string
padLeft(std::string s, std::size_t w)
{
    if (s.size() < w)
        s.insert(0, w - s.size(), ' ');
    return s;
}

std::string
padRight(std::string s, std::size_t w)
{
    if (s.size() < w)
        s.append(w - s.size(), ' ');
    return s;
}

struct TextRow
{
    std::string tree;  ///< prefix + name + kind
    const ProfileNode *node = nullptr;
};

void
flattenRows(const ProfileNode &n, const std::string &prefix, bool last,
            bool root, std::vector<TextRow> &rows)
{
    TextRow r;
    if (root) {
        r.tree = n.name + " [" + n.kind + "]";
    } else {
        r.tree = prefix + (last ? "└─ " : "├─ ") + n.name + " ["
            + n.kind + "]";
    }
    r.node = &n;
    rows.push_back(r);
    std::string child_prefix =
        root ? "" : prefix + (last ? "   " : "│  ");
    for (std::size_t i = 0; i < n.children.size(); ++i) {
        flattenRows(n.children[i], child_prefix,
                    i + 1 == n.children.size(), false, rows);
    }
}

void
jsonStageSeconds(JsonWriter &w, const StageSeconds &s)
{
    w.beginObject();
    for (int i = 0; i < kNumPipeStages; ++i)
        w.key(pipeStageName(static_cast<PipeStage>(i))).number(s.sec[i]);
    w.endObject();
}

void
jsonNode(JsonWriter &w, const ProfileNode &n)
{
    w.beginObject().key("name").string(n.name).key("kind").string(n.kind);
    w.key("rows_in").integer(n.rowsIn).key("rows_out").integer(n.rowsOut);
    w.key("selectivity").number(n.selectivity());
    w.key("flash_bytes").integer(n.flashBytes);
    w.key("switch_bytes").integer(n.switchBytes);
    w.key("seconds").number(n.stages.total());
    w.key("stage_seconds");
    jsonStageSeconds(w, n.stages);
    w.key("bottleneck").string(pipeStageName(n.stages.bottleneck()));
    w.key("suspend_reason").string(suspendReasonName(n.suspend));
    w.key("detail").string(n.detail);
    w.key("children").beginArray();
    for (const ProfileNode &c : n.children)
        jsonNode(w, c);
    w.endArray().endObject();
}

} // namespace

void
QueryProfile::renderText(std::ostream &os) const
{
    os << "EXPLAIN ANALYZE " << query;
    if (!offloadClass.empty())
        os << "  class=" << offloadClass;
    os << "  suspend=" << suspendReasonName(suspend);
    os << "  total=" << fmt("%.9g", totalSeconds()) << "s\n";

    std::vector<TextRow> rows;
    flattenRows(root, "", true, true, rows);

    std::size_t tree_w = 4;
    for (const TextRow &r : rows)
        tree_w = std::max(tree_w, r.tree.size());
    tree_w = std::min<std::size_t>(tree_w, 72);

    os << padRight("node", tree_w) << ' ' << padLeft("rows_in", 10)
       << ' ' << padLeft("rows_out", 10) << ' ' << padLeft("sel", 7)
       << ' ' << padLeft("flash_MB", 10) << ' '
       << padLeft("seconds", 13) << ' ' << padRight("bottleneck", 11)
       << '\n';

    for (const TextRow &r : rows) {
        const ProfileNode &n = *r.node;
        StageSeconds sub = n.subtreeStages();
        double sub_total = sub.total();
        std::string sel = n.selectivity() < 0.0
            ? "-" : fmt("%.3f", n.selectivity());
        std::string bn = sub_total > 0.0
            ? pipeStageName(sub.bottleneck()) : "-";
        os << padRight(r.tree, tree_w) << ' '
           << padLeft(fmtCount(n.rowsIn), 10) << ' '
           << padLeft(fmtCount(n.rowsOut), 10) << ' '
           << padLeft(sel, 7) << ' '
           << padLeft(fmt("%.3f", static_cast<double>(
                              n.subtreeFlashBytes()) / 1e6), 10)
           << ' ' << padLeft(fmt("%.6g", sub_total), 13) << ' '
           << padRight(bn, 11);
        if (n.suspend != SuspendReason::None)
            os << " !" << suspendReasonName(n.suspend);
        if (!n.detail.empty())
            os << "  -- " << n.detail;
        os << '\n';
    }
}

std::string
QueryProfile::textString() const
{
    std::ostringstream os;
    renderText(os);
    return os.str();
}

void
QueryProfile::toJson(JsonWriter &w) const
{
    w.beginObject().key("query").string(query);
    w.key("offload_class").string(offloadClass);
    w.key("suspend_reason").string(suspendReasonName(suspend));
    w.key("total_seconds").number(totalSeconds());
    w.key("stage_seconds");
    jsonStageSeconds(w, root.subtreeStages());
    w.key("root");
    jsonNode(w, root);
    w.endObject();
}

FlightRecorder::FlightRecorder(std::size_t capacity)
    : ring(capacity ? capacity : 1)
{
}

void
FlightRecorder::record(double at_sec, std::string category,
                       std::string subject, std::string detail)
{
    FlightEvent &e = ring[head];
    if (count == ring.size())
        ++droppedEvents;
    else
        ++count;
    e.seq = nextSeq++;
    e.atSec = at_sec;
    e.category = std::move(category);
    e.subject = std::move(subject);
    e.detail = std::move(detail);
    head = (head + 1) % ring.size();
}

std::vector<FlightEvent>
FlightRecorder::snapshot() const
{
    std::vector<FlightEvent> out;
    out.reserve(count);
    std::size_t start = (head + ring.size() - count) % ring.size();
    for (std::size_t i = 0; i < count; ++i)
        out.push_back(ring[(start + i) % ring.size()]);
    return out;
}

void
FlightRecorder::render(std::ostream &os, const std::string &why) const
{
    os << "---- flight recorder: " << why << " ----\n";
    os << padLeft("seq", 6) << ' ' << padLeft("t_sec", 12) << ' '
       << padRight("category", 12) << ' ' << padRight("subject", 20)
       << " detail\n";
    for (const FlightEvent &e : snapshot()) {
        os << padLeft(std::to_string(e.seq), 6) << ' '
           << padLeft(fmt("%.6f", e.atSec), 12) << ' '
           << padRight(e.category, 12) << ' '
           << padRight(e.subject, 20) << ' ' << e.detail << '\n';
    }
    os << "---- end flight recorder (" << count << " buffered, "
       << droppedEvents << " overwritten) ----\n";
}

bool
auditLedgers(const LedgerAudit &a, std::string *error)
{
    auto fail = [&](const std::string &msg) {
        if (error)
            *error = msg;
        return false;
    };

    // Table-Task spans must tile [0, deviceSeconds]: the sequential
    // sum of per-task seconds reproduces the device total bitwise.
    double acc = 0.0;
    for (double t : a.taskSeconds)
        acc += t;
    if (acc != a.deviceSeconds) {
        return fail("task seconds do not tile deviceSeconds: sum="
                    + jsonNumber(acc) + " deviceSeconds="
                    + jsonNumber(a.deviceSeconds));
    }

    std::int64_t fb = 0;
    for (std::int64_t b : a.taskFlashBytes)
        fb += b;
    if (fb != a.deviceFlashBytes) {
        return fail("task flash bytes do not partition "
                    "deviceFlashBytes: sum=" + std::to_string(fb)
                    + " deviceFlashBytes="
                    + std::to_string(a.deviceFlashBytes));
    }

    if (a.expectedPortTotal >= 0) {
        std::int64_t pb = 0;
        for (std::int64_t b : a.portBytes)
            pb += b;
        if (pb != a.expectedPortTotal) {
            return fail("switch port bytes do not partition the "
                        "expected total: sum=" + std::to_string(pb)
                        + " expected="
                        + std::to_string(a.expectedPortTotal));
        }
    }
    return true;
}

} // namespace aquoman::obs
