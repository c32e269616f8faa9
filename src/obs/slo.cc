#include "obs/slo.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"

namespace aquoman::obs {

namespace {

std::string
seriesKey(const char *name, const std::string &tenant)
{
    return labeledMetric(name, {{"tenant", tenant}});
}

} // namespace

std::vector<BurnRateRule>
defaultBurnRateRules()
{
    // Scaled-down version of the classic page/ticket ladder: the page
    // rule wants a hot, recent burn; the ticket rule a sustained slow
    // one. Window counts, not seconds, so the ladder tracks whatever
    // base window the run uses.
    return {
        BurnRateRule{"page", /*longWindows=*/6, /*shortWindows=*/1,
                     /*threshold=*/4.0},
        BurnRateRule{"ticket", /*longWindows=*/24, /*shortWindows=*/6,
                     /*threshold=*/1.5},
    };
}

SloEngine::SloEngine(SloConfig c) : cfg(std::move(c)), ts(cfg.windowSec)
{
    if (cfg.rules.empty())
        cfg.rules = defaultBurnRateRules();
    for (const auto &rule : cfg.rules) {
        AQ_ASSERT(rule.shortWindows >= 1 && rule.longWindows >= 1,
                  "burn-rate rule windows must be >= 1");
        AQ_ASSERT(rule.threshold > 0.0,
                  "burn-rate rule threshold must be positive");
    }
    for (auto &obj : cfg.objectives) {
        if (!(obj.attainment > 0.0) || !(obj.attainment < 1.0))
            obj.attainment = cfg.defaultAttainment;
        objectives[obj.tenant] = obj;
        tenantRules[obj.tenant].resize(cfg.rules.size());
    }
}

bool
SloEngine::active() const
{
    for (const auto &[tenant, obj] : objectives)
        if (obj.latencyTargetSec > 0.0)
            return true;
    return false;
}

const SloObjective *
SloEngine::objectiveOf(const std::string &tenant) const
{
    auto it = objectives.find(tenant);
    if (it == objectives.end() || !(it->second.latencyTargetSec > 0.0))
        return nullptr;
    return &it->second;
}

bool
SloEngine::isViolation(const std::string &tenant,
                       double latency_sec) const
{
    const SloObjective *obj = objectiveOf(tenant);
    return obj != nullptr && latency_sec > obj->latencyTargetSec;
}

void
SloEngine::recordCompletion(const std::string &tenant, double at_sec,
                            double latency_sec)
{
    tenantRules[tenant].resize(cfg.rules.size());
    ts.add(seriesKey("slo_completed", tenant), at_sec, 1.0);
    ts.observe(seriesKey("slo_latency_seconds", tenant), at_sec,
               latency_sec);
    if (isViolation(tenant, latency_sec))
        ts.add(seriesKey("slo_violations", tenant), at_sec, 1.0);
    horizonSec = std::max(horizonSec, at_sec);
}

void
SloEngine::recordShed(const std::string &tenant, double at_sec)
{
    tenantRules[tenant].resize(cfg.rules.size());
    ts.add(seriesKey("slo_shed", tenant), at_sec, 1.0);
    horizonSec = std::max(horizonSec, at_sec);
}

void
SloEngine::recordSuspend(const std::string &tenant, double at_sec)
{
    tenantRules[tenant].resize(cfg.rules.size());
    ts.add(seriesKey("slo_suspended", tenant), at_sec, 1.0);
    horizonSec = std::max(horizonSec, at_sec);
}

void
SloEngine::recordQueueWait(const std::string &tenant, double at_sec,
                           double wait_sec)
{
    tenantRules[tenant].resize(cfg.rules.size());
    ts.observe(seriesKey("slo_queue_wait_seconds", tenant), at_sec,
               wait_sec);
    horizonSec = std::max(horizonSec, at_sec);
}

void
SloEngine::recordBlame(const std::string &victim,
                       const std::string &culprit, double at_sec,
                       double sec)
{
    ts.add(labeledMetric("slo_blame_seconds",
                         {{"culprit", culprit}, {"tenant", victim}}),
           at_sec, sec);
    horizonSec = std::max(horizonSec, at_sec);
}

void
SloEngine::setAlertSink(std::function<void(const SloAlert &)> fn)
{
    sink = std::move(fn);
}

double
SloEngine::burnOver(const std::string &tenant, std::int64_t first,
                    std::int64_t last) const
{
    const SloObjective *obj = objectiveOf(tenant);
    if (obj == nullptr)
        return 0.0;
    double completed =
        ts.counterInRange(seriesKey("slo_completed", tenant), first, last);
    double shed =
        ts.counterInRange(seriesKey("slo_shed", tenant), first, last);
    double total = completed + shed;
    if (!(total > 0.0))
        return 0.0;
    double bad =
        ts.counterInRange(seriesKey("slo_violations", tenant), first,
                          last) +
        shed;
    return (bad / total) / (1.0 - obj->attainment);
}

void
SloEngine::closeWindow(std::int64_t idx)
{
    for (auto &[tenant, states] : tenantRules) {
        if (objectiveOf(tenant) == nullptr)
            continue;
        for (std::size_t r = 0; r < cfg.rules.size(); ++r) {
            const BurnRateRule &rule = cfg.rules[r];
            double shortBurn =
                burnOver(tenant, idx - rule.shortWindows + 1, idx);
            double longBurn =
                burnOver(tenant, idx - rule.longWindows + 1, idx);
            bool firing = shortBurn >= rule.threshold &&
                          longBurn >= rule.threshold;
            if (firing && !states[r].active) {
                SloAlert alert;
                alert.tenant = tenant;
                alert.rule = rule.name;
                alert.atSec = ts.windowStartSec(idx + 1);
                alert.shortBurn = shortBurn;
                alert.longBurn = longBurn;
                firings.push_back(alert);
                if (sink)
                    sink(alert);
            }
            states[r].active = firing;
        }
    }
}

void
SloEngine::advanceTo(double sec)
{
    std::int64_t target = ts.windowIndex(sec) - 1;
    while (closedThrough < target)
        closeWindow(++closedThrough);
}

void
SloEngine::finish(double sec)
{
    advanceTo(sec);
    std::int64_t last = std::max(ts.windowIndex(sec), ts.lastWindow());
    while (closedThrough < last)
        closeWindow(++closedThrough);
    horizonSec = std::max(horizonSec, sec);
    finished = true;
}

SloEngine::TenantTotals
SloEngine::totals(const std::string &tenant) const
{
    TenantTotals t;
    if (ts.empty())
        return t;
    std::int64_t first = ts.firstWindow();
    std::int64_t last = ts.lastWindow();
    auto sum = [&](const char *name) {
        return static_cast<std::int64_t>(std::llround(
            ts.counterInRange(seriesKey(name, tenant), first, last)));
    };
    t.completed = sum("slo_completed");
    t.violations = sum("slo_violations");
    t.shed = sum("slo_shed");
    t.suspended = sum("slo_suspended");
    if (t.completed > 0)
        t.attainment = static_cast<double>(t.completed - t.violations) /
                       static_cast<double>(t.completed);
    const SloObjective *obj = objectiveOf(tenant);
    double total = static_cast<double>(t.completed + t.shed);
    if (obj != nullptr && total > 0.0) {
        double budget = total * (1.0 - obj->attainment);
        t.budgetConsumed =
            static_cast<double>(t.violations + t.shed) / budget;
    }
    return t;
}

std::vector<std::string>
SloEngine::tenants() const
{
    std::vector<std::string> out;
    out.reserve(tenantRules.size());
    for (const auto &[tenant, states] : tenantRules)
        out.push_back(tenant);
    return out;
}

void
SloEngine::toJson(JsonWriter &w) const
{
    w.beginObject().key("window_seconds").number(cfg.windowSec);
    w.key("horizon_seconds").number(horizonSec).key("tenants").beginArray();
    std::int64_t lastIdx = ts.lastWindow();
    for (const auto &tenant : tenants()) {
        w.beginObject().key("name").string(tenant);
        const SloObjective *obj = objectiveOf(tenant);
        w.key("objective");
        if (obj != nullptr) {
            w.beginObject();
            w.key("latency_target_seconds").number(obj->latencyTargetSec);
            w.key("attainment").number(obj->attainment).endObject();
        } else {
            w.null();
        }
        TenantTotals t = totals(tenant);
        w.key("totals").beginObject();
        w.key("completed").integer(t.completed);
        w.key("violations").integer(t.violations);
        w.key("shed").integer(t.shed).key("suspended").integer(t.suspended);
        w.key("attainment").number(t.attainment);
        w.key("budget_consumed").number(t.budgetConsumed).endObject();
        w.key("windows").beginArray();
        double badCum = 0.0;
        double totalCum = 0.0;
        if (!ts.empty()) {
            for (std::int64_t idx = ts.firstWindow(); idx <= lastIdx;
                 ++idx) {
                double completed = ts.counterAt(
                    seriesKey("slo_completed", tenant), idx);
                double violations = ts.counterAt(
                    seriesKey("slo_violations", tenant), idx);
                double shed =
                    ts.counterAt(seriesKey("slo_shed", tenant), idx);
                double suspended = ts.counterAt(
                    seriesKey("slo_suspended", tenant), idx);
                Histogram lat = ts.histogramAt(
                    seriesKey("slo_latency_seconds", tenant), idx);
                Histogram qw = ts.histogramAt(
                    seriesKey("slo_queue_wait_seconds", tenant), idx);
                badCum += violations + shed;
                totalCum += completed + shed;
                if (completed == 0.0 && violations == 0.0 &&
                    shed == 0.0 && suspended == 0.0 &&
                    lat.count() == 0 && qw.count() == 0)
                    continue;
                w.beginObject().key("window").integer(idx);
                w.key("start_seconds").number(ts.windowStartSec(idx));
                w.key("completed").number(completed);
                w.key("violations").number(violations);
                w.key("shed").number(shed).key("suspended").number(suspended);
                w.key("latency");
                lat.toJson(w);
                w.key("queue_wait");
                qw.toJson(w);
                w.key("burn").number(burnOver(tenant, idx, idx));
                double budgetCum = 0.0;
                if (obj != nullptr && totalCum > 0.0)
                    budgetCum =
                        badCum / (totalCum * (1.0 - obj->attainment));
                w.key("budget_consumed").number(budgetCum).endObject();
            }
        }
        w.endArray().endObject();
    }
    w.endArray().key("alerts").beginArray();
    for (const auto &alert : firings) {
        w.beginObject().key("tenant").string(alert.tenant);
        w.key("rule").string(alert.rule).key("at_seconds").number(alert.atSec);
        w.key("short_burn").number(alert.shortBurn);
        w.key("long_burn").number(alert.longBurn).endObject();
    }
    w.endArray().endObject();
}

std::string
SloEngine::jsonString() const
{
    return obs::jsonString(*this);
}

} // namespace aquoman::obs
