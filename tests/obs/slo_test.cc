/** @file
 * SLO engine contracts: violation classification, whole-horizon totals
 * and error-budget accounting, multi-window burn-rate alerting with
 * edge-triggered re-arm, the alert sink, and byte-stable timeline JSON
 * for a fixed event stream.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "obs/json.hh"
#include "obs/slo.hh"

namespace aquoman::obs {
namespace {

SloConfig
oneTenantConfig(double target_sec = 0.1, double attainment = 0.9)
{
    SloConfig cfg;
    cfg.windowSec = 1.0;
    cfg.objectives = {{"t0", target_sec, attainment}};
    // One aggressive rule so tests can trip it quickly: burn >= 2 over
    // both the last window and the last 3 windows.
    cfg.rules = {{"fast", /*longWindows=*/3, /*shortWindows=*/1,
                  /*threshold=*/2.0}};
    return cfg;
}

TEST(SloEngine, ViolationClassification)
{
    SloEngine eng(oneTenantConfig(0.1));
    EXPECT_TRUE(eng.active());
    EXPECT_FALSE(eng.isViolation("t0", 0.1));   // boundary: within
    EXPECT_TRUE(eng.isViolation("t0", 0.1001));
    EXPECT_FALSE(eng.isViolation("unknown", 99.0));
}

TEST(SloEngine, TotalsAndBudget)
{
    // Attainment target 0.9 => budget is 10% of total events.
    SloEngine eng(oneTenantConfig(0.1, 0.9));
    for (int i = 0; i < 8; ++i)
        eng.recordCompletion("t0", 0.1 * i, 0.05); // within
    eng.recordCompletion("t0", 0.9, 0.5);          // violation
    eng.recordShed("t0", 0.95);                    // bad event
    eng.recordSuspend("t0", 0.96);
    eng.finish(1.0);

    SloEngine::TenantTotals t = eng.totals("t0");
    EXPECT_EQ(t.completed, 9);
    EXPECT_EQ(t.violations, 1);
    EXPECT_EQ(t.shed, 1);
    EXPECT_EQ(t.suspended, 1);
    EXPECT_DOUBLE_EQ(t.attainment, 8.0 / 9.0);
    // bad = violations + shed = 2; budget = (9 + 1) * 0.1 = 1.
    EXPECT_DOUBLE_EQ(t.budgetConsumed, 2.0);
}

TEST(SloEngine, BurnRateAlertFiresOnSustainedViolations)
{
    SloEngine eng(oneTenantConfig(0.1, 0.9));
    std::vector<SloAlert> sunk;
    eng.setAlertSink([&](const SloAlert &a) { sunk.push_back(a); });

    // Windows 0-2: every completion violates => single-window burn =
    // (1/1)/0.1 = 10 >= 2, and the 3-window burn too.
    for (int w = 0; w < 3; ++w)
        eng.recordCompletion("t0", w + 0.5, 1.0);
    eng.finish(3.0);

    ASSERT_GE(eng.alerts().size(), 1u);
    const SloAlert &a = eng.alerts().front();
    EXPECT_EQ(a.tenant, "t0");
    EXPECT_EQ(a.rule, "fast");
    EXPECT_GE(a.shortBurn, 2.0);
    EXPECT_GE(a.longBurn, 2.0);
    // Timestamped at the close of the tripping window.
    EXPECT_DOUBLE_EQ(a.atSec, 1.0);
    EXPECT_EQ(sunk.size(), eng.alerts().size());

    // Edge-triggered: the condition held continuously, so exactly one
    // firing despite three qualifying windows.
    EXPECT_EQ(eng.alerts().size(), 1u);
}

TEST(SloEngine, AlertReArmsAfterQuietWindow)
{
    SloEngine eng(oneTenantConfig(0.1, 0.9));
    // Window 0: violations -> fires. Windows 1-3: healthy completions
    // push the 1- and 3-window burns to zero -> re-arm. Window 4:
    // violations again -> second firing.
    eng.recordCompletion("t0", 0.5, 1.0);
    for (int w = 1; w <= 3; ++w)
        for (int i = 0; i < 4; ++i)
            eng.recordCompletion("t0", w + 0.1 + 0.1 * i, 0.01);
    // Enough violations that the 3-window burn (windows 2-4: 8 healthy
    // + 4 bad => (4/12)/0.1 = 3.3) clears the threshold again.
    for (int i = 0; i < 4; ++i)
        eng.recordCompletion("t0", 4.3 + 0.1 * i, 1.0);
    eng.finish(5.0);

    ASSERT_EQ(eng.alerts().size(), 2u);
    EXPECT_DOUBLE_EQ(eng.alerts()[0].atSec, 1.0);
    EXPECT_DOUBLE_EQ(eng.alerts()[1].atSec, 5.0);
}

TEST(SloEngine, NoObjectiveMeansNoAlerts)
{
    SloConfig cfg;
    cfg.windowSec = 1.0; // no objectives at all
    SloEngine eng(cfg);
    EXPECT_FALSE(eng.active());
    eng.recordCompletion("t0", 0.5, 100.0);
    eng.recordShed("t0", 0.6);
    eng.finish(2.0);
    EXPECT_TRUE(eng.alerts().empty());
    SloEngine::TenantTotals t = eng.totals("t0");
    EXPECT_EQ(t.completed, 1);
    EXPECT_EQ(t.violations, 0);
    EXPECT_DOUBLE_EQ(t.budgetConsumed, 0.0);
}

TEST(SloEngine, DefaultRulesAndAttainmentNormalization)
{
    SloConfig cfg;
    cfg.windowSec = 0.5;
    cfg.defaultAttainment = 0.97;
    // Attainment outside (0, 1) falls back to defaultAttainment.
    cfg.objectives = {{"t0", 1.0, 0.0}};
    SloEngine eng(cfg);
    EXPECT_EQ(eng.config().rules.size(),
              defaultBurnRateRules().size());
    ASSERT_EQ(eng.config().objectives.size(), 1u);
    EXPECT_DOUBLE_EQ(eng.config().objectives[0].attainment, 0.97);
}

TEST(SloEngine, TimelineJsonIsByteStable)
{
    auto run = [] {
        SloEngine eng(oneTenantConfig(0.1, 0.9));
        for (int i = 0; i < 50; ++i)
            eng.recordCompletion("t0", 0.07 * i,
                                 (i % 7 == 0) ? 0.4 : 0.05);
        eng.recordShed("t0", 1.3);
        eng.finish(4.0);
        return eng.jsonString();
    };
    std::string a = run();
    std::string b = run();
    EXPECT_EQ(a, b);
    JsonValue v;
    std::string error;
    ASSERT_TRUE(parseJson(a, &v, &error)) << error << ": " << a;
    EXPECT_EQ(v.num("window_seconds"), 1.0) << a;
    const JsonValue &tenants = v.at("tenants");
    ASSERT_EQ(tenants.kind, JsonValue::Kind::Array) << a;
    EXPECT_EQ(v.at("alerts").kind, JsonValue::Kind::Array) << a;
    ASSERT_EQ(tenants.array.size(), 1u) << a;
    EXPECT_EQ(tenants.array[0].at("totals").at("budget_consumed").kind,
              JsonValue::Kind::Number)
        << a;
}

TEST(SloEngine, FinishIsIdempotent)
{
    SloEngine eng(oneTenantConfig());
    eng.recordCompletion("t0", 0.5, 1.0);
    eng.finish(1.0);
    std::string first = eng.jsonString();
    std::size_t alerts = eng.alerts().size();
    eng.finish(1.0);
    EXPECT_EQ(eng.jsonString(), first);
    EXPECT_EQ(eng.alerts().size(), alerts);
}

} // namespace
} // namespace aquoman::obs
