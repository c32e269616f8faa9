/** @file Unit tests for the system-level evaluation / classification. */

#include <gtest/gtest.h>

#include "aquoman/perf_model.hh"

namespace aquoman {
namespace {

EngineMetrics
baselineTrace()
{
    EngineMetrics m;
    m.rowOps = 1e11;
    m.flashBytesRead = 100ll << 30;
    m.touchedBaseBytes = 100ll << 30;
    return m;
}

TEST(PerfModelTest, FullyOffloadedQuery)
{
    AquomanRunStats aq;
    aq.deviceSeconds = 40.0;
    aq.deviceStages = {"out"};
    aq.hostResidual.rowOps = 1e6; // only the final sort
    SystemEvaluation ev = evaluateOffload(baselineTrace(), aq,
                                          HostModel(HostConfig::large()));
    EXPECT_EQ(ev.offloadClass, OffloadClass::Full);
    EXPECT_GT(ev.offloadFraction, 0.99);
    EXPECT_GT(ev.cpuSaving, 0.99);
    EXPECT_GT(ev.speedup, 1.0);
}

TEST(PerfModelTest, HostOnlyQueryIsNone)
{
    AquomanRunStats aq;
    aq.hostResidual = baselineTrace();
    aq.suspensions = {{"out", obs::SuspendReason::StringHeapRegex, "regex"}};
    SystemEvaluation ev = evaluateOffload(baselineTrace(), aq,
                                          HostModel(HostConfig::large()));
    EXPECT_EQ(ev.offloadClass, OffloadClass::None);
    EXPECT_NEAR(ev.speedup, 1.0, 0.05);
    EXPECT_NEAR(ev.cpuSaving, 0.0, 0.01);
}

TEST(PerfModelTest, SuspendedWithBigHostTailIsPartial)
{
    AquomanRunStats aq;
    aq.deviceSeconds = 20.0;
    aq.deviceStages = {"s1"};
    aq.suspensions = {
        {"out", obs::SuspendReason::MidPlanGroupBy, "mid-plan aggregate"}};
    aq.hostResidual.rowOps = 5e10; // half the baseline work remains
    SystemEvaluation ev = evaluateOffload(baselineTrace(), aq,
                                          HostModel(HostConfig::large()));
    EXPECT_EQ(ev.offloadClass, OffloadClass::Partial);
}

TEST(PerfModelTest, SuspendedWithSpillIsPartialEvenWhenFast)
{
    AquomanRunStats aq;
    aq.deviceSeconds = 40.0;
    aq.deviceStages = {"s1"};
    aq.suspensions = {
        {"out", obs::SuspendReason::MidPlanGroupBy, "mid-plan aggregate"}};
    aq.hostResidual.rowOps = 1e6;
    aq.spillGroups = 5000; // q11-style per-group spill to the host
    SystemEvaluation ev = evaluateOffload(baselineTrace(), aq,
                                          HostModel(HostConfig::large()));
    EXPECT_EQ(ev.offloadClass, OffloadClass::Partial);
}

TEST(PerfModelTest, SuspendedWithTinyCleanTailIsFull)
{
    // q15's shape: host finishes a trivial max over the aggregate.
    AquomanRunStats aq;
    aq.deviceSeconds = 40.0;
    aq.deviceStages = {"revenue"};
    aq.suspensions = {
        {"maxrev", obs::SuspendReason::MidPlanGroupBy, "aggregate output"}};
    aq.hostResidual.rowOps = 1e6;
    SystemEvaluation ev = evaluateOffload(baselineTrace(), aq,
                                          HostModel(HostConfig::large()));
    EXPECT_EQ(ev.offloadClass, OffloadClass::Full);
}

TEST(PerfModelTest, DmaCountsAgainstResidualTime)
{
    AquomanRunStats aq;
    aq.deviceSeconds = 1.0;
    aq.deviceStages = {"s"};
    aq.dmaBytes = 24ll << 30; // 10s at 2.4GB/s
    SystemEvaluation ev = evaluateOffload(baselineTrace(), aq,
                                          HostModel(HostConfig::large()));
    EXPECT_GT(ev.hostResidualSeconds, 9.0);
    EXPECT_LT(ev.offloadFraction, 0.15);
}

} // namespace
} // namespace aquoman
