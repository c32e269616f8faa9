/** @file
 * DeviceCostModel in isolation: a table of work items with the stage,
 * seconds and flash bytes each one prices to, and the repricing
 * property over TPC-H: pricing every Table Task's recorded work list in
 * order reproduces the executor's stage seconds, task seconds, flash
 * bytes and query totals bitwise, in every batch and compression mode.
 */

#include <gtest/gtest.h>

#include "aquoman/cost_model.hh"
#include "aquoman/device.hh"
#include "common/batch_mode.hh"
#include "common/compress_mode.hh"
#include "tpch/dbgen.hh"
#include "tpch/queries.hh"

namespace aquoman {
namespace {

using obs::PipeStage;

struct PriceCase
{
    const char *name;
    AquomanConfig cfg;
    WorkItem item;
    PipeStage stage;
    double seconds;
    std::int64_t flashBytes;
};

/** A pipeline slower than the 2.4 GB/s flash: the selector bounds. */
AquomanConfig
slowPipeline()
{
    AquomanConfig c;
    c.processingRate = 1.0e9;
    return c;
}

TEST(DeviceCostModelTest, PricesEachWorkKind)
{
    const AquomanConfig base;
    const FlashConfig flash; // 8 KB pages, 2.4 GB/s
    const double sort_s =
        StreamingSorter(base).modelSeconds(1000 * kKvBytes, 0.5, false);
    const double folded_s =
        StreamingSorter(base).modelSeconds(1000 * kKvBytes, 0.5, true);
    // 1,024 8-byte rows fill one 8 KB page; 8,192 rows fill eight.
    const PriceCase cases[] = {
        {"raw stream, flash-bound", base,
         {.width = 8, .rows = 1024, .tableRows = 1024},
         PipeStage::FlashRead, 8192 / 2.4e9, 8192},
        {"raw stream, selector-bound", slowPipeline(),
         {.width = 8, .rows = 1024, .tableRows = 1024},
         PipeStage::Selector, 8192 / 1.0e9, 8192},
        {"encoded, decode-bound", base,
         {.width = 8, .pages = 1, .rows = 8192, .tableRows = 8192,
          .encodedBytes = 4096},
         PipeStage::Decode, 65536 / 4.0e9, 8192},
        {"encoded, logical == bytes: no decode", base,
         {.width = 8, .pages = 1, .rows = 1024, .tableRows = 1024,
          .encodedBytes = 8192},
         PipeStage::FlashRead, 8192 / 2.4e9, 8192},
        {"varchar heap at half density", base,
         {.width = 8, .rows = 512, .tableRows = 1024, .heapBytes = 1000},
         PipeStage::FlashRead, 8692 / 2.4e9, 8692},
        {"zero-row flash", base,
         {.width = 8, .rows = 0, .tableRows = 1024, .heapBytes = 1000},
         PipeStage::FlashRead, 0.0, 0},
        {"transform", base,
         {.kind = WorkKind::Transform, .programLen = 3, .rows = 100},
         PipeStage::Transformer, 4.0 * 3 / 125e6, 0},
        {"zero-row transform", base,
         {.kind = WorkKind::Transform, .programLen = 3, .rows = 0},
         PipeStage::Transformer, 0.0, 0},
        {"sort", base,
         {.kind = WorkKind::Sort, .rows = 1000, .alternation = 0.5},
         PipeStage::Swissknife, sort_s, 0},
        {"folded sort", base,
         {.kind = WorkKind::Sort, .folded = true, .rows = 1000,
          .alternation = 0.5},
         PipeStage::Swissknife, folded_s, 0},
        {"zero-record sort", base, {.kind = WorkKind::Sort, .rows = 0},
         PipeStage::Swissknife, 0.0, 0},
        {"merge", base, {.kind = WorkKind::Merge, .rows = 1000},
         PipeStage::Swissknife, 16000 / 12.8e9, 0},
        {"group-by, transform-bound", base,
         {.kind = WorkKind::GroupBy, .programLen = 2, .rows = 64},
         PipeStage::Transformer, 2.0 * 2 / 125e6, 0},
        {"group-by, spill-bound", base,
         {.kind = WorkKind::GroupBy, .programLen = 1, .rows = 32,
          .spillRows = 1000},
         PipeStage::Swissknife, 1000 / 200e6, 0},
        // 5 vectors x 1 instruction at 125 MHz == 8 rows at 200M/s
        // (asserted exact below): a tie goes to the Transformer.
        {"group-by, tie", base,
         {.kind = WorkKind::GroupBy, .programLen = 1, .rows = 160,
          .spillRows = 8},
         PipeStage::Transformer, 5.0 / 125e6, 0},
        {"zero-row group-by", base,
         {.kind = WorkKind::GroupBy, .programLen = 1, .rows = 0},
         PipeStage::Transformer, 0.0, 0},
    };
    ASSERT_EQ(5.0 / 125e6, 8 / 200e6);
    for (const PriceCase &c : cases) {
        DeviceCostModel model(c.cfg, flash);
        WorkPrice p = model.price(c.item);
        EXPECT_EQ(p.stage, c.stage) << c.name;
        EXPECT_EQ(p.seconds, c.seconds) << c.name;
        EXPECT_EQ(p.flashBytes, c.flashBytes) << c.name;
    }
}

/**
 * Every task's work list, priced in order, reproduces the task's
 * stages, seconds and flash bytes bitwise, and the tasks summed in
 * order reproduce the query totals.
 */
void
expectRepricingExact(const DeviceCostModel &model,
                     const AquomanRunStats &st, const std::string &what)
{
    double seconds = 0.0;
    std::int64_t bytes = 0;
    for (const TableTaskRecord &t : st.tasks) {
        obs::StageSeconds stages;
        std::int64_t task_bytes = 0;
        for (const WorkItem &w : t.work) {
            WorkPrice p = model.price(w);
            stages.add(p.stage, p.seconds);
            task_bytes += p.flashBytes;
        }
        for (int s = 0; s < obs::kNumPipeStages; ++s)
            EXPECT_EQ(stages.sec[s], t.stages.sec[s])
                << what << " " << t.what;
        EXPECT_EQ(stages.total(), t.seconds) << what << " " << t.what;
        EXPECT_EQ(task_bytes, t.flashBytes) << what << " " << t.what;
        seconds += t.seconds;
        bytes += t.flashBytes;
    }
    EXPECT_EQ(seconds, st.deviceSeconds) << what;
    EXPECT_EQ(bytes, st.deviceFlashBytes) << what;
}

TEST(DeviceCostModelTest, RepricingRecordedWorkReproducesTpchRuns)
{
    constexpr double kSf = 0.01;
    const bool saved_compress = compressionEnabled();
    const bool saved_batch = batchExecutionEnabled();
    tpch::TpchConfig cfg;
    cfg.scaleFactor = kSf;
    auto db = tpch::TpchDatabase::generate(cfg);
    for (bool compress : {false, true}) {
        // The on-flash layout follows the mode at install time.
        setCompressionEnabled(compress);
        FlashConfig fc;
        fc.capacityBytes = 4ll << 30;
        FlashDevice dev(fc);
        ControllerSwitch sw(dev);
        TableStore store(sw);
        Catalog cat;
        db.installInto(cat, store);
        DeviceCostModel model(AquomanConfig::paper40(), fc);
        for (bool batch : {false, true}) {
            setBatchExecutionEnabled(batch);
            for (int q : tpch::allQueryNumbers()) {
                AquomanDevice device(cat, sw, AquomanConfig::paper40());
                OffloadedQueryResult r =
                    device.runQuery(tpch::tpchQuery(q, kSf));
                expectRepricingExact(
                    model, r.stats,
                    "q" + std::to_string(q) + " compress "
                        + std::to_string(compress) + " batch "
                        + std::to_string(batch));
            }
        }
    }
    setBatchExecutionEnabled(saved_batch);
    setCompressionEnabled(saved_compress);
}

} // namespace
} // namespace aquoman
