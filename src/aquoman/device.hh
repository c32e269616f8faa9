/**
 * @file
 * The AQUOMAN device executor. Executes the device-eligible stages of a
 * compiled query through the modelled pipeline — Row Selector masks,
 * Row Transformer PE programs, SQL Swissknife group-by/sort/merge — and
 * runs the remaining stages on the host engine, exactly as the paper's
 * suspension mechanism does (Sec. VI-E). Results are bit-exact with the
 * baseline engine; alongside them it produces the performance trace
 * (device seconds, flash traffic, DRAM peak, spill-over, DMA) the
 * evaluation benches consume.
 *
 * Join strategies follow Sec. VI-D:
 *  - already-sorted streams merge directly (e.g. lineitem/orders are
 *    stored in orderkey order), costing no device DRAM;
 *  - a side keyed by a dense primary key becomes a RowID probe
 *    structure (MonetDB's materialised-RowID optimisation);
 *  - otherwise the 1GB-block streaming sorter sorts <key,RowID> pairs
 *    and a sort-merge joins them.
 * The device prices each strategy; the candidate pairs themselves come
 * from the host engine's equiJoinCandidates, so both engines run one
 * join.
 * Device DRAM overflow raises a suspension: the stage (and the rest of
 * the query) falls back to the host.
 */

#ifndef AQUOMAN_AQUOMAN_DEVICE_HH
#define AQUOMAN_AQUOMAN_DEVICE_HH

#include <map>
#include <string>
#include <vector>

#include "aquoman/config.hh"
#include "aquoman/cost_model.hh"
#include "aquoman/memory_manager.hh"
#include "aquoman/task_compiler.hh"
#include "engine/executor.hh"
#include "engine/metrics.hh"
#include "obs/profile.hh"

namespace aquoman {

/**
 * One Table Task of an offloaded query, as the scheduler sees it: a
 * schedulable unit with a modelled duration and flash footprint. Tasks
 * partition the query's device timeline (their seconds and flashBytes
 * sum to the query totals), so a service can replay them against an
 * SSD array without re-deriving the pipeline model.
 */
struct TableTaskRecord
{
    /** Short description: "rowScan <table>", "join <k>=<k>", "topk"... */
    std::string what;

    /**
     * Base table this task streams from flash, when the task's input
     * relation is rooted in exactly one base table ("" otherwise —
     * multi-table joins and DRAM-resident sorts are not shardable).
     */
    std::string table;

    /** Compiled stage this task belongs to ("" for the epilogue). */
    std::string stage;

    /** Rows entering / leaving the task (-1 when not applicable). */
    std::int64_t rowsIn = -1;
    std::int64_t rowsOut = -1;

    /**
     * Modelled device seconds attributed to this task. Always equals
     * stages.total() bitwise, so per-task stage decompositions sum
     * exactly to the task's seconds and, task by task, to the query's
     * deviceSeconds.
     */
    double seconds = 0.0;

    /** Device flash bytes attributed to this task. */
    std::int64_t flashBytes = 0;

    /** The task's seconds split over the pipeline resources. */
    obs::StageSeconds stages;

    /** Bottleneck resource: argmax of @ref stages (deterministic). */
    obs::PipeStage bottleneck = obs::PipeStage::FlashRead;

    /**
     * The device work the task did, in accrual order. Pricing it with
     * DeviceCostModel::price in order reproduces @ref stages and
     * @ref flashBytes bitwise.
     */
    std::vector<WorkItem> work;

    /** Filter conjuncts on Row Selector CPEs / the regex accelerator. */
    int selectorPreds = 0;
    int regexPreds = 0;
};

/** One suspension: which stage left the device, and why. */
struct StageSuspension
{
    std::string stage;
    obs::SuspendReason reason = obs::SuspendReason::None;
    std::string detail;
};

/** Performance trace of one offloaded query. */
struct AquomanRunStats
{
    /** Modelled wall-clock seconds spent in the device pipeline. */
    double deviceSeconds = 0.0;

    /** Flash bytes the device streamed (page-granular model; encoded
     *  bytes when compression is on). */
    std::int64_t deviceFlashBytes = 0;

    /**
     * Retired zone-map page-skipping counters. The device no longer
     * sets them, so they stay 0; they remain only because
     * perfbench/main.cc still copies them, and go when that
     * benchmark is next redefined.
     */
    std::int64_t zonePagesConsidered = 0;
    std::int64_t zonePagesSkipped = 0;

    /** Peak device DRAM across the query. */
    std::int64_t deviceDramPeak = 0;

    /** Aggregate Group-By spill-over to the host. */
    std::int64_t spillRows = 0;
    std::int64_t spillGroups = 0;

    /** Device->host transfers of results and intermediates. */
    std::int64_t dmaBytes = 0;

    /** Table Tasks issued to the device (records before the epilogue). */
    std::int64_t tasksExecuted = 0;

    /** Rows processed by Row Transformer PE programs. */
    std::int64_t transformedRows = 0;

    /** Host work remaining: suspended stages, post-ops, final sorts. */
    EngineMetrics hostResidual;

    /** True when device DRAM overflow forced a suspension (cond. 4). */
    bool suspendedDram = false;

    /**
     * Structured Table-Task trace: one record per scheduled task, in
     * issue order, partitioning deviceSeconds / deviceFlashBytes
     * exactly. The query service schedules these across its SSD array.
     */
    std::vector<TableTaskRecord> tasks;

    /** Stages that executed on the device. */
    std::vector<std::string> deviceStages;

    /** Stages that executed on the host, with reasons. */
    std::vector<StageSuspension> suspensions;

    /**
     * Per-operator profile nodes collected from the host-residual
     * executor when obs::profileCollectionEnabled(); the children
     * become the host-phase subtree of the query profile.
     */
    obs::ProfileNode hostOps;
};

/** Result of running one query on the AQUOMAN-augmented system. */
struct OffloadedQueryResult
{
    RelTable result;
    AquomanRunStats stats;
    QueryCompilation compilation;
};

/** The device executor. */
class AquomanDevice
{
  public:
    /**
     * @param cat catalog of flash-resident tables
     * @param sw  flash controller switch (device reads use the
     *            AQUOMAN port)
     * @param cfg device configuration
     */
    AquomanDevice(const Catalog &cat, ControllerSwitch &sw,
                  AquomanConfig cfg);

    /** Run @p q end-to-end (device stages + host residual). */
    OffloadedQueryResult runQuery(const Query &q);

    const AquomanConfig &cfg() const { return config; }

  private:
    struct Impl;

    const Catalog &catalog;
    ControllerSwitch &flashSwitch;
    AquomanConfig config;
};

} // namespace aquoman

#endif // AQUOMAN_AQUOMAN_DEVICE_HH
