#include "aquoman/device.hh"

#include <algorithm>
#include <functional>
#include <optional>
#include <set>
#include <unordered_map>
#include <utility>

#include "aquoman/pe_batch.hh"
#include "aquoman/swissknife/groupby.hh"
#include "aquoman/swissknife/kv.hh"
#include "aquoman/swissknife/streaming_sorter.hh"
#include "aquoman/swissknife/topk.hh"
#include "aquoman/transform_compiler.hh"
#include "columnstore/encoding.hh"
#include "columnstore/selection_vector.hh"
#include "common/batch_mode.hh"
#include "common/compress_mode.hh"
#include "common/decimal.hh"
#include "obs/trace.hh"
#include "relalg/eval.hh"

namespace aquoman {

namespace {

/**
 * Rows the group-by transforms and feeds at a time: whole PE-batch
 * morsels, so a query holds one chunk of transform outputs instead of
 * one column per aggregate input over the whole relation.
 */
constexpr std::int64_t kGroupFeedRows = kPeBatchRows;

/** Raised when the device must hand the query back to the host. */
struct SuspendError
{
    std::string reason;
    /// Structured classification of the suspension (Sec. VI-E).
    obs::SuspendReason code = obs::SuspendReason::UnsupportedOp;
};

/** Reference to one base table participating in a tuple table. */
struct LeafRef
{
    std::string table;
    std::string alias;
};

/** One visible column of a device relation. */
struct DevCol
{
    std::string name;
    ColumnType type = ColumnType::Int64;
    int leafIdx = -1;        ///< gather via rowids[leafIdx]
    std::string baseColumn;  ///< column in the base table
    int dataColIdx = -1;     ///< or: computed column
};

/**
 * A device-resident relation: per-tuple RowIDs into base tables plus
 * optional computed data columns (Sec. VI-D: DRAM keeps row indices
 * and keys; attribute payloads are gathered from flash on demand).
 */
struct DeviceRelation
{
    std::vector<LeafRef> leafRefs;
    std::vector<std::shared_ptr<std::vector<RowId>>> rowids;
    std::vector<RelColumn> dataCols;
    std::vector<DevCol> schema;
    std::int64_t rows = 0;

    /** DRAM slot holding this relation ("" when streaming / shared). */
    std::string dramSlot;
};

} // namespace

// =====================================================================
// Impl
// =====================================================================

struct AquomanDevice::Impl
{
    const Catalog &catalog;
    const AquomanConfig &config;
    DeviceMemoryManager dram;
    StreamingSorter sorter;
    DeviceCostModel model;
    AquomanRunStats stats;
    Executor residual;          ///< host engine for suspended work
    int slotCounter = 0;

    std::map<std::string, DeviceRelation> deviceRels;
    std::map<std::string, RelTable> stageTables;

    /** deviceSeconds at the last task boundary. */
    double taskMarkSeconds = 0.0;

    /**
     * The Table Task being accrued: its work since the last boundary,
     * that work's price split over the pipeline resources, its flash
     * bytes and predicate counts. deviceSeconds is always derived as
     * taskMarkSeconds + openTask.stages.total(), so when the task closes
     * its stage decomposition sums to its seconds bitwise and the
     * per-task seconds tile [0, deviceSeconds] exactly.
     */
    TableTaskRecord openTask;

    /** Compiled stage currently executing ("" outside the loop). */
    std::string currentStage;

    /** Simulation-trace tracks (< 0 when tracing is disabled). */
    int taskTrack = -1;
    int stageTrack = -1;

    Impl(const Catalog &cat, ControllerSwitch &sw_,
         const AquomanConfig &cfg)
        : catalog(cat), config(cfg), dram(cfg.dramBytes),
          sorter(cfg), model(cfg, sw_.dev().cfg()), residual(cat, &sw_)
    {
        // Host-residual operators report into the run's profile tree.
        residual.setProfileSink(&stats.hostOps);
    }

    // ---------------------------------------------------------- util

    /** Append @p w to the open Table Task and accrue its price. */
    void
    accrue(const WorkItem &w)
    {
        WorkPrice p = model.price(w);
        openTask.work.push_back(w);
        openTask.stages.add(p.stage, p.seconds);
        openTask.flashBytes += p.flashBytes;
        stats.deviceFlashBytes += p.flashBytes;
        stats.deviceSeconds = taskMarkSeconds + openTask.stages.total();
    }

    /**
     * Close the open Table Task: everything accrued since the last
     * boundary (work, pipeline time, flash traffic) is attributed to
     * it, so the records exactly partition the query's device totals.
     * @p rel, when rooted in a single base table, makes the task
     * shardable across the devices holding that table's stripes.
     */
    void
    recordTask(const std::string &what,
               const DeviceRelation *rel = nullptr,
               std::int64_t rows_in = -1, std::int64_t rows_out = -1)
    {
        TableTaskRecord rec = std::exchange(openTask, TableTaskRecord{});
        rec.work.shrink_to_fit(); // records outlive the run
        rec.what = what;
        rec.stage = currentStage;
        rec.rowsIn = rows_in;
        rec.rowsOut = rows_out;
        if (rel && rel->leafRefs.size() == 1)
            rec.table = rel->leafRefs[0].table;
        rec.seconds = rec.stages.total();
        rec.bottleneck = rec.stages.bottleneck();
        if (taskTrack >= 0) {
            // The marks give this span exact start/end: adjacent task
            // spans tile [0, deviceSeconds] with no gaps or overlaps.
            obs::SimTracer::global().span(
                taskTrack, rec.what, "table-task", taskMarkSeconds,
                stats.deviceSeconds,
                {obs::arg("table", rec.table),
                 obs::arg("flash_bytes", rec.flashBytes)});
        }
        taskMarkSeconds = stats.deviceSeconds;
        stats.tasks.push_back(std::move(rec));
    }

    std::string
    freshSlot(const std::string &what)
    {
        return what + "#" + std::to_string(slotCounter++);
    }

    void
    charge(const std::string &slot, std::int64_t bytes)
    {
        if (!dram.allocate(slot, bytes)) {
            stats.suspendedDram = true;
            throw SuspendError{
                "device DRAM exceeded allocating "
                    + std::to_string(bytes) + "B for " + slot,
                obs::SuspendReason::DramOverflow};
        }
        stats.deviceDramPeak = std::max(stats.deviceDramPeak,
                                        dram.peakBytes());
    }

    void
    release(const std::string &slot)
    {
        if (dram.has(slot))
            dram.free(slot);
    }

    const Table &
    baseTable(const std::string &name) const
    {
        return *catalog.get(name).table;
    }

    // ------------------------------------------------ column gathers

    /** Resolve a visible column name in @p rel. */
    const DevCol &
    resolve(const DeviceRelation &rel, const std::string &name) const
    {
        for (const auto &c : rel.schema) {
            if (c.name == name)
                return c;
        }
        throw SuspendError{"column '" + name
                           + "' not visible in device relation"};
    }

    /**
     * Gather one visible column at the tuple positions @p pos (every
     * tuple when @p pos is null).
     * @param account when true, charge the column's flash read through
     *        chargeGather; callers that evaluate only some tuples charge
     *        it themselves, so the modelled traffic is independent of
     *        the evaluation strategy
     */
    RelColumn
    gather(const DeviceRelation &rel, const std::string &name,
           bool account, const std::vector<std::int64_t> *pos = nullptr)
    {
        const DevCol &dc = resolve(rel, name);
        if (dc.dataColIdx >= 0) {
            // Device DRAM read: no flash traffic.
            RelColumn out = rel.dataCols[dc.dataColIdx];
            out.name = name;
            if (pos)
                out.vals = std::make_shared<std::vector<std::int64_t>>(
                    gatherValues(*out.vals, *pos));
            return out;
        }
        const Table &t = baseTable(rel.leafRefs[dc.leafIdx].table);
        const Column &src = t.col(dc.baseColumn);
        RelColumn out(name, src.type());
        if (src.type() == ColumnType::Varchar)
            out.heap = t.stringsPtr();
        const auto &ids = *rel.rowids[dc.leafIdx];
        *out.vals = pos ? gatherValues(src.data(), gatherValues(ids, *pos))
                        : gatherValues(src.data(), ids);
        if (account)
            chargeGather(rel, name);
        return out;
    }

    /**
     * Charge the flash read gather(rel, name, true) accounts, without
     * materializing values: one Flash work item at the relation's
     * tuple density. The batched filter path streams the same
     * page-touch bytes the full-column gather models (the Row Selector
     * still reads every page the selection touches) even though the
     * simulator only evaluates the surviving rows. Encoded columns
     * (compression on and the table flash-resident) stream their
     * compressed pages.
     */
    void
    chargeGather(const DeviceRelation &rel, const std::string &name)
    {
        const DevCol &dc = resolve(rel, name);
        if (dc.dataColIdx >= 0)
            return; // device DRAM read: no flash traffic
        const CatalogEntry &entry =
            catalog.get(rel.leafRefs[dc.leafIdx].table);
        const Column &src = entry.table->col(dc.baseColumn);
        // String payloads stream from the column's own heap.
        std::int64_t heap = src.type() == ColumnType::Varchar
            ? columnHeapInfo(entry, dc.baseColumn).heapBytes : 0;
        WorkItem w{.width = columnTypeWidth(src.type()),
                   .rows = rel.rows,
                   .tableRows = entry.table->numRows(),
                   .heapBytes = heap};
        if (compressionEnabled() && entry.resident) {
            if (const ColumnLayoutMeta *enc = entry.resident->encodingMeta(
                    entry.table->indexOf(dc.baseColumn))) {
                w.pages = static_cast<std::int32_t>(enc->numPages());
                w.encodedBytes = enc->encodedBytes;
            }
        }
        accrue(w);
    }

    /** Receives rows [b, e) of a transform: one column of e - b
     *  values per program output. */
    using TransformSink = std::function<void(
        std::int64_t b, std::int64_t e,
        std::vector<std::vector<std::int64_t>> &outs)>;

    /**
     * Run a compiled Row Transformation Program over @p rows rows of
     * @p inputs, handing @p sink @p chunk rows at a time. Batched, the
     * kernel is compiled once per call and executed column-at-a-time
     * over contiguous kPeBatchRows morsels of flat buffers; with
     * AQUOMAN_BATCH=0 every row goes through @p array one at a time.
     * Both are bit-identical at any chunk size: the kernel keeps no
     * cross-morsel state, and its per-row fallback for programs with
     * cross-row state, like @p array, lives for the whole call.
     */
    void
    runTransform(const CompiledTransform &ct, SystolicArray &array,
                 const std::vector<RelColumn> &inputs, std::int64_t rows,
                 std::int64_t chunk, const TransformSink &sink)
    {
        std::optional<PeBatchKernel> kernel;
        if (batchExecutionEnabled())
            kernel.emplace(ct.programs, static_cast<int>(inputs.size()));
        const std::int64_t morsel = peBatchMorselRows();
        std::vector<std::int64_t> row_in, row_out;
        std::vector<const std::int64_t *> in_ptrs(inputs.size());
        std::vector<std::int64_t *> out_ptrs(ct.outputTypes.size());
        for (std::int64_t b = 0; b < rows; b += chunk) {
            std::int64_t e = std::min(rows, b + chunk);
            std::vector<std::vector<std::int64_t>> outs(
                ct.outputTypes.size(), std::vector<std::int64_t>(e - b));
            if (!kernel) {
                for (std::int64_t r = b; r < e; ++r) {
                    row_in.clear();
                    for (const auto &ic : inputs)
                        row_in.push_back(ic.get(r));
                    array.runRow(row_in, row_out);
                    for (std::size_t o = 0; o < outs.size(); ++o)
                        outs[o][r - b] = row_out[o];
                }
            } else {
                for (std::int64_t m = b; m < e; m += morsel) {
                    std::int64_t me = std::min(e, m + morsel);
                    for (std::size_t i = 0; i < inputs.size(); ++i)
                        in_ptrs[i] = inputs[i].vals->data() + m;
                    for (std::size_t o = 0; o < outs.size(); ++o)
                        out_ptrs[o] = outs[o].data() + (m - b);
                    kernel->run(in_ptrs.data(), me - m, out_ptrs.data(),
                                static_cast<int>(outs.size()));
                }
            }
            sink(b, e, outs);
        }
    }

    /** Materialise the visible columns as a host RelTable (DMA'd). */
    RelTable
    materialize(DeviceRelation &rel)
    {
        RelTable out;
        for (const auto &c : rel.schema)
            out.addColumn(gather(rel, c.name, true));
        if (rel.schema.empty()) {
            // Keep row count observable even with no visible columns.
            RelColumn dummy("__row", ColumnType::Int64);
            for (std::int64_t i = 0; i < rel.rows; ++i)
                dummy.push(i);
            out.addColumn(std::move(dummy));
        }
        stats.dmaBytes += out.residentBytes();
        return out;
    }

    /** Keep only tuples at @p keep indices. */
    static void
    compact(DeviceRelation &rel, const std::vector<std::int64_t> &keep)
    {
        for (auto &ids : rel.rowids)
            ids = std::make_shared<std::vector<RowId>>(
                gatherValues(*ids, keep));
        for (auto &dc : rel.dataCols)
            dc.vals = std::make_shared<std::vector<std::int64_t>>(
                gatherValues(*dc.vals, keep));
        rel.rows = static_cast<std::int64_t>(keep.size());
    }

    // ----------------------------------------------------- leaf scan

    static bool
    selectorEligible(const ExprPtr &e)
    {
        // Single-column comparison/equality against constants
        // (Sec. VI-A); anything else, ORs included, goes to the Row
        // Transformer. BETWEEN arrives as two conjuncts.
        std::vector<std::string> cols;
        collectColumns(e, cols);
        return cols.size() == 1
            && (e->kind == ExprKind::Compare
                || e->kind == ExprKind::InList);
    }

    /** A leaf's scan columns: on a base table, an empty list means
     *  every column. */
    std::vector<std::string>
    scanColumns(const LeafInfo &leaf) const
    {
        if (!leaf.columns.empty() || leaf.table.empty())
            return leaf.columns;
        const Table &t = baseTable(leaf.table);
        std::vector<std::string> cols;
        for (int i = 0; i < t.numColumns(); ++i)
            cols.push_back(t.col(i).name());
        return cols;
    }

    DeviceRelation
    makeBaseLeaf(const LeafInfo &leaf)
    {
        const Table &t = baseTable(leaf.table);
        DeviceRelation rel;
        rel.leafRefs.push_back({leaf.table, leaf.alias});
        auto ids = std::make_shared<std::vector<RowId>>(t.numRows());
        for (std::int64_t i = 0; i < t.numRows(); ++i)
            (*ids)[i] = i;
        rel.rowids.push_back(std::move(ids));
        rel.rows = t.numRows();
        for (const auto &c : scanColumns(leaf)) {
            DevCol dc;
            dc.name = leaf.alias.empty() ? c : leaf.alias + "." + c;
            dc.type = t.col(c).type();
            dc.leafIdx = 0;
            dc.baseColumn = c;
            rel.schema.push_back(dc);
        }
        return rel;
    }

    DeviceRelation
    makeStageLeaf(const LeafInfo &leaf)
    {
        auto it = deviceRels.find(leaf.stageRef);
        if (it == deviceRels.end()) {
            throw SuspendError{"stage '" + leaf.stageRef
                                   + "' is not device-resident",
                               obs::SuspendReason::MidPlanGroupBy};
        }
        DeviceRelation rel = it->second; // tuple-table copy (cheap ptrs)
        // Copy-on-write: rowids/dataCols are shared_ptr'd; compact()
        // replaces the vectors rather than mutating them. The copy
        // does not own the persistent stage slot.
        rel.dramSlot.clear();
        return rel;
    }

    /**
     * Count the top-level AND conjuncts of @p e, in order, that the
     * regex accelerator (LIKE, NOT LIKE) and the Row Selector's
     * predicate evaluators take; the rest go to the Row Transformer.
     */
    void
    countSelectorConjuncts(const ExprPtr &e, int &selector_preds,
                           int &regex_preds) const
    {
        if (e->kind == ExprKind::Logic && e->logicOp == LogicOp::And) {
            countSelectorConjuncts(e->children[0], selector_preds,
                                   regex_preds);
            countSelectorConjuncts(e->children[1], selector_preds,
                                   regex_preds);
        } else if (e->kind == ExprKind::Like
                   || (e->kind == ExprKind::Not
                       && e->children[0]->kind == ExprKind::Like)) {
            ++regex_preds;
        } else if (selectorEligible(e)
                   && selector_preds < config.numPredicateEvaluators) {
            ++selector_preds;
        }
    }

    /**
     * Row Selector over @p rel: the host engine's filterSelection over a
     * view that holds each predicate column once, so the device keeps
     * exactly the host's rows. A leaf scan streams every page of each
     * predicate column, in predicate order, whatever the predicate
     * keeps (compressed page-touch when the table is encoded, the raw
     * page-touch model otherwise).
     */
    void
    applyFilter(DeviceRelation &rel, const ExprPtr &pred,
                bool leaf_scan, const std::string &what)
    {
        int selector_preds = 0;
        int regex_preds = 0;
        countSelectorConjuncts(pred, selector_preds, regex_preds);
        std::vector<std::string> cols;
        collectColumns(pred, cols);
        RelTable view;
        for (const auto &c : cols) {
            if (leaf_scan)
                chargeGather(rel, c);
            view.addColumn(gather(rel, c, false));
        }
        SelectionVector sel = SelectionVector::dense(rel.rows);
        filterSelection(pred, view, sel);
        std::int64_t before = rel.rows;
        compact(rel, sel.toIndices());
        openTask.selectorPreds += selector_preds;
        openTask.regexPreds += regex_preds;
        recordTask("rowScan " + what, &rel, before, rel.rows);
    }

    /** String heap backing a visible varchar column. */
    std::shared_ptr<const StringHeap>
    heapFor(DeviceRelation &rel, const std::string &name)
    {
        const DevCol &dc = resolve(rel, name);
        if (dc.dataColIdx >= 0)
            return rel.dataCols[dc.dataColIdx].heap;
        return baseTable(rel.leafRefs[dc.leafIdx].table).stringsPtr();
    }

    /**
     * Rewrite an expression for PE compilation: string constants become
     * dictionary (heap) offsets, string IN-lists become integer lists,
     * and LIKE predicates over cacheable columns are pre-computed by
     * the regex accelerator into one-bit data columns (Sec. VI-B).
     */
    ExprPtr
    resolveForTransform(const ExprPtr &e, DeviceRelation &rel)
    {
        if (!e)
            return e;
        if (e->kind == ExprKind::Compare) {
            const ExprPtr &a = e->children[0];
            const ExprPtr &b = e->children[1];
            auto resolve_const = [&](const ExprPtr &column_side,
                                     const ExprPtr &const_side)
                -> ExprPtr {
                if (column_side->kind != ExprKind::ColRef)
                    throw SuspendError{
                        "string comparison over a computed value"};
                auto heap = heapFor(rel, column_side->column);
                AQ_ASSERT(heap, "varchar column without heap");
                std::int64_t off = heap->find(const_side->strVal);
                if (off < 0) {
                    // The constant never occurs: Eq is false, Ne true.
                    return lit(e->cmpOp == CmpOp::Ne ? 1 : 0);
                }
                auto offc = std::make_shared<Expr>();
                offc->kind = ExprKind::Const;
                offc->resultType = ColumnType::Varchar;
                offc->constVal = off;
                auto copy = std::make_shared<Expr>(*e);
                copy->children = {column_side, offc}; // column on the left
                return copy;
            };
            if (a->kind == ExprKind::ConstStr
                    && b->kind == ExprKind::ColRef)
                return resolve_const(b, a);
            if (b->kind == ExprKind::ConstStr
                    && a->kind == ExprKind::ColRef)
                return resolve_const(a, b);
        }
        if (e->kind == ExprKind::InList && !e->listStrs.empty()) {
            const ExprPtr &a = e->children[0];
            if (a->kind != ExprKind::ColRef)
                throw SuspendError{"string IN-list over computed value"};
            auto heap = heapFor(rel, a->column);
            std::vector<std::int64_t> vals;
            for (const auto &s : e->listStrs) {
                std::int64_t off = heap->find(s);
                if (off >= 0)
                    vals.push_back(off);
            }
            if (vals.empty())
                return lit(0);
            auto copy = std::make_shared<Expr>(*e);
            copy->listStrs.clear();
            copy->listVals = std::move(vals);
            return copy;
        }
        if (e->kind == ExprKind::Like) {
            // Regex accelerator: pre-process the string column into a
            // one-bit column (heap is cacheable; the task compiler has
            // already rejected big-heap patterns).
            const ExprPtr &a = e->children[0];
            if (a->kind != ExprKind::ColRef)
                throw SuspendError{"LIKE over a computed value",
                                   obs::SuspendReason::StringHeapRegex};
            RelColumn src = gather(rel, a->column, true);
            std::string name = "__regex#" + std::to_string(slotCounter++);
            RelColumn bits(name, ColumnType::Int32);
            bits.vals->reserve(rel.rows);
            for (std::int64_t r = 0; r < rel.rows; ++r)
                bits.push(likeMatch(src.str(r), e->pattern));
            DevCol dc;
            dc.name = name;
            dc.type = ColumnType::Int32;
            dc.dataColIdx = static_cast<int>(rel.dataCols.size());
            rel.dataCols.push_back(std::move(bits));
            rel.schema.push_back(dc);
            ++openTask.regexPreds;
            return col(name);
        }
        auto copy = std::make_shared<Expr>(*e);
        for (auto &c : copy->children)
            c = resolveForTransform(c, rel);
        return copy;
    }

    void
    applyProject(DeviceRelation &rel,
                 const std::vector<NamedExpr> &projections_in)
    {
        std::vector<NamedExpr> projections;
        for (const auto &ne : projections_in)
            projections.push_back({ne.name,
                                   resolveForTransform(ne.expr, rel)});
        std::vector<DevCol> new_schema;
        std::vector<NamedExpr> computed;
        std::vector<RelColumn> new_data;
        for (const auto &ne : projections) {
            if (ne.expr->kind == ExprKind::ColRef) {
                DevCol dc = resolve(rel, ne.expr->column);
                dc.name = ne.name;
                if (dc.dataColIdx >= 0) {
                    // Pass-through of a computed column: carry the
                    // values into the new data-column set.
                    RelColumn copy = rel.dataCols[dc.dataColIdx];
                    copy.name = ne.name;
                    dc.dataColIdx = static_cast<int>(new_data.size());
                    new_data.push_back(std::move(copy));
                }
                new_schema.push_back(dc);
            } else {
                DevCol dc;
                dc.name = ne.name;
                dc.dataColIdx = -2; // patched below
                new_schema.push_back(dc);
                computed.push_back(ne);
            }
        }
        if (!computed.empty()) {
            // Compile the Row Transformation Program and actually run
            // every tuple through the systolic array.
            std::map<std::string, ColumnType> schema_types;
            for (const auto &c : rel.schema)
                schema_types[c.name] = c.type;
            TransformResult tr = compileTransform(computed, schema_types,
                                                  config, true);
            if (!tr.ok())
                throw SuspendError{"row transform not compilable: "
                                   + tr.error};
            const CompiledTransform &ct = *tr.program;
            std::vector<RelColumn> inputs;
            for (const auto &icol : ct.inputColumns)
                inputs.push_back(gather(rel, icol, true));
            SystolicArray array = ct.buildArray();
            std::vector<std::vector<std::int64_t>> outs(
                ct.outputTypes.size());
            runTransform(ct, array, inputs, rel.rows, rel.rows,
                         [&](std::int64_t, std::int64_t, auto &o) {
                             outs = std::move(o);
                         });
            stats.transformedRows += rel.rows;
            accrue({.kind = WorkKind::Transform,
                    .programLen = array.maxProgramLength(),
                    .rows = rel.rows});
            // Computed columns follow the pass-through data columns.
            int next_data = static_cast<int>(new_data.size());
            for (std::size_t o = 0; o < computed.size(); ++o) {
                new_data.emplace_back(computed[o].name, ct.outputTypes[o]);
                *new_data.back().vals = std::move(outs[o]);
            }
            for (auto &dc : new_schema) {
                if (dc.dataColIdx == -2) {
                    dc.dataColIdx = next_data++;
                    dc.type = new_data[dc.dataColIdx].type;
                }
            }
            recordTask("rowTransf", &rel, rel.rows, rel.rows);
        }
        // Transform outputs stream directly into the next pipeline
        // stage (Sec. IV: "without materialising it in DRAM"), so no
        // device DRAM is charged here; persistent stage outputs are
        // charged when they are parked (runDeviceStage).
        rel.dataCols = std::move(new_data);
        rel.schema = std::move(new_schema);
    }

    void
    applyOps(DeviceRelation &rel, const std::vector<StageOp> &ops,
             bool leaf_scan, const std::string &what)
    {
        for (const auto &op : ops) {
            if (op.kind == StageOp::Kind::Filter)
                applyFilter(rel, op.predicate, leaf_scan, what);
            else
                applyProject(rel, op.projections);
        }
    }

    // ---------------------------------------------------------- join

    /**
     * Bytes per RowID: MonetDB oids (and the paper's sorter value
     * lanes, Table IV) are 64-bit. Tiny dimension tables (nation,
     * region) dictionary-compress to one byte at any scale.
     */
    std::int64_t
    bytesPerRowId(std::int64_t rows) const
    {
        // TPC-H's nation/region tables do not grow with the scale
        // factor, so small tables stay one-byte at any paper scale.
        return rows < 256 ? 1 : 8;
    }

    std::int64_t
    relationDramBytes(const DeviceRelation &rel) const
    {
        std::int64_t total =
            static_cast<std::int64_t>(rel.dataCols.size()) * rel.rows * 8;
        for (std::size_t i = 0; i < rel.rowids.size(); ++i) {
            const auto &ids = *rel.rowids[i];
            std::int64_t table_rows =
                baseTable(rel.leafRefs[i].table).numRows();
            std::int64_t bytes = rel.rows * bytesPerRowId(table_rows);
            if (std::is_sorted(ids.begin(), ids.end())) {
                // Sorted RowID sets store as row masks (maskSrc form).
                bytes = std::min(bytes, table_rows / 8 + 1);
            }
            total += bytes;
        }
        return total;
    }

    /**
     * Drop RowID columns (backward pointers) no longer needed above
     * this point of the join tree -- the paper keeps only "row indices
     * of tables and join keys" in DRAM (Sec. VI-D).
     */
    void
    pruneRelation(DeviceRelation &rel,
                  const std::set<std::string> &needed) const
    {
        std::vector<char> leaf_live(rel.leafRefs.size(), 0);
        for (const auto &c : rel.schema) {
            if (c.leafIdx >= 0 && needed.count(c.name))
                leaf_live[c.leafIdx] = 1;
        }
        std::vector<int> leaf_map(rel.leafRefs.size(), -1);
        std::vector<LeafRef> refs;
        std::vector<std::shared_ptr<std::vector<RowId>>> ids;
        for (std::size_t i = 0; i < rel.leafRefs.size(); ++i) {
            if (leaf_live[i]) {
                leaf_map[i] = static_cast<int>(refs.size());
                refs.push_back(rel.leafRefs[i]);
                ids.push_back(rel.rowids[i]);
            }
        }
        std::vector<DevCol> schema;
        for (const auto &c : rel.schema) {
            if (c.leafIdx >= 0) {
                if (leaf_map[c.leafIdx] >= 0) {
                    DevCol dc = c;
                    dc.leafIdx = leaf_map[c.leafIdx];
                    schema.push_back(dc);
                }
            } else {
                schema.push_back(c); // computed columns always kept
            }
        }
        rel.leafRefs = std::move(refs);
        rel.rowids = std::move(ids);
        rel.schema = std::move(schema);
    }

    /** Is @p name a dense-primary-key column of its base table? */
    bool
    isDensePk(const DeviceRelation &rel, const std::string &name) const
    {
        const DevCol &dc = resolve(rel, name);
        if (dc.leafIdx < 0)
            return false;
        const CatalogEntry &e =
            catalog.get(rel.leafRefs[dc.leafIdx].table);
        return !e.densePrimaryKey.empty()
            && e.densePrimaryKey == dc.baseColumn;
    }

    /** <key, tupleIdx> stream of the key column @p c. */
    static KvStream
    keyStream(const RelColumn &c)
    {
        KvStream s(c.size());
        for (std::int64_t i = 0; i < c.size(); ++i)
            s[i] = {c.get(i), i};
        return s;
    }

    /** Sort an unordered key stream with the streaming sorter. */
    void
    sortStream(KvStream &s, const std::string &what)
    {
        std::string slot = freshSlot("sort");
        charge(slot, static_cast<std::int64_t>(s.size()) * kKvBytes);
        SorterStats st = sorter.sort(s, true);
        accrue({.kind = WorkKind::Sort, .folded = st.folded,
                .rows = st.recordsIn, .alternation = st.alternationRate});
        recordTask("sort " + what, nullptr,
                   static_cast<std::int64_t>(s.size()),
                   static_cast<std::int64_t>(s.size()));
        release(slot);
        // The sorted run stays resident until the merge completes.
        charge(freshSlot("sorted"),
               static_cast<std::int64_t>(s.size()) * kKvBytes);
    }

    /**
     * Evaluate the residual predicate (plus trailing key equalities)
     * over candidate tuple pairs; returns the passing pair positions.
     */
    SelectionVector
    residualMask(DeviceRelation &l, DeviceRelation &r,
                 const ShapeNode &node,
                 const std::vector<std::int64_t> &li,
                 const std::vector<std::int64_t> &ri)
    {
        ExprPtr pred = node.residual;
        for (std::size_t k = 1; k < node.leftKeys.size(); ++k) {
            ExprPtr e = eq(col(node.leftKeys[k]), col(node.rightKeys[k]));
            pred = pred ? andE(pred, e) : e;
        }
        SelectionVector pass =
            SelectionVector::dense(static_cast<std::int64_t>(li.size()));
        if (!pred)
            return pass;
        std::vector<std::string> cols;
        collectColumns(pred, cols);
        // Build a combined candidate view: columns resolved on either
        // side, gathered per candidate pair.
        RelTable view;
        for (const auto &cname : cols) {
            bool from_left = true;
            try {
                resolve(l, cname);
            } catch (const SuspendError &) {
                from_left = false;
            }
            DeviceRelation &side = from_left ? l : r;
            const std::vector<std::int64_t> &idx = from_left ? li : ri;
            // The full column's flash charge; values are fetched at the
            // candidate pairs only.
            view.addColumn(gather(side, cname, true, &idx));
        }
        filterSelection(pred, view, pass);
        return pass;
    }

    /**
     * Suspend when one key of the sorted streams @p ls and @p rs would
     * pair more tuples than the merger bounds, before any pair is made.
     */
    static void
    checkFanOut(const KvStream &ls, const KvStream &rs)
    {
        std::size_t i = 0, j = 0;
        while (i < ls.size() && j < rs.size()) {
            std::int64_t key = std::min(ls[i].key, rs[j].key);
            std::size_t i0 = i, j0 = j;
            while (i < ls.size() && ls[i].key == key)
                ++i;
            while (j < rs.size() && rs[j].key == key)
                ++j;
            if ((i - i0) * (j - j0) > 1000000) {
                throw SuspendError{
                    "join key fan-out too large for the merger"};
            }
        }
    }

    /**
     * Reorder the pairs (@p li, @p ri), which come left tuple
     * ascending and right tuple descending within one, into the order
     * a merge of the sorted streams emits them: key-major along the
     * sorted left stream @p ls, right tuple ascending within a left
     * tuple. Later joins' sort decisions and Swissknife spills read
     * this order.
     */
    static void
    mergeOrder(const KvStream &ls, std::vector<std::int64_t> &li,
               std::vector<std::int64_t> &ri)
    {
        std::vector<std::int64_t> first(ls.size() + 1, 0);
        for (std::int64_t i : li)
            ++first[i + 1];
        for (std::size_t t = 0; t < ls.size(); ++t)
            first[t + 1] += first[t];
        std::vector<std::int64_t> ml, mr;
        ml.reserve(li.size());
        mr.reserve(ri.size());
        for (const Kv &kv : ls) {
            for (std::int64_t p = first[kv.value + 1];
                 p-- > first[kv.value];) {
                ml.push_back(kv.value);
                mr.push_back(ri[p]);
            }
        }
        li = std::move(ml);
        ri = std::move(mr);
    }

    /** Append @p r's columns to @p l, tuple by tuple (inner join). */
    static void
    combine(DeviceRelation &l, const DeviceRelation &r)
    {
        AQ_ASSERT(l.rows == r.rows);
        int leaf_off = static_cast<int>(l.leafRefs.size());
        int data_off = static_cast<int>(l.dataCols.size());
        l.leafRefs.insert(l.leafRefs.end(), r.leafRefs.begin(),
                          r.leafRefs.end());
        l.rowids.insert(l.rowids.end(), r.rowids.begin(), r.rowids.end());
        l.dataCols.insert(l.dataCols.end(), r.dataCols.begin(),
                          r.dataCols.end());
        for (DevCol dc : r.schema) {
            if (dc.leafIdx >= 0)
                dc.leafIdx += leaf_off;
            if (dc.dataColIdx >= 0)
                dc.dataColIdx += data_off;
            l.schema.push_back(dc);
        }
    }

    DeviceRelation
    execJoin(const ShapeNode &node, DeviceRelation l, DeviceRelation r,
             const std::set<std::string> &needed)
    {
        if (node.leftKeys.empty())
            throw SuspendError{"keyless (broadcast) join"};
        if (node.joinType == JoinType::LeftOuter)
            throw SuspendError{"outer join has no device path"};

        // The first key pair is the hardware's 64-bit join key; the
        // residual checks the rest. Offsets into two string heaps do
        // not compare, so such a key stays on the host.
        const std::string &lkey = node.leftKeys[0];
        const std::string &rkey = node.rightKeys[0];
        RelTable lt, rt;
        lt.addColumn(gather(l, lkey, true));
        rt.addColumn(gather(r, rkey, true));
        if (lt.col(0).type == ColumnType::Varchar
            && lt.col(0).heap != rt.col(0).heap)
            throw SuspendError{"varchar join key on two string heaps"};

        bool probe_right = isDensePk(r, rkey);
        bool probe_left = !probe_right
            && node.joinType == JoinType::Inner && isDensePk(l, lkey);
        std::vector<std::int64_t> li, ri;
        if (probe_right || probe_left) {
            // RowID probe (MonetDB materialised-RowID optimisation):
            // the PK side is priced as a direct-index structure over
            // its base table's row space and the other side streams
            // past it, so pairs come out in the streaming side's order.
            DeviceRelation &pk = probe_right ? r : l;
            const DevCol &dc = resolve(pk, probe_right ? rkey : lkey);
            std::int64_t domain =
                baseTable(pk.leafRefs[dc.leafIdx].table).numRows();
            std::string slot = freshSlot("probe");
            charge(slot, domain * bytesPerRowId(domain));
            if (probe_right)
                equiJoinCandidates(lt, {0}, rt, {0}, li, ri);
            else
                equiJoinCandidates(rt, {0}, lt, {0}, ri, li);
            release(slot);
        } else {
            // Sort-merge path: streams already in key order skip the
            // streaming sorter (MonetDB keeps base tables in RowID
            // order, so fact-table foreign keys like l_orderkey arrive
            // sorted).
            KvStream ls = keyStream(lt.col(0));
            KvStream rs = keyStream(rt.col(0));
            auto by_key = [](const Kv &a, const Kv &b) {
                return a.key < b.key;
            };
            if (!std::is_sorted(ls.begin(), ls.end(), by_key))
                sortStream(ls, "left " + lkey);
            if (!std::is_sorted(rs.begin(), rs.end(), by_key))
                sortStream(rs, "right " + rkey);
            checkFanOut(ls, rs);
            accrue({.kind = WorkKind::Merge,
                    .rows = static_cast<std::int64_t>(ls.size()
                                                      + rs.size())});
            equiJoinCandidates(lt, {0}, rt, {0}, li, ri);
            if (node.joinType == JoinType::Inner)
                mergeOrder(ls, li, ri);
        }

        // Semi/anti keep left tuples by match status (unmatched left
        // tuples need no candidate pair); inner appends the right side.
        std::vector<std::int64_t> fl, fr;
        joinOutputRows(node.joinType, li, ri,
                       residualMask(l, r, node, li, ri), l.rows, fl, fr);
        DeviceRelation out = l;
        compact(out, fl);
        if (node.joinType == JoinType::Inner) {
            DeviceRelation matched = r;
            compact(matched, fr);
            combine(out, matched);
        }
        pruneRelation(out, needed);
        out.dramSlot = freshSlot("tuples");
        charge(out.dramSlot, relationDramBytes(out));
        // Inputs consumed by this Table Task are garbage-collected
        // immediately (Sec. VI-D).
        if (!l.dramSlot.empty())
            release(l.dramSlot);
        if (!r.dramSlot.empty())
            release(r.dramSlot);
        recordTask("join " + lkey + "=" + rkey, nullptr, l.rows + r.rows,
                   out.rows);
        return out;
    }

    // -------------------------------------------------- aggregation

    RelTable
    execGroupBy(DeviceRelation &rel, const GroupBySpec &spec)
    {
        // Aggregate inputs become one Row Transformation Program.
        std::map<std::string, ColumnType> schema_types;
        for (const auto &c : rel.schema)
            schema_types[c.name] = c.type;

        std::vector<NamedExpr> agg_inputs;
        std::vector<HwAgg> hw;
        // outIdx -> slot of value (-1 for Count). The device path never
        // sees NULLs, so every Count/Avg denominator equals the group's
        // row count: all of them share ONE Cnt slot (this is how q1's
        // eight aggregates fit eight bucket slots).
        struct Slot { int value; AggKind kind; ColumnType inType; };
        std::vector<Slot> slots;
        bool shared_cnt = false;
        auto shared_count_slot = [&]() {
            if (!shared_cnt)
                hw.push_back(HwAgg::Cnt);
            shared_cnt = true;
        };
        // transformIdx per aggregate: index into the PE program's
        // outputs (-1 for pure counts, which need no value stream).
        std::vector<int> transform_idx;
        for (const auto &a : spec.aggregates) {
            ColumnType in_type = ColumnType::Int64;
            Slot s{-1, a.kind, in_type};
            int tix = -1;
            switch (a.kind) {
              case AggKind::Sum:
                s.value = static_cast<int>(hw.size());
                hw.push_back(HwAgg::Sum);
                break;
              case AggKind::Min:
                s.value = static_cast<int>(hw.size());
                hw.push_back(HwAgg::Min);
                break;
              case AggKind::Max:
                s.value = static_cast<int>(hw.size());
                hw.push_back(HwAgg::Max);
                break;
              case AggKind::Count:
                shared_count_slot();
                break;
              case AggKind::Avg:
                s.value = static_cast<int>(hw.size());
                hw.push_back(HwAgg::Sum);
                shared_count_slot();
                break;
              case AggKind::CountDistinct:
                throw SuspendError{"count(distinct) on device"};
            }
            if (s.value >= 0) {
                AQ_ASSERT(a.input, "value aggregate without input");
                tix = static_cast<int>(agg_inputs.size());
                agg_inputs.push_back(
                    {a.name, resolveForTransform(a.input, rel)});
            }
            transform_idx.push_back(tix);
            slots.push_back(s);
        }
        if (static_cast<int>(hw.size()) > config.aggSlotsPerBucket) {
            throw SuspendError{
                "aggregate needs " + std::to_string(hw.size())
                + " bucket slots, hardware has "
                + std::to_string(config.aggSlotsPerBucket)};
        }

        std::optional<CompiledTransform> ct;
        std::optional<SystolicArray> array;
        std::vector<RelColumn> inputs;
        if (!agg_inputs.empty()) {
            TransformResult tr = compileTransform(agg_inputs,
                                                  schema_types, config,
                                                  true);
            if (!tr.ok())
                throw SuspendError{"aggregate transform: " + tr.error};
            ct = std::move(*tr.program);
            for (std::size_t i = 0; i < slots.size(); ++i) {
                if (transform_idx[i] >= 0)
                    slots[i].inType = ct->outputTypes[transform_idx[i]];
            }
            for (const auto &icol : ct->inputColumns)
                inputs.push_back(gather(rel, icol, true));
            array.emplace(ct->buildArray());
        }
        std::vector<RelColumn> group_cols;
        for (const auto &g : spec.groupColumns)
            group_cols.push_back(gather(rel, g, true));

        GroupByAccelerator gb(config,
                              static_cast<int>(spec.groupColumns.size()),
                              hw);
        // The transform runs one chunk of rows at a time, and the
        // accelerator takes each chunk's group and value columns
        // directly, in row order, so spill behaviour matches a per-row
        // feed while only one chunk of transform outputs is live.
        std::vector<const std::int64_t *> id_cols(group_cols.size());
        std::vector<const std::int64_t *> val_cols(hw.size(), nullptr);
        auto feed = [&](std::int64_t b, std::int64_t e,
                        std::vector<std::vector<std::int64_t>> &tcols) {
            for (std::size_t g = 0; g < group_cols.size(); ++g)
                id_cols[g] = group_cols[g].vals->data() + b;
            for (std::size_t s = 0; s < slots.size(); ++s) {
                if (slots[s].value >= 0)
                    val_cols[slots[s].value] =
                        tcols[transform_idx[s]].data();
            }
            gb.update(id_cols, val_cols, e - b);
        };
        if (array) {
            runTransform(*ct, *array, inputs, rel.rows, kGroupFeedRows,
                         feed);
        } else {
            // Counts only: no value stream, one feed of every row.
            std::vector<std::vector<std::int64_t>> none;
            feed(0, rel.rows, none);
        }
        stats.transformedRows += rel.rows;
        // Without aggregate inputs, each row vector still takes one
        // cycle to feed the accelerator.
        accrue({.kind = WorkKind::GroupBy,
                .programLen = array ? array->maxProgramLength() : 1,
                .rows = rel.rows,
                .spillRows = gb.stats().rowsSpilled});
        stats.spillRows += gb.stats().rowsSpilled;
        stats.spillGroups += gb.stats().groupsSpilled;
        stats.hostResidual.rowOps += gb.stats().rowsSpilled;

        GroupColumns groups = gb.finish();
        const std::int64_t ngroups = groups.size();

        RelTable out;
        for (std::size_t g = 0; g < spec.groupColumns.size(); ++g) {
            RelColumn c(spec.groupColumns[g], group_cols[g].type);
            c.heap = group_cols[g].heap;
            *c.vals = std::move(groups.ids[g]);
            out.addColumn(std::move(c));
        }
        // No NULL reaches the device, so each group's row count is every
        // aggregate's count of contributing inputs.
        bool empty_global = ngroups == 0 && spec.groupColumns.empty();
        for (std::size_t s = 0; s < slots.size(); ++s) {
            const Slot &slot = slots[s];
            out.addColumn(finalizeAggregate(
                spec.aggregates[s].name, slot.kind, slot.inType,
                slot.value >= 0 ? groups.aggregates[slot.value].data()
                                : nullptr,
                groups.rows.data(), ngroups, empty_global));
        }
        recordTask("aggregate", &rel, rel.rows, out.numRows());
        return out;
    }

    // ----------------------------------------------------- stage run

    DeviceRelation
    evalNode(const StageShape &shape, int node_idx,
             const std::set<std::string> &needed)
    {
        const ShapeNode &node = shape.nodes[node_idx];
        if (node.isLeaf) {
            const LeafInfo &leaf = shape.leaves[node.leaf];
            DeviceRelation rel = leaf.table.empty() ? makeStageLeaf(leaf)
                                                    : makeBaseLeaf(leaf);
            applyOps(rel, leaf.ops, true,
                     leaf.table.empty() ? leaf.stageRef : leaf.table);
            return rel;
        }
        // Children additionally need this join's keys and residual.
        std::set<std::string> child_needed = needed;
        for (const auto &k : node.leftKeys)
            child_needed.insert(k);
        for (const auto &k : node.rightKeys)
            child_needed.insert(k);
        if (node.residual) {
            std::vector<std::string> cols;
            collectColumns(node.residual, cols);
            child_needed.insert(cols.begin(), cols.end());
        }
        DeviceRelation l = evalNode(shape, node.left, child_needed);
        DeviceRelation r = evalNode(shape, node.right, child_needed);
        return execJoin(node, std::move(l), std::move(r), needed);
    }

    /** Run post-ops / order-by on the host engine (residual work). */
    RelTable
    hostFinish(RelTable table, const std::vector<StageOp> &ops,
               const std::vector<SortKey> &sort_keys, std::int64_t limit)
    {
        PlanPtr p = scanStage("__device_out");
        for (const auto &op : ops) {
            if (op.kind == StageOp::Kind::Filter)
                p = filter(p, op.predicate);
            else
                p = project(p, op.projections);
        }
        if (!sort_keys.empty())
            p = orderBy(p, sort_keys, limit);
        std::map<std::string, RelTable> env;
        env["__device_out"] = std::move(table);
        return residual.runPlan(p, env);
    }

    /** Execute one device-eligible stage. */
    void
    runDeviceStage(const Stage &stage, const StageShape &shape)
    {
        // Columns the pipeline above the join tree will touch; when
        // the stage has neither a final projection nor a group-by, the
        // full width is needed and nothing can be pruned.
        std::set<std::string> needed;
        bool narrow = shape.groupBy.has_value();
        for (const auto &op : shape.rootOps) {
            if (op.kind == StageOp::Kind::Project)
                narrow = true;
            std::vector<std::string> cols;
            if (op.predicate)
                collectColumns(op.predicate, cols);
            for (const auto &ne : op.projections)
                collectColumns(ne.expr, cols);
            needed.insert(cols.begin(), cols.end());
        }
        if (shape.groupBy) {
            for (const auto &g : shape.groupBy->groupColumns)
                needed.insert(g);
            for (const auto &a : shape.groupBy->aggregates) {
                if (a.input) {
                    std::vector<std::string> cols;
                    collectColumns(a.input, cols);
                    needed.insert(cols.begin(), cols.end());
                }
            }
        }
        if (!narrow) {
            for (const auto &leaf : shape.leaves) {
                for (const auto &c : scanColumns(leaf)) {
                    needed.insert(leaf.alias.empty()
                                      ? c : leaf.alias + "." + c);
                }
            }
            needed.insert("__everything__");
        }

        DeviceRelation root = evalNode(shape, shape.root, needed);
        applyOps(root, shape.rootOps, false, "root");

        if (shape.groupBy) {
            RelTable grouped = execGroupBy(root, *shape.groupBy);
            if (!root.dramSlot.empty())
                release(root.dramSlot);
            stats.dmaBytes += grouped.residentBytes();
            RelTable final = hostFinish(std::move(grouped),
                                        shape.postOps, shape.sortKeys,
                                        shape.limit);
            stageTables[stage.id] = std::move(final);
            return;
        }
        if (shape.postOps.empty() && shape.limit > 0
                && shape.sortKeys.size() == 1
                && resolve(root, shape.sortKeys[0].column).type
                       != ColumnType::Varchar) {
            // TOPK in the SQL Swissknife: a bitonic-sorter + VCAS chain
            // keeps the k biggest keys (Sec. VI-C, Fig. 13).
            RelColumn keys = gather(root, shape.sortKeys[0].column,
                                    true);
            bool desc = shape.sortKeys[0].descending;
            TopKAccelerator topk(static_cast<int>(shape.limit),
                                 kRowVectorSize);
            for (std::int64_t r = 0; r < root.rows; ++r)
                topk.push({desc ? keys.get(r) : -keys.get(r), r});
            KvStream best = topk.finish();
            std::vector<std::int64_t> keep;
            for (const Kv &kv : best)
                keep.push_back(kv.value);
            std::int64_t before = root.rows;
            compact(root, keep);
            recordTask("topk", &root, before, root.rows);
            stageTables[stage.id] = materialize(root);
            return;
        }
        if (!shape.sortKeys.empty() || !shape.postOps.empty()) {
            // Sorted / post-processed outputs ship to the host.
            stageTables[stage.id] = hostFinish(
                materialize(root), shape.postOps, shape.sortKeys,
                shape.limit);
            return;
        }
        // Plain tuple output stays device-resident; it is the only
        // intermediate that must persist across Table Tasks, so it is
        // what device DRAM really holds (Sec. VI-D).
        if (!root.dramSlot.empty())
            release(root.dramSlot);
        root.dramSlot = freshSlot("stage:" + stage.id);
        charge(root.dramSlot, relationDramBytes(root));
        deviceRels[stage.id] = std::move(root);
    }

    /** Execute one stage on the host (materialising device inputs). */
    void
    runHostStage(const Stage &stage)
    {
        // Materialise any device-resident stage this plan consumes.
        std::vector<PlanPtr> work{stage.plan};
        while (!work.empty()) {
            PlanPtr p = work.back();
            work.pop_back();
            if (p->kind == PlanKind::Scan && !p->scanStage.empty()
                    && !stageTables.count(p->scanStage)) {
                auto it = deviceRels.find(p->scanStage);
                if (it != deviceRels.end())
                    stageTables[p->scanStage] = materialize(it->second);
            }
            for (const auto &c : p->children)
                work.push_back(c);
        }
        stageTables[stage.id] = residual.runPlan(stage.plan, stageTables);
    }
};

// =====================================================================
// AquomanDevice
// =====================================================================

AquomanDevice::AquomanDevice(const Catalog &cat, ControllerSwitch &sw,
                             AquomanConfig cfg)
    : catalog(cat), flashSwitch(sw), config(std::move(cfg))
{
}

OffloadedQueryResult
AquomanDevice::runQuery(const Query &q)
{
    Impl impl(catalog, flashSwitch, config);
    TaskCompiler compiler(catalog, config);
    OffloadedQueryResult out;
    out.compilation = compiler.compile(q);

    obs::SimTracer &tracer = obs::SimTracer::global();
    if (tracer.enabled()) {
        std::string label =
            config.traceLabel.empty() ? q.name : config.traceLabel;
        if (label.empty())
            label = "query";
        impl.taskTrack =
            tracer.track("aquoman:" + label, "table-tasks");
        impl.stageTrack = tracer.track("aquoman:" + label, "stages");
    }

    bool degraded = false; // a runtime suspension poisons later stages
    for (std::size_t s = 0; s < q.stages.size(); ++s) {
        const Stage &stage = q.stages[s];
        const StageDecision &d = out.compilation.stages[s];
        impl.currentStage = stage.id;
        bool try_device = d.onDevice && !degraded;
        if (try_device) {
            // A runtime-degraded dependency forces the host path.
            for (const auto &leaf : d.shape.leaves) {
                if (!leaf.stageRef.empty()
                        && !impl.deviceRels.count(leaf.stageRef)
                        && impl.stageTables.count(leaf.stageRef)) {
                    try_device = false;
                    break;
                }
            }
        }
        if (try_device) {
            double stage_t0 = impl.stats.deviceSeconds;
            try {
                impl.runDeviceStage(stage, d.shape);
                impl.stats.deviceStages.push_back(stage.id);
                if (impl.stageTrack >= 0) {
                    tracer.span(impl.stageTrack, "stage " + stage.id,
                                "device-stage", stage_t0,
                                impl.stats.deviceSeconds);
                }
                continue;
            } catch (const SuspendError &e) {
                impl.stats.suspensions.push_back(
                    {stage.id, e.code, e.reason});
                ++impl.stats.hostResidual.suspendCount;
                if (e.code == obs::SuspendReason::DramOverflow)
                    degraded = true;
                if (impl.stageTrack >= 0) {
                    tracer.instant(
                        impl.stageTrack, "suspend " + stage.id,
                        "device-stage", impl.stats.deviceSeconds,
                        {obs::arg("reason", e.reason)});
                }
                // Roll back partial allocations of this stage.
                impl.dram.reset();
                impl.deviceRels.erase(stage.id);
                impl.runHostStage(stage);
                continue;
            }
        }
        impl.stats.suspensions.push_back(
            {stage.id,
             d.onDevice ? obs::SuspendReason::DramOverflow
                        : d.reasonCode,
             d.onDevice ? "degraded dependency" : d.reason});
        if (impl.stageTrack >= 0) {
            tracer.instant(impl.stageTrack, "host stage " + stage.id,
                           "host-stage", impl.stats.deviceSeconds,
                           {obs::arg("reason", d.onDevice
                                     ? "degraded dependency"
                                     : d.reason)});
        }
        impl.runHostStage(stage);
    }

    impl.currentStage.clear();
    // The answer is the last stage's table (materialise if needed).
    const std::string &last = q.stages.back().id;
    if (!impl.stageTables.count(last)) {
        auto it = impl.deviceRels.find(last);
        AQ_ASSERT(it != impl.deviceRels.end(), "no result for stage ",
                  last);
        impl.stageTables[last] = impl.materialize(it->second);
    }
    out.result = impl.stageTables[last];
    // Work accrued after the last explicit Table Task (final gathers,
    // result DMA) becomes one closing record so the structured trace
    // partitions the totals exactly.
    impl.stats.tasksExecuted =
        static_cast<std::int64_t>(impl.stats.tasks.size());
    if (impl.stats.deviceSeconds > impl.taskMarkSeconds
            || impl.openTask.flashBytes > 0)
        impl.recordTask("epilogue: gathers + result DMA");
    impl.stats.hostResidual.merge(impl.residual.metrics());
    // Everything the host touched to finish the query: DMA'd device
    // output plus the base-table bytes of suspended stages.
    impl.stats.hostResidual.hostFinishBytes =
        impl.stats.dmaBytes + impl.stats.hostResidual.touchedBaseBytes;
    out.stats = std::move(impl.stats);
    return out;
}

} // namespace aquoman
