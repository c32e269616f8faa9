#include "aquoman/device.hh"

#include <algorithm>
#include <cmath>
#include <optional>
#include <set>
#include <unordered_map>

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
#include "relalg/pred_kernel.hh"

namespace aquoman {

namespace {

/** Raised when the device must hand the query back to the host. */
struct SuspendError
{
    std::string reason;
    bool dram = false;
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

    std::int64_t
    tupleBytes() const
    {
        return rows * 8
            * (static_cast<std::int64_t>(rowids.size())
               + static_cast<std::int64_t>(dataCols.size()));
    }
};

} // namespace

// =====================================================================
// Impl
// =====================================================================

struct AquomanDevice::Impl
{
    const Catalog &catalog;
    ControllerSwitch &sw;
    const AquomanConfig &config;
    DeviceMemoryManager dram;
    StreamingSorter sorter;
    AquomanRunStats stats;
    Executor residual;          ///< host engine for suspended work
    int slotCounter = 0;

    std::map<std::string, DeviceRelation> deviceRels;
    std::map<std::string, RelTable> stageTables;

    /** deviceSeconds / deviceFlashBytes at the last task boundary. */
    double taskMarkSeconds = 0.0;
    std::int64_t taskMarkBytes = 0;

    /**
     * Seconds accrued since the last task boundary, split over the
     * pipeline resources. deviceSeconds is always derived as
     * taskMarkSeconds + taskStages.total(), so when the task closes
     * its stage decomposition sums to its seconds bitwise and the
     * per-task seconds tile [0, deviceSeconds] exactly.
     */
    obs::StageSeconds taskStages;

    /** Compiled stage currently executing ("" outside the loop). */
    std::string currentStage;

    /** Simulation-trace tracks (< 0 when tracing is disabled). */
    int taskTrack = -1;
    int stageTrack = -1;

    Impl(const Catalog &cat, ControllerSwitch &sw_,
         const AquomanConfig &cfg)
        : catalog(cat), sw(sw_), config(cfg), dram(cfg.dramBytes),
          sorter(cfg), residual(cat, &sw_)
    {
        // Host-residual operators report into the run's profile tree.
        residual.setProfileSink(&stats.hostOps);
    }

    // ---------------------------------------------------------- util

    /**
     * Close the current Table Task: everything accrued since the last
     * boundary (pipeline time, flash traffic) is attributed to it, so
     * the records exactly partition the query's device totals. @p rel,
     * when rooted in a single base table, makes the task shardable
     * across the devices holding that table's stripes.
     */
    /** Attribute @p t modelled seconds of the current task to @p s. */
    void
    accrue(obs::PipeStage s, double t)
    {
        taskStages.add(s, t);
        stats.deviceSeconds = taskMarkSeconds + taskStages.total();
    }

    void
    recordTask(const std::string &what,
               const DeviceRelation *rel = nullptr,
               std::int64_t rows_in = -1, std::int64_t rows_out = -1)
    {
        TableTaskRecord rec;
        rec.what = what;
        rec.stage = currentStage;
        rec.rowsIn = rows_in;
        rec.rowsOut = rows_out;
        if (rel && rel->leafRefs.size() == 1)
            rec.table = rel->leafRefs[0].table;
        rec.seconds = taskStages.total();
        rec.flashBytes = stats.deviceFlashBytes - taskMarkBytes;
        rec.stages = taskStages;
        rec.bottleneck = taskStages.bottleneck();
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
        taskMarkBytes = stats.deviceFlashBytes;
        taskStages = obs::StageSeconds{};
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
                true, obs::SuspendReason::DramOverflow};
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

    /** Page-granular flash bytes to read @p selected of @p total rows. */
    std::int64_t
    pageTouchBytes(std::int64_t total_rows, int width,
                   std::int64_t selected) const
    {
        if (total_rows <= 0 || selected <= 0)
            return 0;
        std::int64_t page = sw.dev().cfg().pageBytes;
        std::int64_t rpp = std::max<std::int64_t>(1, page / width);
        double pages = std::ceil(static_cast<double>(total_rows) / rpp);
        double d = std::min(1.0, static_cast<double>(selected)
                                     / total_rows);
        double touched = pages * (1.0 - std::pow(1.0 - d,
                                                 static_cast<double>(rpp)));
        auto bytes = static_cast<std::int64_t>(touched * page);
        return std::max<std::int64_t>(bytes, selected * width);
    }

    /**
     * Account a device flash read and its streaming time, attributed
     * to the pipeline stage that bounds it: the flash channels, the
     * Row Selector's processing rate, or (when a transform program
     * consumes the stream) the Row Transformer.
     *
     * @p bytes is what actually streams off flash — encoded bytes for
     * compressed columns. The Row Selector's CPEs evaluate directly
     * on the encoded stream (all page codecs are order-preserving:
     * sorted dictionary codes, FOR deltas, RLE runs), so sel_t is
     * also priced on encoded bytes. @p logical_bytes, when larger,
     * is the decoded size the stream expands to; decompression runs
     * at the pipeline's line rate and bounds the stage only when it
     * exceeds every other resource (PipeStage::Decode). Raw streams
     * pass logical == bytes and reproduce the pre-compression math
     * bitwise.
     */
    void
    accountFlash(std::int64_t bytes, std::int64_t rows_processed = 0,
                 int transform_len = 0,
                 std::int64_t logical_bytes = -1)
    {
        stats.deviceFlashBytes += bytes;
        double flash_t = static_cast<double>(bytes)
            / sw.dev().cfg().readBandwidth;
        double sel_t =
            static_cast<double>(bytes) / config.processingRate;
        double tr_t = 0.0;
        if (rows_processed > 0 && transform_len > 0) {
            double vectors = std::ceil(static_cast<double>(rows_processed)
                                       / kRowVectorSize);
            tr_t = vectors * transform_len / config.clockHz;
        }
        double dec_t = 0.0;
        if (logical_bytes > bytes) {
            dec_t = static_cast<double>(logical_bytes)
                / config.processingRate;
        }
        double t = std::max(std::max(flash_t, dec_t),
                            std::max(sel_t, tr_t));
        obs::PipeStage bound = obs::PipeStage::FlashRead;
        if (sel_t > flash_t)
            bound = obs::PipeStage::Selector;
        if (tr_t > flash_t && tr_t > sel_t)
            bound = obs::PipeStage::Transformer;
        if (dec_t > flash_t && dec_t > sel_t && dec_t > tr_t)
            bound = obs::PipeStage::Decode;
        accrue(bound, t);
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
     * Gather the values of one visible column for every tuple.
     * @param account when true, charge flash traffic for base-table
     *        gathers (page-touch model over the tuple density)
     */
    RelColumn
    gather(const DeviceRelation &rel, const std::string &name,
           bool account)
    {
        const DevCol &dc = resolve(rel, name);
        if (dc.dataColIdx >= 0) {
            RelColumn out = rel.dataCols[dc.dataColIdx];
            out.name = name;
            return out; // device DRAM read: no flash traffic
        }
        const LeafRef &ref = rel.leafRefs[dc.leafIdx];
        const Table &t = baseTable(ref.table);
        const Column &src = t.col(dc.baseColumn);
        RelColumn out(name, src.type());
        if (src.type() == ColumnType::Varchar)
            out.heap = t.stringsPtr();
        const auto &ids = *rel.rowids[dc.leafIdx];
        out.vals->resize(ids.size());
        for (std::size_t i = 0; i < ids.size(); ++i)
            (*out.vals)[i] = src.get(ids[i]);
        if (account)
            chargeGather(rel, name);
        return out;
    }

    /** Page-block metadata of a base column when stored encoded
     *  (nullptr on raw layouts / AQUOMAN_COMPRESS=0). */
    const ColumnLayoutMeta *
    encodingFor(const LeafRef &ref, const std::string &column) const
    {
        if (!compressionEnabled())
            return nullptr;
        const CatalogEntry &entry = catalog.get(ref.table);
        if (!entry.resident)
            return nullptr;
        return entry.resident->encodingMeta(
            entry.table->indexOf(column));
    }

    /**
     * Encoded analogue of pageTouchBytes: flash bytes to read
     * @p selected of the @p rows rows held by @p pages encoded page
     * blocks (@p encoded_bytes total). Same probabilistic page-touch
     * shape, floored at the selection's share of the encoded payload.
     */
    std::int64_t
    encodedTouchBytes(std::int64_t pages, std::int64_t rows,
                      std::int64_t encoded_bytes,
                      std::int64_t selected) const
    {
        if (rows <= 0 || selected <= 0 || pages <= 0)
            return 0;
        std::int64_t page = sw.dev().cfg().pageBytes;
        double d = std::min(1.0, static_cast<double>(selected) / rows);
        double rpp = static_cast<double>(rows) / pages;
        double touched = pages * (1.0 - std::pow(1.0 - d, rpp));
        auto bytes = static_cast<std::int64_t>(touched * page);
        auto floor_bytes = static_cast<std::int64_t>(
            static_cast<double>(encoded_bytes) * d);
        return std::max(bytes, floor_bytes);
    }

    /** Heap bytes chargeable for a varchar gather at the relation's
     *  tuple density (0 for non-varchar columns). */
    std::int64_t
    gatherHeapBytes(const DeviceRelation &rel, const LeafRef &ref,
                    const DevCol &dc, const Column &src) const
    {
        if (src.type() != ColumnType::Varchar)
            return 0;
        // String payloads stream from the column's own heap.
        const CatalogEntry &entry = catalog.get(ref.table);
        const Table &t = *entry.table;
        double density = t.numRows() > 0
            ? std::min(1.0, static_cast<double>(rel.rows)
                                / t.numRows())
            : 0.0;
        return static_cast<std::int64_t>(
            columnHeapBytes(entry, dc.baseColumn) * density);
    }

    /**
     * Charge the flash traffic gather(rel, name, true) would account,
     * without materializing values. The batched filter path streams
     * the same page-touch bytes the full-column gather models (the
     * Row Selector still reads every page the selection touches) even
     * though the simulator only evaluates the surviving rows. Encoded
     * columns stream their compressed pages and expand to the raw
     * page-touch bytes in the decoder.
     */
    void
    chargeGather(const DeviceRelation &rel, const std::string &name)
    {
        const DevCol &dc = resolve(rel, name);
        if (dc.dataColIdx >= 0)
            return; // device DRAM read: no flash traffic
        const LeafRef &ref = rel.leafRefs[dc.leafIdx];
        const Table &t = baseTable(ref.table);
        const Column &src = t.col(dc.baseColumn);
        int width = columnTypeWidth(src.type());
        std::int64_t heap_bytes = gatherHeapBytes(rel, ref, dc, src);
        if (const ColumnLayoutMeta *enc =
                encodingFor(ref, dc.baseColumn)) {
            std::int64_t bytes = encodedTouchBytes(
                enc->numPages(), enc->rows, enc->encodedBytes,
                rel.rows);
            std::int64_t logical =
                pageTouchBytes(t.numRows(), width, rel.rows);
            accountFlash(bytes + heap_bytes, 0, 0,
                         logical + heap_bytes);
            return;
        }
        std::int64_t bytes =
            pageTouchBytes(t.numRows(), width, rel.rows) + heap_bytes;
        accountFlash(bytes);
    }

    /**
     * Gather one visible column at the selected tuple positions only
     * (no flash accounting; callers charge via chargeGather so the
     * modelled traffic is independent of the evaluation strategy).
     */
    RelColumn
    gatherAt(const DeviceRelation &rel, const std::string &name,
             const SelectionVector &sel)
    {
        const DevCol &dc = resolve(rel, name);
        std::int64_t n = sel.size();
        if (dc.dataColIdx >= 0) {
            const RelColumn &src = rel.dataCols[dc.dataColIdx];
            RelColumn out(name, src.type);
            out.heap = src.heap;
            out.vals->resize(n);
            for (std::int64_t i = 0; i < n; ++i)
                (*out.vals)[i] = src.get(sel[i]);
            return out;
        }
        const LeafRef &ref = rel.leafRefs[dc.leafIdx];
        const Table &t = baseTable(ref.table);
        const Column &src = t.col(dc.baseColumn);
        RelColumn out(name, src.type());
        if (src.type() == ColumnType::Varchar)
            out.heap = t.stringsPtr();
        const auto &ids = *rel.rowids[dc.leafIdx];
        out.vals->resize(n);
        for (std::int64_t i = 0; i < n; ++i)
            (*out.vals)[i] = src.get(ids[sel[i]]);
        return out;
    }

    /** gatherAt over an explicit (possibly repeated) position list. */
    RelColumn
    gatherAtIdx(const DeviceRelation &rel, const std::string &name,
                const std::vector<std::int64_t> &pos)
    {
        const DevCol &dc = resolve(rel, name);
        std::int64_t n = static_cast<std::int64_t>(pos.size());
        if (dc.dataColIdx >= 0) {
            const RelColumn &src = rel.dataCols[dc.dataColIdx];
            RelColumn out(name, src.type);
            out.heap = src.heap;
            out.vals->resize(n);
            for (std::int64_t i = 0; i < n; ++i)
                (*out.vals)[i] = src.get(pos[i]);
            return out;
        }
        const LeafRef &ref = rel.leafRefs[dc.leafIdx];
        const Table &t = baseTable(ref.table);
        const Column &src = t.col(dc.baseColumn);
        RelColumn out(name, src.type());
        if (src.type() == ColumnType::Varchar)
            out.heap = t.stringsPtr();
        const auto &ids = *rel.rowids[dc.leafIdx];
        out.vals->resize(n);
        for (std::int64_t i = 0; i < n; ++i)
            (*out.vals)[i] = src.get(ids[pos[i]]);
        return out;
    }

    /**
     * Run a compiled Row Transformation Program over @p rows rows into
     * @p outs. Batched, the kernel is compiled once per Table Task and
     * executed column-at-a-time over contiguous kPeBatchRows morsels of
     * flat buffers; with AQUOMAN_BATCH=0 every row goes through
     * @p array one at a time. Both are bit-identical (the kernel falls
     * back to the per-row loop for programs with cross-row state).
     */
    void
    runTransform(const CompiledTransform &ct, SystolicArray &array,
                 const std::vector<RelColumn> &inputs, std::int64_t rows,
                 std::vector<std::vector<std::int64_t> *> outs)
    {
        for (auto *o : outs)
            o->resize(rows);
        if (!batchExecutionEnabled()) {
            std::vector<std::int64_t> row_in, row_out;
            for (std::int64_t r = 0; r < rows; ++r) {
                row_in.clear();
                for (const auto &ic : inputs)
                    row_in.push_back(ic.get(r));
                array.runRow(row_in, row_out);
                for (std::size_t o = 0; o < outs.size(); ++o)
                    (*outs[o])[r] = row_out[o];
            }
            return;
        }
        PeBatchKernel kernel(ct.programs,
                             static_cast<int>(inputs.size()));
        std::vector<const std::int64_t *> in_ptrs(inputs.size());
        std::vector<std::int64_t *> out_ptrs(outs.size());
        const std::int64_t morsel = peBatchMorselRows();
        for (std::int64_t b = 0; b < rows; b += morsel) {
            std::int64_t e = std::min(rows, b + morsel);
            for (std::size_t i = 0; i < inputs.size(); ++i)
                in_ptrs[i] = inputs[i].vals->data() + b;
            for (std::size_t o = 0; o < outs.size(); ++o)
                out_ptrs[o] = outs[o]->data() + b;
            kernel.run(in_ptrs.data(), e - b, out_ptrs.data(),
                       static_cast<int>(outs.size()));
        }
    }

    /** Materialise the visible columns as a host RelTable. */
    RelTable
    materialize(DeviceRelation &rel, bool account_flash)
    {
        RelTable out;
        for (const auto &c : rel.schema)
            out.addColumn(gather(rel, c.name, account_flash));
        if (rel.schema.empty()) {
            // Keep row count observable even with no visible columns.
            RelColumn dummy("__row", ColumnType::Int64);
            for (std::int64_t i = 0; i < rel.rows; ++i)
                dummy.push(i);
            out.addColumn(std::move(dummy));
        }
        return out;
    }

    /** RelTable view of the visible columns (for evalPredicate). */
    RelTable
    viewFor(DeviceRelation &rel, const std::vector<std::string> &cols,
            bool account)
    {
        RelTable out;
        for (const auto &c : cols)
            out.addColumn(gather(rel, c, account));
        return out;
    }

    /** Keep only tuples at @p keep indices. */
    void
    compact(DeviceRelation &rel, const std::vector<std::int64_t> &keep)
    {
        for (auto &ids : rel.rowids) {
            auto next = std::make_shared<std::vector<RowId>>();
            next->reserve(keep.size());
            for (std::int64_t k : keep)
                next->push_back((*ids)[k]);
            ids = std::move(next);
        }
        for (auto &dc : rel.dataCols) {
            auto next = std::make_shared<std::vector<std::int64_t>>();
            next->reserve(keep.size());
            for (std::int64_t k : keep)
                next->push_back((*dc.vals)[k]);
            dc.vals = std::move(next);
        }
        rel.rows = static_cast<std::int64_t>(keep.size());
    }

    // ----------------------------------------------------- leaf scan

    /** Number of top-level AND conjuncts usable by the Row Selector. */
    static void
    splitConjuncts(const ExprPtr &e, std::vector<ExprPtr> &out)
    {
        if (e->kind == ExprKind::Logic && e->logicOp == LogicOp::And) {
            splitConjuncts(e->children[0], out);
            splitConjuncts(e->children[1], out);
        } else {
            out.push_back(e);
        }
    }

    static bool
    selectorEligible(const ExprPtr &e)
    {
        // Single-column comparison/equality against constants
        // (Sec. VI-A); anything else goes to the Row Transformer.
        std::vector<std::string> cols;
        collectColumns(e, cols);
        if (cols.size() != 1)
            return false;
        switch (e->kind) {
          case ExprKind::Compare:
          case ExprKind::InList:
            return true;
          case ExprKind::Logic:
            // BETWEEN desugars to (a >= lo) and (a <= hi); handled as
            // two conjuncts upstream, so a nested Logic here means OR.
            return false;
          default:
            return false;
        }
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
        std::vector<std::string> cols = leaf.columns;
        if (cols.empty()) {
            for (int i = 0; i < t.numColumns(); ++i)
                cols.push_back(t.col(i).name());
        }
        for (const auto &c : cols) {
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
                               false,
                               obs::SuspendReason::MidPlanGroupBy};
        }
        DeviceRelation rel = it->second; // tuple-table copy (cheap ptrs)
        // Copy-on-write: rowids/dataCols are shared_ptr'd; compact()
        // replaces the vectors rather than mutating them. The copy
        // does not own the persistent stage slot.
        rel.dramSlot.clear();
        return rel;
    }

    void
    applyFilter(DeviceRelation &rel, const ExprPtr &pred,
                bool leaf_scan, const std::string &what)
    {
        std::vector<ExprPtr> conjuncts;
        splitConjuncts(pred, conjuncts);
        int selector_preds = 0;
        int regex_preds = 0;
        for (const auto &c : conjuncts) {
            std::vector<const Expr *> likes;
            if (c->kind == ExprKind::Like
                    || (c->kind == ExprKind::Not
                        && c->children[0]->kind == ExprKind::Like)) {
                ++regex_preds;
            } else if (selectorEligible(c)
                       && selector_preds
                           < config.numPredicateEvaluators) {
                ++selector_preds;
            }
        }
        std::vector<std::string> cols;
        collectColumns(pred, cols);
        // Both evaluation strategies charge a leaf scan identically:
        // the Row Selector streams every page of each predicate
        // column, in predicate order (compressed page-touch when the
        // table is encoded, the raw page-touch model otherwise).
        if (leaf_scan) {
            for (const auto &c : cols)
                chargeGather(rel, c);
        }
        std::vector<std::int64_t> keep;
        if (!batchExecutionEnabled()) {
            // Scalar oracle: materialize every predicate column over
            // every tuple, evaluate the whole tree at once.
            RelTable view = viewFor(rel, cols, false);
            BitVector mask = evalPredicate(pred, view);
            keep.reserve(mask.popcount());
            for (std::int64_t i = 0; i < rel.rows; ++i)
                if (mask.get(i))
                    keep.push_back(i);
        } else {
            // Batched Row Selector: flash already charged above;
            // short-circuit conjuncts over a shrinking selection.
            SelectionVector sel = SelectionVector::dense(rel.rows);
            for (const auto &c : conjuncts) {
                if (sel.empty())
                    break;
                std::vector<std::string> ccols;
                collectColumns(c, ccols);
                RelTable view;
                for (const auto &name : ccols)
                    view.addColumn(gatherAt(rel, name, sel));
                if (view.numColumns() == 0) {
                    // Constant conjunct: one verdict for all rows.
                    RelTable one;
                    RelColumn dummy("__sel_rows", ColumnType::Int64);
                    dummy.push(0);
                    one.addColumn(std::move(dummy));
                    RelColumn v = evalExpr(c, one, "pred");
                    if (v.get(0) == 0 || v.get(0) == kNullValue)
                        sel = SelectionVector::dense(0);
                    continue;
                }
                // Compiled mask kernel over the gathered view (flash
                // traffic was charged above, so this only changes CPU
                // cost); same verdicts as evalPredicate by contract.
                if (auto kern = ConjunctKernel::tryCompile(c, view)) {
                    BitVector mask;
                    ConjunctKernel::Scratch scratch;
                    kern->evalMask(view, nullptr, 0, view.numRows(),
                                   mask, scratch);
                    sel.filter(mask);
                    continue;
                }
                sel.filter(evalPredicate(c, view));
            }
            keep = sel.toIndices();
        }
        std::int64_t before = rel.rows;
        compact(rel, keep);
        stats.taskLog.push_back(
            what + ": rowSel " + std::to_string(selector_preds)
            + " CPE predicate(s), " + std::to_string(regex_preds)
            + " regex, transformer rest; " + std::to_string(before)
            + " -> " + std::to_string(rel.rows) + " rows");
        ++stats.tasksExecuted;
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
                copy->children = {column_side, offc};
                if (column_side == b) {
                    // Keep the column on the left.
                    copy->cmpOp = e->cmpOp;
                }
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
                throw SuspendError{"LIKE over a computed value", false,
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
            stats.taskLog.push_back("regexAccel: '" + e->pattern
                                    + "' over " + a->column);
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
            std::vector<RelColumn> outs;
            for (std::size_t o = 0; o < computed.size(); ++o)
                outs.emplace_back(computed[o].name, ct.outputTypes[o]);
            std::vector<std::vector<std::int64_t> *> out_vecs;
            for (auto &o : outs)
                out_vecs.push_back(o.vals.get());
            runTransform(ct, array, inputs, rel.rows, std::move(out_vecs));
            stats.transformedRows += rel.rows;
            double vectors = std::ceil(static_cast<double>(rel.rows)
                                       / kRowVectorSize);
            accrue(obs::PipeStage::Transformer,
                   vectors * array.maxProgramLength() / config.clockHz);
            // Computed columns follow the pass-through data columns.
            int next_data = static_cast<int>(new_data.size());
            for (auto &out_col : outs)
                new_data.push_back(std::move(out_col));
            for (auto &dc : new_schema) {
                if (dc.dataColIdx == -2) {
                    dc.dataColIdx = next_data++;
                    dc.type = new_data[dc.dataColIdx].type;
                }
            }
            stats.taskLog.push_back(
                "rowTransf: " + std::to_string(computed.size())
                + " output column(s), "
                + std::to_string(ct.programs.size()) + " PE(s), "
                + std::to_string(ct.totalInstructions) + " instr");
            ++stats.tasksExecuted;
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
     * Device DRAM bytes a persistent relation occupies. Sorted RowID
     * columns can be stored as row masks over the base table (the
     * paper's maskSrc representation), so they cost
     * min(rows x 8B, tableRows / 8).
     */
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

    /** <key, tupleIdx> stream for @p key over @p rel. */
    KvStream
    keyStream(DeviceRelation &rel, const std::string &key, bool account)
    {
        RelColumn c = gather(rel, key, account);
        KvStream s(rel.rows);
        for (std::int64_t i = 0; i < rel.rows; ++i)
            s[i] = {c.get(i), i};
        return s;
    }

    /**
     * Sort a key stream with the streaming sorter unless it is already
     * ordered (MonetDB keeps base tables in RowID order, so fact-table
     * foreign keys like l_orderkey arrive sorted).
     */
    void
    sortStream(KvStream &s, const std::string &what)
    {
        bool already = std::is_sorted(
            s.begin(), s.end(),
            [](const Kv &a, const Kv &b) { return a.key < b.key; });
        if (already) {
            stats.taskLog.push_back(what + ": already sorted, "
                                    "sorter bypassed");
            return;
        }
        std::string slot = freshSlot("sort");
        charge(slot, static_cast<std::int64_t>(s.size()) * kKvBytes);
        SorterStats st = sorter.sort(s, true);
        accrue(obs::PipeStage::Swissknife, st.seconds);
        stats.taskLog.push_back(
            what + ": SORT " + std::to_string(st.recordsIn)
            + " records, " + std::to_string(st.numBlocks) + " block(s)");
        ++stats.tasksExecuted;
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
     * over candidate tuple pairs; returns the pass mask.
     */
    std::vector<char>
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
        std::vector<char> pass(li.size(), 1);
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
            RelColumn cc;
            if (batchExecutionEnabled()) {
                // Same modelled charge as the full gather; values are
                // fetched at the candidate pairs only.
                chargeGather(side, cname);
                cc = gatherAtIdx(side, cname, idx);
            } else {
                RelColumn full = gather(side, cname, true);
                cc = RelColumn(cname, full.type);
                cc.heap = full.heap;
                cc.vals->reserve(idx.size());
                for (std::int64_t i : idx)
                    cc.vals->push_back(full.get(i));
            }
            view.addColumn(std::move(cc));
        }
        BitVector mask = evalPredicate(pred, view);
        for (std::size_t i = 0; i < pass.size(); ++i)
            pass[i] = mask.get(static_cast<std::int64_t>(i));
        return pass;
    }

    /** Combine two relations on matched tuple index pairs (inner). */
    DeviceRelation
    combine(const DeviceRelation &l, const DeviceRelation &r,
            const std::vector<std::int64_t> &li,
            const std::vector<std::int64_t> &ri)
    {
        DeviceRelation out;
        out.leafRefs = l.leafRefs;
        out.leafRefs.insert(out.leafRefs.end(), r.leafRefs.begin(),
                            r.leafRefs.end());
        auto gather_ids = [&](const DeviceRelation &side,
                              const std::vector<std::int64_t> &idx) {
            for (const auto &ids : side.rowids) {
                auto next = std::make_shared<std::vector<RowId>>();
                next->reserve(idx.size());
                for (std::int64_t k : idx)
                    next->push_back((*ids)[k]);
                out.rowids.push_back(std::move(next));
            }
        };
        gather_ids(l, li);
        gather_ids(r, ri);
        auto gather_data = [&](const DeviceRelation &side,
                               const std::vector<std::int64_t> &idx) {
            for (const auto &dc : side.dataCols) {
                RelColumn next(dc.name, dc.type);
                next.heap = dc.heap;
                next.vals->reserve(idx.size());
                for (std::int64_t k : idx)
                    next.vals->push_back(dc.get(k));
                out.dataCols.push_back(std::move(next));
            }
        };
        gather_data(l, li);
        gather_data(r, ri);
        out.rows = static_cast<std::int64_t>(li.size());
        out.schema = l.schema;
        int leaf_off = static_cast<int>(l.leafRefs.size());
        int data_off = static_cast<int>(l.dataCols.size());
        for (DevCol dc : r.schema) {
            if (dc.leafIdx >= 0)
                dc.leafIdx += leaf_off;
            if (dc.dataColIdx >= 0)
                dc.dataColIdx += data_off;
            out.schema.push_back(dc);
        }
        return out;
    }

    DeviceRelation
    execJoin(const ShapeNode &node, DeviceRelation l, DeviceRelation r,
             const std::set<std::string> &needed)
    {
        if (node.leftKeys.empty())
            throw SuspendError{"keyless (broadcast) join"};
        if (node.joinType == JoinType::LeftOuter)
            throw SuspendError{"outer join has no device path"};

        KvStream ls = keyStream(l, node.leftKeys[0], true);
        KvStream rs = keyStream(r, node.rightKeys[0], true);

        bool l_sorted = std::is_sorted(
            ls.begin(), ls.end(),
            [](const Kv &a, const Kv &b) { return a.key < b.key; });
        bool r_sorted = std::is_sorted(
            rs.begin(), rs.end(),
            [](const Kv &a, const Kv &b) { return a.key < b.key; });

        bool probe_right = isDensePk(r, node.rightKeys[0]);
        bool probe_left = node.joinType == JoinType::Inner
            && isDensePk(l, node.leftKeys[0]);

        std::vector<std::int64_t> li, ri;
        std::string path;
        if (probe_right || (probe_left && !probe_right)) {
            // RowID probe (MonetDB materialised-RowID optimisation):
            // the PK side becomes a direct-index structure over its
            // base table's row space; the other side streams.
            DeviceRelation &pk = probe_right ? r : l;
            KvStream &pk_keys = probe_right ? rs : ls;
            KvStream &stream = probe_right ? ls : rs;
            const DevCol &dc =
                resolve(pk, probe_right ? node.rightKeys[0]
                                        : node.leftKeys[0]);
            const Table &pk_table =
                baseTable(pk.leafRefs[dc.leafIdx].table);
            std::int64_t domain = pk_table.numRows();
            // Dense PKs map key -> RowID by subtracting the first key
            // (1 for TPC-H entity keys, 0 for nation/region).
            std::int64_t base = domain > 0
                ? pk_table.col(dc.baseColumn).get(0) : 0;
            std::string slot = freshSlot("probe");
            charge(slot, domain * bytesPerRowId(domain));
            std::vector<std::int64_t> index(domain, -1);
            for (const Kv &kv : pk_keys) {
                std::int64_t key = kv.key - base;
                if (key >= 0 && key < domain)
                    index[key] = kv.value;
            }
            for (const Kv &kv : stream) {
                std::int64_t key = kv.key - base;
                std::int64_t hit =
                    key >= 0 && key < domain ? index[key] : -1;
                if (hit >= 0) {
                    if (probe_right) {
                        li.push_back(kv.value);
                        ri.push_back(hit);
                    } else {
                        li.push_back(hit);
                        ri.push_back(kv.value);
                    }
                } else if (node.joinType == JoinType::LeftAnti
                           && probe_right) {
                    li.push_back(kv.value);
                    ri.push_back(-1);
                }
            }
            release(slot);
            path = "MERGE via RowID probe";
        } else {
            // Sort-merge path through the streaming sorter.
            if (!l_sorted)
                sortStream(ls, "left " + node.leftKeys[0]);
            else
                std::stable_sort(ls.begin(), ls.end(),
                                 [](const Kv &a, const Kv &b) {
                                     return a.key < b.key;
                                 });
            if (!r_sorted)
                sortStream(rs, "right " + node.rightKeys[0]);
            else
                std::stable_sort(rs.begin(), rs.end(),
                                 [](const Kv &a, const Kv &b) {
                                     return a.key < b.key;
                                 });
            // Generalised merge-intersect with bounded duplicate
            // products per key.
            std::size_t i = 0, j = 0;
            while (i < ls.size() && j < rs.size()) {
                if (ls[i].key < rs[j].key) {
                    ++i;
                } else if (rs[j].key < ls[i].key) {
                    ++j;
                } else {
                    std::int64_t key = ls[i].key;
                    std::size_t i2 = i, j2 = j;
                    while (i2 < ls.size() && ls[i2].key == key)
                        ++i2;
                    while (j2 < rs.size() && rs[j2].key == key)
                        ++j2;
                    if ((i2 - i) * (j2 - j) > 1000000) {
                        throw SuspendError{
                            "join key fan-out too large for the merger"};
                    }
                    for (std::size_t a = i; a < i2; ++a)
                        for (std::size_t b = j; b < j2; ++b) {
                            li.push_back(ls[a].value);
                            ri.push_back(rs[b].value);
                        }
                    i = i2;
                    j = j2;
                }
            }
            double merge_bytes =
                static_cast<double>(ls.size() + rs.size()) * kKvBytes;
            accrue(obs::PipeStage::Swissknife,
                   merge_bytes / StreamingSorter::kDatapathBytesPerSec);
            path = "SORT_MERGE";
        }

        std::vector<char> pass = residualMask(l, r, node, li, ri);

        DeviceRelation out;
        if (node.joinType == JoinType::Inner) {
            std::vector<std::int64_t> fl, fr;
            for (std::size_t k = 0; k < li.size(); ++k) {
                if (pass[k] && ri[k] >= 0) {
                    fl.push_back(li[k]);
                    fr.push_back(ri[k]);
                }
            }
            out = combine(l, r, fl, fr);
        } else {
            // Semi/anti: keep left tuples by match status.
            std::vector<char> matched(l.rows, 0);
            for (std::size_t k = 0; k < li.size(); ++k)
                if (pass[k] && ri[k] >= 0)
                    matched[li[k]] = 1;
            bool want = node.joinType == JoinType::LeftSemi;
            std::vector<std::int64_t> keep;
            for (std::int64_t t = 0; t < l.rows; ++t)
                if (static_cast<bool>(matched[t]) == want)
                    keep.push_back(t);
            out = l;
            compact(out, keep);
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
        stats.taskLog.push_back(
            "join " + node.leftKeys[0] + "=" + node.rightKeys[0] + " ["
            + path + "] -> " + std::to_string(out.rows) + " tuples");
        ++stats.tasksExecuted;
        recordTask("join " + node.leftKeys[0] + "=" + node.rightKeys[0],
                   nullptr, l.rows + r.rows, out.rows);
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
        // outIdx -> (slot of value, slot of count or -1). The device
        // path never sees NULLs, so every Count/Avg denominator equals
        // the group's row count: all of them share ONE Cnt slot (this
        // is how q1's eight aggregates fit eight bucket slots).
        struct Slot { int value; int count; AggKind kind;
                      ColumnType inType; };
        std::vector<Slot> slots;
        int shared_cnt = -1;
        auto shared_count_slot = [&]() {
            if (shared_cnt < 0) {
                shared_cnt = static_cast<int>(hw.size());
                hw.push_back(HwAgg::Cnt);
            }
            return shared_cnt;
        };
        // transformIdx per aggregate: index into the PE program's
        // outputs (-1 for pure counts, which need no value stream).
        std::vector<int> transform_idx;
        for (const auto &a : spec.aggregates) {
            ColumnType in_type = ColumnType::Int64;
            Slot s{-1, -1, a.kind, in_type};
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
                s.count = shared_count_slot();
                break;
              case AggKind::Avg:
                s.value = static_cast<int>(hw.size());
                hw.push_back(HwAgg::Sum);
                s.count = shared_count_slot();
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
        // The transform runs over the whole relation first; the
        // accelerator then takes the group and value columns directly,
        // in row order, so spill behaviour matches a per-row feed.
        std::vector<std::vector<std::int64_t>> tcols;
        if (array) {
            tcols.resize(ct->outputNames.size());
            std::vector<std::vector<std::int64_t> *> out_vecs;
            for (auto &c : tcols)
                out_vecs.push_back(&c);
            runTransform(*ct, *array, inputs, rel.rows,
                         std::move(out_vecs));
        }
        std::vector<const std::int64_t *> id_cols;
        for (const auto &gc : group_cols)
            id_cols.push_back(gc.vals->data());
        std::vector<const std::int64_t *> val_cols(hw.size(), nullptr);
        for (std::size_t s = 0; s < slots.size(); ++s) {
            if (slots[s].value >= 0)
                val_cols[slots[s].value] = tcols[transform_idx[s]].data();
        }
        gb.update(id_cols, val_cols, rel.rows);
        stats.transformedRows += rel.rows;
        double vectors = std::ceil(static_cast<double>(rel.rows)
                                   / kRowVectorSize);
        double transform_t = array
            ? vectors * array->maxProgramLength() / config.clockHz
            : vectors / config.clockHz;
        // Spill-over accumulation runs on the host concurrently; the
        // device is not slowed as long as the host keeps up (~200M
        // lookup-accumulates/s, Sec. VI-E).
        double spill_t = gb.stats().rowsSpilled / 200e6;
        // Attribution: the group-by accelerator (a Swissknife unit)
        // only bounds the task when the spill drain outruns the feed.
        accrue(transform_t >= spill_t ? obs::PipeStage::Transformer
                                      : obs::PipeStage::Swissknife,
               std::max(transform_t, spill_t));
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
        bool empty_global = ngroups == 0 && spec.groupColumns.empty();
        for (std::size_t s = 0; s < slots.size(); ++s) {
            const Slot &slot = slots[s];
            ColumnType out_type = slot.inType;
            if (slot.kind == AggKind::Count)
                out_type = ColumnType::Int64;
            if (slot.kind == AggKind::Avg)
                out_type = ColumnType::Decimal;
            RelColumn c(spec.aggregates[s].name, out_type);
            for (std::int64_t g = 0; g < ngroups; ++g) {
                std::int64_t v = 0;
                switch (slot.kind) {
                  case AggKind::Sum:
                    v = groups.aggregates[slot.value][g];
                    break;
                  case AggKind::Min:
                  case AggKind::Max:
                    v = groups.rows[g]
                        ? groups.aggregates[slot.value][g] : kNullValue;
                    break;
                  case AggKind::Count:
                    v = groups.aggregates[slot.count][g];
                    break;
                  case AggKind::Avg: {
                    std::int64_t sum = groups.aggregates[slot.value][g];
                    std::int64_t cnt = groups.aggregates[slot.count][g];
                    if (slot.inType != ColumnType::Decimal)
                        sum *= kDecimalScale;
                    v = cnt ? sum / cnt : kNullValue;
                    break;
                  }
                  default:
                    break;
                }
                c.push(v);
            }
            if (empty_global) {
                c.push(slot.kind == AggKind::Count ? 0 : kNullValue);
            }
            out.addColumn(std::move(c));
        }
        stats.taskLog.push_back(
            "AGGREGATE" + std::string(spec.groupColumns.empty()
                                      ? "" : "_GROUPBY")
            + ": " + std::to_string(ngroups) + " group(s), "
            + std::to_string(gb.stats().groupsSpilled)
            + " spill-over group(s)");
        ++stats.tasksExecuted;
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
            DeviceRelation rel;
            if (!leaf.table.empty()) {
                rel = makeBaseLeaf(leaf);
                // Leaf scan: stream the predicate columns from flash.
                // (Filters account their own column reads at density 1.)
            } else {
                rel = makeStageLeaf(leaf);
            }
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
                for (const auto &c : leaf.columns) {
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
            stats.taskLog.push_back(
                "TOPK: kept " + std::to_string(root.rows) + " of "
                + std::to_string(before) + " rows ("
                + std::to_string(topk.chainLength())
                + " VCAS block(s))");
            ++stats.tasksExecuted;
            recordTask("topk", &root, before, root.rows);
            RelTable t = materialize(root, true);
            stats.dmaBytes += t.residentBytes();
            stageTables[stage.id] = std::move(t);
            return;
        }
        if (!shape.sortKeys.empty() || !shape.postOps.empty()) {
            // Sorted / post-processed outputs ship to the host.
            RelTable t = materialize(root, true);
            stats.dmaBytes += t.residentBytes();
            RelTable final = hostFinish(std::move(t), shape.postOps,
                                        shape.sortKeys, shape.limit);
            stageTables[stage.id] = std::move(final);
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
                if (it != deviceRels.end()) {
                    RelTable t = materialize(it->second, true);
                    stats.dmaBytes += t.residentBytes();
                    stageTables[p->scanStage] = std::move(t);
                }
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
            std::int64_t dram_before = impl.dram.usedBytes();
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
                impl.stats.taskLog.push_back(
                    "SUSPEND stage '" + stage.id + "': " + e.reason);
                impl.stats.suspensions.push_back(
                    {stage.id, e.code, e.reason});
                ++impl.stats.hostResidual.suspendCount;
                if (e.dram)
                    degraded = true;
                if (impl.stageTrack >= 0) {
                    tracer.instant(
                        impl.stageTrack, "suspend " + stage.id,
                        "device-stage", impl.stats.deviceSeconds,
                        {obs::arg("reason", e.reason)});
                }
                // Roll back partial allocations of this stage.
                (void)dram_before;
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
        RelTable t = impl.materialize(it->second, true);
        impl.stats.dmaBytes += t.residentBytes();
        impl.stageTables[last] = std::move(t);
    }
    out.result = impl.stageTables[last];
    // Work accrued after the last explicit Table Task (final gathers,
    // result DMA) becomes one closing record so the structured trace
    // partitions the totals exactly.
    if (impl.stats.deviceSeconds > impl.taskMarkSeconds
            || impl.stats.deviceFlashBytes > impl.taskMarkBytes)
        impl.recordTask("epilogue: gathers + result DMA");
    impl.stats.hostResidual.merge(impl.residual.metrics());
    // Everything the host touched to finish the query: DMA'd device
    // output plus the base-table bytes of suspended stages.
    impl.stats.hostResidual.hostFinishBytes =
        impl.stats.dmaBytes + impl.stats.hostResidual.touchedBaseBytes;
    out.stats = std::move(impl.stats);
    out.stats.deviceDramPeak = std::max(out.stats.deviceDramPeak,
                                        impl.dram.peakBytes());
    return out;
}

} // namespace aquoman
