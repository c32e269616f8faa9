#include "engine/executor.hh"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "columnstore/selection_vector.hh"
#include "common/key_table.hh"
#include "common/thread_pool.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "relalg/eval.hh"

namespace aquoman {

namespace {

std::vector<int>
resolveColumns(const RelTable &t, const std::vector<std::string> &names)
{
    std::vector<int> out;
    for (const auto &n : names)
        out.push_back(t.indexOf(n));
    return out;
}

/** The value arrays of @p cols: the key lanes of a hash join or group-by. */
std::vector<const std::int64_t *>
keyLanes(const RelTable &t, const std::vector<int> &cols)
{
    std::vector<const std::int64_t *> lanes;
    for (int c : cols)
        lanes.push_back(t.col(c).vals->data());
    return lanes;
}

/**
 * Hash of row @p r's key: a murmur3-style mix folded over the lanes'
 * raw values. Varchar lanes hold interned heap offsets, one per
 * distinct string, so equal offsets are exactly equal strings.
 */
std::uint64_t
keyHash(KeyLanes lanes, std::int64_t r)
{
    std::uint64_t h = 0x9e3779b97f4a7c15ull;
    for (const std::int64_t *lane : lanes) {
        std::uint64_t x = static_cast<std::uint64_t>(lane[r]) + h;
        x ^= x >> 33;
        x *= 0xff51afd7ed558ccdull;
        x ^= x >> 33;
        h = x;
    }
    return h;
}

/**
 * @p build's varchar offsets re-expressed in @p probe's heap, each
 * distinct offset looked up once. A string @p probe's heap lacks maps
 * to -1, which no probe offset equals; NULLs stay NULL.
 */
std::vector<std::int64_t>
translateOffsets(const RelColumn &build, const StringHeap &probe)
{
    const std::int64_t *vals = build.vals->data();
    KeyTable distinct(1);
    std::vector<std::int64_t> mapped; // per distinct offset
    std::vector<std::int64_t> out(build.size());
    for (std::int64_t r = 0; r < build.size(); ++r) {
        auto [id, fresh] =
            distinct.insert({&vals, 1}, r, keyHash({&vals, 1}, r));
        if (fresh) {
            mapped.push_back(vals[r] < 0
                                 ? vals[r]
                                 : probe.find(build.heap->get(vals[r])));
        }
        out[r] = mapped[id];
    }
    return out;
}

/** Three-way compare of two rows on one column (NULL sorts first). */
int
compareValues(const RelColumn &c, std::int64_t a, std::int64_t b)
{
    if (c.type == ColumnType::Varchar) {
        int r = c.str(a).compare(c.str(b));
        return r < 0 ? -1 : (r > 0 ? 1 : 0);
    }
    std::int64_t x = c.get(a), y = c.get(b);
    return x < y ? -1 : (x > y ? 1 : 0);
}

} // namespace

void
equiJoinCandidates(const RelTable &left, const std::vector<int> &lk,
                   const RelTable &right, const std::vector<int> &rk,
                   std::vector<std::int64_t> &li,
                   std::vector<std::int64_t> &ri)
{
    if (left.numRows() == 0 || right.numRows() == 0)
        return;
    std::vector<const std::int64_t *> probe = keyLanes(left, lk);
    std::vector<const std::int64_t *> build = keyLanes(right, rk);
    // Varchar keys compare as heap offsets. Build columns on a heap
    // other than the probe column's are translated into the probe's.
    std::vector<std::vector<std::int64_t>> translated;
    translated.reserve(lk.size());
    for (std::size_t k = 0; k < lk.size(); ++k) {
        const RelColumn &lc = left.col(lk[k]);
        const RelColumn &rc = right.col(rk[k]);
        bool varchar = lc.type == ColumnType::Varchar;
        AQ_ASSERT(varchar == (rc.type == ColumnType::Varchar),
                  "join key ", lc.name, " = ", rc.name,
                  " mixes varchar and non-varchar");
        if (varchar && lc.heap != rc.heap) {
            translated.push_back(translateOffsets(rc, *lc.heap));
            build[k] = translated.back().data();
        }
    }

    // Each distinct build key owns a chain: head[slot] is its newest
    // row and next[row] the next older one. A one-lane key whose values
    // span few more slots than there are build rows indexes the chains
    // by value - lo; any other key gets its KeyTable id. Both chain the
    // same rows in the same order.
    const std::int64_t rows = right.numRows();
    std::int64_t lo = 0;
    std::uint64_t span = ~0ull;
    if (build.size() == 1) {
        auto [mn, mx] = std::minmax_element(build[0], build[0] + rows);
        lo = *mn;
        span = static_cast<std::uint64_t>(*mx)
            - static_cast<std::uint64_t>(lo);
    }
    const bool direct =
        span < 4 * static_cast<std::uint64_t>(rows) + 1024;
    KeyTable table(static_cast<int>(build.size()));
    std::vector<std::int64_t> head(direct ? span + 1 : 0, -1);
    std::vector<std::int64_t> next(rows);
    for (std::int64_t j = 0; j < rows; ++j) {
        std::int64_t slot;
        if (direct) {
            slot = build[0][j] - lo;
        } else {
            auto [id, fresh] = table.insert(build, j, keyHash(build, j));
            if (fresh)
                head.push_back(-1);
            slot = id;
        }
        next[j] = head[slot];
        head[slot] = j;
    }
    auto newest_match = [&](std::int64_t i) -> std::int64_t {
        if (!direct) {
            std::int64_t id = table.find(probe, i, keyHash(probe, i));
            return id < 0 ? -1 : head[id];
        }
        std::uint64_t slot = static_cast<std::uint64_t>(probe[0][i])
            - static_cast<std::uint64_t>(lo);
        return slot < head.size() ? head[slot] : -1;
    };

    // The probe runs in morsels on the pool, in two passes: the first
    // finds each probe row's newest match and counts each morsel's
    // pairs, the second writes the pairs at the morsel's offset in the
    // exact-size output, instead of growing per-morsel lists and
    // copying every pair again to concatenate them.
    auto morsels = ThreadPool::splitRange(0, left.numRows(), kMorselRows);
    const auto nm = static_cast<std::int64_t>(morsels.size());
    std::vector<std::int64_t> newest(left.numRows());
    std::vector<std::int64_t> offset(nm + 1, 0);
    parallelFor(0, nm, 1, [&](std::int64_t m0, std::int64_t m1) {
        for (std::int64_t m = m0; m < m1; ++m) {
            std::int64_t pairs = 0;
            for (std::int64_t i = morsels[m].first; i < morsels[m].second;
                 ++i) {
                newest[i] = newest_match(i);
                for (std::int64_t j = newest[i]; j >= 0; j = next[j])
                    ++pairs;
            }
            offset[m + 1] = pairs;
        }
    });
    offset[0] = static_cast<std::int64_t>(li.size());
    for (std::int64_t m = 0; m < nm; ++m)
        offset[m + 1] += offset[m];
    li.resize(offset[nm]);
    ri.resize(offset[nm]);
    parallelFor(0, nm, 1, [&](std::int64_t m0, std::int64_t m1) {
        for (std::int64_t m = m0; m < m1; ++m) {
            std::int64_t p = offset[m];
            for (std::int64_t i = morsels[m].first; i < morsels[m].second;
                 ++i) {
                for (std::int64_t j = newest[i]; j >= 0; j = next[j]) {
                    li[p] = i;
                    ri[p++] = j;
                }
            }
        }
    });
}

double
exprCost(const ExprPtr &e)
{
    if (!e)
        return 0.0;
    double cost = 1.0;
    if (e->kind == ExprKind::Like)
        cost = 8.0; // string scan per row
    for (const auto &c : e->children)
        cost += exprCost(c);
    return cost;
}

std::vector<std::int64_t>
gatherValues(const std::vector<std::int64_t> &src,
             const std::vector<std::int64_t> &idx)
{
    std::int64_t n = static_cast<std::int64_t>(idx.size());
    std::vector<std::int64_t> out(n);
    // Morsels write disjoint ranges of the preallocated vector, so the
    // gather is bit-identical for any thread count.
    std::int64_t grain = n < kGatherFanoutRows ? n : kMorselRows;
    parallelFor(0, n, grain, [&](std::int64_t k0, std::int64_t k1) {
        for (std::int64_t k = k0; k < k1; ++k)
            out[k] = idx[k] < 0 ? kNullValue : src[idx[k]];
    });
    return out;
}

RelTable
gatherRows(const RelTable &t, const std::vector<std::int64_t> &idx)
{
    RelTable out;
    for (int c = 0; c < t.numColumns(); ++c) {
        const RelColumn &src = t.col(c);
        RelColumn dst(src.name, src.type);
        dst.heap = src.heap;
        *dst.vals = gatherValues(*src.vals, idx);
        out.addColumn(std::move(dst));
    }
    return out;
}

void
joinOutputRows(JoinType type, const std::vector<std::int64_t> &li,
               const std::vector<std::int64_t> &ri,
               const SelectionVector &pass, std::int64_t left_rows,
               std::vector<std::int64_t> &out_l,
               std::vector<std::int64_t> &out_r)
{
    if (type == JoinType::Inner || type == JoinType::LeftOuter) {
        out_l.reserve(pass.size());
        out_r.reserve(pass.size());
        for (std::int64_t s = 0; s < pass.size(); ++s) {
            out_l.push_back(li[pass[s]]);
            out_r.push_back(ri[pass[s]]);
        }
        if (type == JoinType::Inner)
            return;
    }
    std::vector<char> matched(left_rows, 0);
    for (std::int64_t s = 0; s < pass.size(); ++s)
        matched[li[pass[s]]] = 1;
    bool want = type == JoinType::LeftSemi;
    for (std::int64_t i = 0; i < left_rows; ++i) {
        if (static_cast<bool>(matched[i]) != want)
            continue;
        out_l.push_back(i);
        if (type == JoinType::LeftOuter)
            out_r.push_back(-1); // NULL right side
    }
}

RelColumn
finalizeAggregate(const std::string &name, AggKind kind, ColumnType in_type,
                  const std::int64_t *acc, const std::int64_t *cnt,
                  std::int64_t groups, bool empty_global)
{
    bool counts =
        kind == AggKind::Count || kind == AggKind::CountDistinct;
    ColumnType out_type = counts ? ColumnType::Int64
        : kind == AggKind::Avg ? ColumnType::Decimal : in_type;
    RelColumn out(name, out_type);
    out.vals->resize(groups);
    std::vector<std::int64_t> &vals = *out.vals;
    for (std::int64_t g = 0; g < groups; ++g) {
        switch (kind) {
          case AggKind::Sum:
            vals[g] = acc[g];
            break;
          case AggKind::Min:
          case AggKind::Max:
            vals[g] = cnt[g] ? acc[g] : kNullValue;
            break;
          case AggKind::Count:
          case AggKind::CountDistinct:
            vals[g] = cnt[g];
            break;
          case AggKind::Avg: {
            std::int64_t sum = acc[g];
            if (in_type != ColumnType::Decimal)
                sum *= kDecimalScale;
            vals[g] = cnt[g] ? sum / cnt[g] : kNullValue;
            break;
          }
        }
    }
    if (empty_global)
        vals.push_back(counts ? 0 : kNullValue);
    return out;
}

RelTable
Executor::run(const Query &q)
{
    std::map<std::string, RelTable> stages;
    RelTable last;
    for (const auto &s : q.stages) {
        last = runPlan(s.plan, stages);
        stages[s.id] = last;
    }
    return last;
}

RelTable
Executor::runPlan(const PlanPtr &plan,
                  const std::map<std::string, RelTable> &stages)
{
    return execNode(plan, stages);
}

namespace {

/** Human-readable label for one plan node's trace span. */
std::string
planNodeName(const Plan &p)
{
    switch (p.kind) {
      case PlanKind::Scan:
        return p.scanStage.empty() ? "scan " + p.scanTable
                                   : "scan stage " + p.scanStage;
      case PlanKind::Filter:
        return "filter";
      case PlanKind::Project:
        return "project";
      case PlanKind::Join:
        return "join";
      case PlanKind::GroupBy:
        return "groupby";
      case PlanKind::OrderBy:
        return "orderby";
    }
    return "?";
}

/**
 * Rate converting the executor's abstract row-ops into the modelled
 * operator timeline (HostConfig's nominal per-thread rate). The trace
 * axis is modelled work, never wall clock.
 */
constexpr double kTraceOpsPerSec = 125e6;

} // namespace

RelTable
Executor::execNode(const PlanPtr &p,
                   const std::map<std::string, RelTable> &stages)
{
    obs::SimTracer &tracer = obs::SimTracer::global();
    bool tracing = !traceLabel.empty() && tracer.enabled();
    bool profiling =
        profileSink != nullptr && obs::profileCollectionEnabled();
    if (!tracing && !profiling)
        return execNodeDispatch(p, stages);
    if (tracing && traceTrack < 0)
        traceTrack = tracer.track("host:" + traceLabel, "operators");
    obs::ProfileNode *parent = profileCur;
    obs::ProfileNode local;
    if (profiling)
        profileCur = &local; // children report into this node
    double ops_before = trace.rowOps;
    RelTable out = execNodeDispatch(p, stages);
    double ops = trace.rowOps - ops_before;
    if (tracing) {
        // Children ran inside the dispatch, so their spans nest within
        // this one on the shared cumulative row-ops axis.
        tracer.span(traceTrack, planNodeName(*p), "operator",
                    ops_before / kTraceOpsPerSec,
                    trace.rowOps / kTraceOpsPerSec,
                    {obs::arg("rows", out.numRows()),
                     obs::arg("row_ops", ops)});
    }
    if (profiling) {
        profileCur = parent;
        local.name = planNodeName(*p);
        local.kind = "host-op";
        local.rowsOut = out.numRows();
        // Unary/n-ary operators consume their children's outputs;
        // scans have no relational input (rowsIn stays -1).
        std::int64_t rows_in = -1;
        for (const obs::ProfileNode &c : local.children)
            rows_in = rows_in < 0 ? c.rowsOut : rows_in + c.rowsOut;
        local.rowsIn = rows_in;
        // Abstract row-op cost only: host modelled seconds live in the
        // query's host-phase node, never per operator, so profile
        // stage-seconds keep summing exactly to the modelled totals.
        local.detail = "row_ops=" + obs::jsonNumber(ops);
        (parent ? *parent : *profileSink)
            .children.push_back(std::move(local));
    }
    return out;
}

RelTable
Executor::execNodeDispatch(const PlanPtr &p,
                           const std::map<std::string, RelTable> &stages)
{
    switch (p->kind) {
      case PlanKind::Scan:
        return execScan(*p, stages);
      case PlanKind::Filter: {
        // MonetDB filters produce candidate lists (8B per surviving
        // row), not materialised copies.
        RelTable in = execNode(p->children[0], stages);
        RelTable out = execFilter(*p, in);
        accountIntermediate(out.numRows() * 8, in.numRows() * 8);
        return out;
      }
      case PlanKind::Project: {
        // Only computed expressions materialise new BATs; column
        // pass-throughs are views.
        RelTable in = execNode(p->children[0], stages);
        RelTable out = execProject(*p, in);
        std::int64_t computed = 0;
        for (const auto &ne : p->projections)
            computed += ne.expr->kind != ExprKind::ColRef;
        accountIntermediate(out.numRows() * 8 * computed,
                            in.numRows() * 8);
        return out;
      }
      case PlanKind::Join: {
        // Joins materialise <leftRowId, rightRowId> pair lists.
        RelTable l = execNode(p->children[0], stages);
        RelTable r = execNode(p->children[1], stages);
        RelTable out = execJoin(*p, l, r);
        accountIntermediate(out.numRows() * 16,
                            (l.numRows() + r.numRows()) * 8);
        return out;
      }
      case PlanKind::GroupBy: {
        RelTable in = execNode(p->children[0], stages);
        RelTable out = execGroupBy(*p, in);
        accountIntermediate(out.residentBytes(), in.numRows() * 8);
        return out;
      }
      case PlanKind::OrderBy: {
        // Sorting materialises an order-index permutation.
        RelTable in = execNode(p->children[0], stages);
        RelTable out = execOrderBy(*p, in);
        accountIntermediate(in.numRows() * 8, in.numRows() * 8);
        return out;
      }
    }
    panic("unknown plan node");
}

RelTable
Executor::execScan(const Plan &p,
                   const std::map<std::string, RelTable> &stages)
{
    if (!p.scanStage.empty()) {
        auto it = stages.find(p.scanStage);
        if (it == stages.end())
            fatal("unknown stage '", p.scanStage, "'");
        return it->second;
    }
    const CatalogEntry &entry = catalog.get(p.scanTable);
    const Table &t = *entry.table;
    std::vector<std::string> wanted = p.scanColumns;
    if (wanted.empty()) {
        for (int i = 0; i < t.numColumns(); ++i)
            wanted.push_back(t.col(i).name());
    }
    // Scans read the in-memory column, as the device's gathers do
    // (the codecs are lossless, so it equals what a flash read would
    // decode), and charge the host port the bytes that read would
    // stream: the encoded page blocks of a compressed resident column,
    // the raw width otherwise. The copies run on the pool: made on the
    // calling thread, the same copies measured 3-5% more peak RSS on
    // the service workloads.
    TaskGroup copies;
    RelTable out;
    for (const std::string &name : wanted) {
        int ci = t.indexOf(name);
        const Column &c = t.col(ci);
        RelColumn rc(p.scanAlias.empty() ? name : p.scanAlias + "." + name,
                     c.type());
        copies.run([&c, vals = rc.vals] { *vals = c.data(); });
        trace.touchedBaseBytes += c.storedBytes();
        if (flashSwitch) {
            trace.flashBytesRead += c.storedBytes();
            const ColumnLayoutMeta *meta =
                entry.resident ? entry.resident->encodingMeta(ci)
                               : nullptr;
            flashSwitch->accountRead(FlashPort::Host,
                                     meta ? meta->encodedBytes
                                          : c.storedBytes());
        }
        if (c.type() == ColumnType::Varchar) {
            rc.heap = t.stringsPtr();
            std::int64_t hb = columnHeapInfo(entry, name).heapBytes;
            trace.touchedBaseBytes += hb;
            if (flashSwitch) {
                trace.flashBytesRead += hb;
                // Only a non-resident table's heap is charged to
                // the port; a resident scan charges column pages only.
                if (!entry.resident)
                    flashSwitch->accountRead(FlashPort::Host, hb);
            }
        }
        trace.rowOps += c.size() * 0.25; // mmap-style decode
        out.addColumn(std::move(rc));
    }
    copies.wait();
    return out;
}

RelTable
Executor::execFilter(const Plan &p, const RelTable &in)
{
    trace.rowOps += in.numRows() * (1.0 + exprCost(p.predicate));
    SelectionVector sel = SelectionVector::dense(in.numRows());
    filterSelection(p.predicate, in, sel);
    if (sel.size() == in.numRows())
        return in; // all rows pass: share columns, materialize nothing
    return gatherRows(in, sel.toIndices());
}

RelTable
Executor::execProject(const Plan &p, const RelTable &in)
{
    // Projections are independent: evaluate them as a task group, then
    // assemble columns and merge per-task metrics in projection order
    // (the same order the serial loop accumulated them).
    std::vector<RelColumn> cols(p.projections.size());
    TaskGroup group;
    for (std::size_t i = 0; i < p.projections.size(); ++i) {
        group.run([&, i] {
            cols[i] = evalExpr(p.projections[i].expr, in,
                               p.projections[i].name);
            cols[i].name = p.projections[i].name;
        });
    }
    group.wait();
    RelTable out;
    for (std::size_t i = 0; i < p.projections.size(); ++i) {
        trace.rowOps += in.numRows() * exprCost(p.projections[i].expr);
        out.addColumn(std::move(cols[i]));
    }
    return out;
}

RelTable
Executor::execJoin(const Plan &p, const RelTable &left,
                   const RelTable &right)
{
    AQ_ASSERT(p.leftKeys.size() == p.rightKeys.size());
    std::vector<int> lk = resolveColumns(left, p.leftKeys);
    std::vector<int> rk = resolveColumns(right, p.rightKeys);

    // Candidate pairs from the equi-keys (or the full cross product
    // when keyless, used only for scalar broadcasts).
    std::vector<std::int64_t> li, ri;
    if (lk.empty()) {
        for (std::int64_t i = 0; i < left.numRows(); ++i) {
            for (std::int64_t j = 0; j < right.numRows(); ++j) {
                li.push_back(i);
                ri.push_back(j);
            }
        }
        trace.rowOps += static_cast<double>(left.numRows())
            * right.numRows();
    } else {
        trace.rowOps += right.numRows() * 4.0;
        equiJoinCandidates(left, lk, right, rk, li, ri);
        trace.rowOps += left.numRows() * 4.0 + li.size() * 2.0;
    }

    // Apply the residual predicate over the combined candidate rows,
    // gathering only the columns it references (names are disjoint
    // across sides) at the candidate pairs.
    SelectionVector pass =
        SelectionVector::dense(static_cast<std::int64_t>(li.size()));
    if (p.residual) {
        std::vector<std::string> need;
        collectColumns(p.residual, need);
        RelTable combined;
        for (const auto &cname : need) {
            bool from_left = left.hasColumn(cname);
            const RelColumn &src = from_left ? left.col(cname)
                                             : right.col(cname);
            RelColumn cc(cname, src.type);
            cc.heap = src.heap;
            *cc.vals = gatherValues(*src.vals, from_left ? li : ri);
            combined.addColumn(std::move(cc));
        }
        filterSelection(p.residual, combined, pass);
        trace.rowOps += li.size() * exprCost(p.residual);
    }

    std::vector<std::int64_t> out_l, out_r;
    joinOutputRows(p.joinType, li, ri, pass, left.numRows(), out_l, out_r);

    RelTable lg = gatherRows(left, out_l);
    if (p.joinType == JoinType::LeftSemi || p.joinType == JoinType::LeftAnti)
        return lg;
    RelTable rg = gatherRows(right, out_r);
    RelTable out;
    for (int c = 0; c < lg.numColumns(); ++c)
        out.addColumn(lg.col(c));
    for (int c = 0; c < rg.numColumns(); ++c)
        out.addColumn(rg.col(c));
    return out;
}

RelTable
Executor::execGroupBy(const Plan &p, const RelTable &in)
{
    std::vector<int> gcols = resolveColumns(in, p.groupColumns);

    // Evaluate aggregate inputs once, vectorised.
    std::vector<RelColumn> agg_in;
    for (const auto &a : p.aggregates) {
        agg_in.push_back(a.input ? evalExpr(a.input, in)
                                 : RelColumn("one", ColumnType::Int64));
        if (!a.input)
            agg_in.back().vals->assign(in.numRows(), 1);
        trace.rowOps += in.numRows() * (a.input ? exprCost(a.input) : 0.5);
    }

    std::size_t nagg = p.aggregates.size();

    // Group ids in first-seen row order, which is the output order.
    // Varchar group columns key by their interned heap offsets.
    std::vector<std::int64_t> first_rows;
    std::vector<int> gidx(in.numRows());
    std::vector<const std::int64_t *> lanes = keyLanes(in, gcols);
    KeyTable groups(static_cast<int>(lanes.size()));
    for (std::int64_t i = 0; i < in.numRows(); ++i) {
        auto [id, fresh] = groups.insert(lanes, i, keyHash(lanes, i));
        gidx[i] = static_cast<int>(id);
        if (fresh)
            first_rows.push_back(i);
    }
    std::int64_t num_groups =
        static_cast<std::int64_t>(first_rows.size());

    // Accumulate one aggregate at a time into flat per-group arrays.
    // Each group still sees its rows in ascending row order, so every
    // accumulator value matches the row-at-a-time formulation exactly.
    std::vector<std::int64_t> accum(nagg * num_groups, 0);
    std::vector<std::int64_t> counts(nagg * num_groups, 0);
    std::int64_t nrows = in.numRows();
    for (std::size_t a = 0; a < nagg; ++a) {
        std::int64_t *acc = accum.data() + a * num_groups;
        std::int64_t *cnt = counts.data() + a * num_groups;
        const std::vector<std::int64_t> &av = *agg_in[a].vals;
        switch (p.aggregates[a].kind) {
          case AggKind::Sum:
          case AggKind::Avg:
            for (std::int64_t i = 0; i < nrows; ++i) {
                std::int64_t v = av[i];
                if (v == kNullValue)
                    continue;
                cnt[gidx[i]]++;
                acc[gidx[i]] += v;
            }
            break;
          case AggKind::Min:
            std::fill(acc, acc + num_groups,
                      std::numeric_limits<std::int64_t>::max());
            for (std::int64_t i = 0; i < nrows; ++i) {
                std::int64_t v = av[i];
                if (v == kNullValue)
                    continue;
                cnt[gidx[i]]++;
                acc[gidx[i]] = std::min(acc[gidx[i]], v);
            }
            break;
          case AggKind::Max:
            std::fill(acc, acc + num_groups,
                      std::numeric_limits<std::int64_t>::min());
            for (std::int64_t i = 0; i < nrows; ++i) {
                std::int64_t v = av[i];
                if (v == kNullValue)
                    continue;
                cnt[gidx[i]]++;
                acc[gidx[i]] = std::max(acc[gidx[i]], v);
            }
            break;
          case AggKind::Count:
            for (std::int64_t i = 0; i < nrows; ++i) {
                if (av[i] != kNullValue)
                    cnt[gidx[i]]++;
            }
            break;
          case AggKind::CountDistinct: {
            std::vector<std::unordered_set<std::int64_t>> seen(num_groups);
            for (std::int64_t i = 0; i < nrows; ++i) {
                if (av[i] != kNullValue)
                    seen[gidx[i]].insert(av[i]);
            }
            for (std::int64_t g = 0; g < num_groups; ++g)
                cnt[g] = static_cast<std::int64_t>(seen[g].size());
            break;
          }
        }
    }
    double group_cost = in.numRows() * (4.0 + nagg);
    trace.rowOps += group_cost;
    // Aggregations over huge group domains (orderkey, partkey, custkey
    // granularity) run effectively single-threaded in MonetDB: the
    // shared hash table defeats its per-column parallelism. This is
    // the behaviour AQUOMAN exploits on q17/q18 (Sec. VIII-B: "the
    // part that is off-loaded happens to execute sequentially on the
    // host, effectively using only one hardware thread").
    if (num_groups > 1024 && num_groups > in.numRows() / 50)
        trace.seqRowOps += group_cost * 0.9;

    RelTable out;
    for (int gc : gcols) {
        const RelColumn &src = in.col(gc);
        RelColumn dst(src.name, src.type);
        dst.heap = src.heap;
        *dst.vals = gatherValues(*src.vals, first_rows);
        out.addColumn(std::move(dst));
    }
    // SQL: a global aggregate over an empty input yields one row.
    bool empty_global = gcols.empty() && num_groups == 0;
    for (std::size_t a = 0; a < nagg; ++a) {
        const AggSpec &spec = p.aggregates[a];
        out.addColumn(finalizeAggregate(
            spec.name, spec.kind,
            spec.input ? agg_in[a].type : ColumnType::Int64,
            accum.data() + a * num_groups, counts.data() + a * num_groups,
            num_groups, empty_global));
    }
    return out;
}

RelTable
Executor::execOrderBy(const Plan &p, const RelTable &in)
{
    std::vector<int> keys;
    for (const auto &k : p.sortKeys)
        keys.push_back(in.indexOf(k.column));
    std::vector<std::int64_t> idx(in.numRows());
    for (std::int64_t i = 0; i < in.numRows(); ++i)
        idx[i] = i;
    if (std::none_of(keys.begin(), keys.end(), [&](int k) {
            return in.col(k).type == ColumnType::Varchar;
        })) {
        // All-integer sort keys: compare raw values without the
        // per-key column-type dispatch.
        std::vector<const std::int64_t *> kv;
        std::vector<bool> desc;
        for (std::size_t k = 0; k < keys.size(); ++k) {
            kv.push_back(in.col(keys[k]).vals->data());
            desc.push_back(p.sortKeys[k].descending);
        }
        std::stable_sort(idx.begin(), idx.end(),
            [&](std::int64_t a, std::int64_t b) {
                for (std::size_t k = 0; k < kv.size(); ++k) {
                    std::int64_t x = kv[k][a], y = kv[k][b];
                    if (x != y)
                        return desc[k] ? x > y : x < y;
                }
                return false;
            });
    } else {
        std::stable_sort(idx.begin(), idx.end(),
            [&](std::int64_t a, std::int64_t b) {
                for (std::size_t k = 0; k < keys.size(); ++k) {
                    int c = compareValues(in.col(keys[k]), a, b);
                    if (c != 0)
                        return p.sortKeys[k].descending ? c > 0 : c < 0;
                }
                return false;
            });
    }
    double n = static_cast<double>(std::max<std::int64_t>(in.numRows(), 1));
    double sort_ops = n * std::log2(n + 1) * 3.0;
    trace.rowOps += sort_ops;
    trace.seqRowOps += sort_ops * 0.3; // merge phases parallelise poorly
    if (p.limit >= 0 && static_cast<std::int64_t>(idx.size()) > p.limit)
        idx.resize(p.limit);
    return gatherRows(in, idx);
}

void
Executor::accountIntermediate(std::int64_t out_bytes,
                              std::int64_t child_bytes)
{
    trace.totalIntermediateBytes += out_bytes;
    trace.peakIntermediateBytes = std::max(trace.peakIntermediateBytes,
                                           child_bytes + out_bytes);
}

} // namespace aquoman
