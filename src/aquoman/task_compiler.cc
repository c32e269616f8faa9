#include "aquoman/task_compiler.hh"

#include <set>
#include <unordered_map>

namespace aquoman {

namespace {

/** Strip an "alias." prefix from a column name. */
std::string
baseColumnName(const std::string &name)
{
    auto dot = name.find('.');
    return dot == std::string::npos ? name : name.substr(dot + 1);
}

/** Find which catalog table owns @p column (TPC-H names are unique). */
const CatalogEntry *
ownerTable(const Catalog &cat, const std::string &column)
{
    std::string base = baseColumnName(column);
    for (const auto &[name, entry] : cat.all()) {
        if (entry.table->hasColumn(base))
            return &entry;
    }
    return nullptr;
}

/** Collect every LIKE node of an expression. */
void
collectLikes(const ExprPtr &e, std::vector<const Expr *> &out)
{
    if (!e)
        return;
    if (e->kind == ExprKind::Like)
        out.push_back(e.get());
    for (const auto &c : e->children)
        collectLikes(c, out);
}

/** Walk a plan tree collecting all expressions. */
void
collectPlanExprs(const PlanPtr &p, std::vector<ExprPtr> &out)
{
    if (!p)
        return;
    if (p->predicate)
        out.push_back(p->predicate);
    if (p->residual)
        out.push_back(p->residual);
    for (const auto &ne : p->projections)
        out.push_back(ne.expr);
    for (const auto &a : p->aggregates)
        if (a.input)
            out.push_back(a.input);
    for (const auto &c : p->children)
        collectPlanExprs(c, out);
}

} // namespace

std::optional<StageShape>
TaskCompiler::analyze(const PlanPtr &plan, std::string &why) const
{
    StageShape shape;
    PlanPtr node = plan;

    if (node->kind == PlanKind::OrderBy) {
        shape.sortKeys = node->sortKeys;
        shape.limit = node->limit;
        node = node->children[0];
    }

    // Ops above the group-by (or above the join tree when there is no
    // group-by at all -- resolved below).
    std::vector<StageOp> upper;
    while (node->kind == PlanKind::Project
           || node->kind == PlanKind::Filter) {
        StageOp op;
        if (node->kind == PlanKind::Project) {
            op.kind = StageOp::Kind::Project;
            op.projections = node->projections;
        } else {
            op.kind = StageOp::Kind::Filter;
            op.predicate = node->predicate;
        }
        upper.insert(upper.begin(), op);
        node = node->children[0];
    }

    if (node->kind == PlanKind::GroupBy) {
        shape.postOps = upper;
        upper.clear();
        GroupBySpec gb;
        gb.groupColumns = node->groupColumns;
        gb.aggregates = node->aggregates;
        shape.groupBy = gb;
        node = node->children[0];
        while (node->kind == PlanKind::Project
               || node->kind == PlanKind::Filter) {
            StageOp op;
            if (node->kind == PlanKind::Project) {
                op.kind = StageOp::Kind::Project;
                op.projections = node->projections;
            } else {
                op.kind = StageOp::Kind::Filter;
                op.predicate = node->predicate;
            }
            shape.rootOps.insert(shape.rootOps.begin(), op);
            node = node->children[0];
        }
    } else {
        shape.rootOps = upper;
        upper.clear();
    }

    // Below: a join tree over leaves (or a bare leaf).
    // A leaf may still carry Filter/Project ops down to its Scan.
    std::unordered_map<const Plan *, int> node_ids;
    std::string fail;

    // Recursive build.
    struct Builder
    {
        StageShape &shape;
        std::string &fail;

        int
        build(const PlanPtr &p)
        {
            if (p->kind == PlanKind::Join) {
                int l = build(p->children[0]);
                if (l < 0)
                    return -1;
                int r = build(p->children[1]);
                if (r < 0)
                    return -1;
                ShapeNode n;
                n.isLeaf = false;
                n.joinType = p->joinType;
                n.left = l;
                n.right = r;
                n.leftKeys = p->leftKeys;
                n.rightKeys = p->rightKeys;
                n.residual = p->residual;
                shape.nodes.push_back(n);
                return static_cast<int>(shape.nodes.size()) - 1;
            }
            // Leaf: (Filter|Project)* over Scan.
            LeafInfo leaf;
            PlanPtr cur = p;
            std::vector<StageOp> ops;
            while (cur->kind == PlanKind::Filter
                   || cur->kind == PlanKind::Project) {
                StageOp op;
                if (cur->kind == PlanKind::Project) {
                    op.kind = StageOp::Kind::Project;
                    op.projections = cur->projections;
                } else {
                    op.kind = StageOp::Kind::Filter;
                    op.predicate = cur->predicate;
                }
                ops.insert(ops.begin(), op);
                cur = cur->children[0];
            }
            if (cur->kind != PlanKind::Scan) {
                fail = "stage contains an operator below a join that is "
                       "neither a scan nor a filter/project chain";
                return -1;
            }
            leaf.table = cur->scanTable;
            leaf.stageRef = cur->scanStage;
            leaf.alias = cur->scanAlias;
            leaf.columns = cur->scanColumns;
            leaf.ops = std::move(ops);
            shape.leaves.push_back(std::move(leaf));
            ShapeNode n;
            n.isLeaf = true;
            n.leaf = static_cast<int>(shape.leaves.size()) - 1;
            shape.nodes.push_back(n);
            return static_cast<int>(shape.nodes.size()) - 1;
        }
    } builder{shape, fail};

    shape.root = builder.build(node);
    if (shape.root < 0) {
        why = fail;
        return std::nullopt;
    }
    return shape;
}

bool
TaskCompiler::likeOverBigHeap(const ExprPtr &e, const LeafInfo &,
                              std::string &why) const
{
    std::vector<const Expr *> likes;
    collectLikes(e, likes);
    for (const Expr *l : likes) {
        if (l->children[0]->kind != ExprKind::ColRef) {
            why = "LIKE over a computed value";
            return true;
        }
        const std::string &cname = l->children[0]->column;
        const CatalogEntry *owner = ownerTable(catalog, cname);
        if (!owner) {
            why = "LIKE over unknown column " + cname;
            return true;
        }
        ColumnHeapInfo info = columnHeapInfo(*owner, baseColumnName(cname));
        // Cacheable iff the column's heap fits the regex accelerator's
        // 1MB string cache and the column is dictionary-like (distinct
        // values well below row count). Unique-ish columns (comments,
        // part names) cause random string-heap reads at any scale.
        bool dictionary_like = info.distinct * 2 <= info.rows
            || info.rows < 64;
        if (info.heapBytes > config.regexCacheBytes || !dictionary_like) {
            why = "regular-expression filter over '" + cname
                + "' whose string heap (" + std::to_string(info.heapBytes)
                + "B, " + std::to_string(info.distinct)
                + " distinct) exceeds the regex accelerator cache";
            return true;
        }
    }
    return false;
}

bool
TaskCompiler::checkLeafSupport(const LeafInfo &leaf,
                               std::string &why) const
{
    if (!leaf.table.empty() && !catalog.has(leaf.table)) {
        why = "unknown table " + leaf.table;
        return false;
    }
    for (const auto &op : leaf.ops) {
        if (op.kind == StageOp::Kind::Filter
                && likeOverBigHeap(op.predicate, leaf, why)) {
            return false;
        }
    }
    return true;
}

QueryCompilation
TaskCompiler::compile(const Query &q) const
{
    QueryCompilation out;
    out.queryName = q.name;

    // Pass 1: a big-heap regex anywhere makes offloading unprofitable
    // for the whole query (paper Sec. VIII-B: q9, q13, q16, q20).
    std::string regex_why;
    for (const auto &stage : q.stages) {
        std::vector<ExprPtr> exprs;
        collectPlanExprs(stage.plan, exprs);
        for (const auto &e : exprs) {
            LeafInfo dummy;
            if (likeOverBigHeap(e, dummy, regex_why)) {
                out.regexForcedHost = true;
                break;
            }
        }
        if (out.regexForcedHost)
            break;
    }

    // Pass 2: per-stage decisions. Group-by / top-k outputs are never
    // buffered in device DRAM, so stages reading them run on the host.
    std::set<std::string> host_resident_stages;
    for (const auto &stage : q.stages) {
        StageDecision d;
        d.stageId = stage.id;
        std::string why;
        auto shape = analyze(stage.plan, why);
        if (shape) {
            d.shape = *shape;
            d.shapeValid = true;
        }
        if (out.regexForcedHost) {
            d.onDevice = false;
            d.reason = regex_why;
            d.reasonCode = obs::SuspendReason::StringHeapRegex;
        } else if (!shape) {
            d.onDevice = false;
            d.reason = why;
            d.reasonCode = obs::SuspendReason::UnsupportedOp;
        } else {
            d.onDevice = true;
            for (const auto &leaf : shape->leaves) {
                std::string leaf_why;
                if (!leaf.stageRef.empty()
                        && host_resident_stages.count(leaf.stageRef)) {
                    d.onDevice = false;
                    d.reason = "consumes stage '" + leaf.stageRef
                        + "' whose aggregate output is not buffered in "
                          "device DRAM (Sec. VI-E condition 1)";
                    d.reasonCode = obs::SuspendReason::MidPlanGroupBy;
                    break;
                }
                if (!checkLeafSupport(leaf, leaf_why)) {
                    d.onDevice = false;
                    d.reason = leaf_why;
                    // checkLeafSupport only rejects regex/LIKE cases
                    // today; anything else is a generic unsupported op.
                    d.reasonCode = leaf_why.find("regex") !=
                                           std::string::npos
                        || leaf_why.find("LIKE") != std::string::npos
                        ? obs::SuspendReason::StringHeapRegex
                        : obs::SuspendReason::UnsupportedOp;
                    break;
                }
            }
            if (d.onDevice && shape->groupBy) {
                for (const auto &a : shape->groupBy->aggregates) {
                    if (a.kind == AggKind::CountDistinct) {
                        d.onDevice = false;
                        d.reason = "count(distinct) has no SQL "
                                   "Swissknife accelerator";
                        d.reasonCode =
                            obs::SuspendReason::UnsupportedOp;
                        break;
                    }
                }
            }
        }
        // Track residency for later stages: device-resident only when
        // the stage ran on the device AND has no aggregate/top-k.
        bool aggregate_output = d.shapeValid
            && (d.shape.groupBy.has_value() || d.shape.limit >= 0
                || !d.shape.sortKeys.empty());
        if (!d.onDevice || aggregate_output)
            host_resident_stages.insert(stage.id);
        out.anyDeviceStage |= d.onDevice;
        out.stages.push_back(std::move(d));
    }
    return out;
}

} // namespace aquoman
