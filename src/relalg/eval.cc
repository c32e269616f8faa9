#include "relalg/eval.hh"

#include <algorithm>
#include <unordered_map>

#include "common/batch_mode.hh"
#include "common/decimal.hh"
#include "common/thread_pool.hh"
#include "relalg/plan.hh"
#include "relalg/pred_kernel.hh"

namespace aquoman {

namespace {

/** Is this a numeric type that participates in decimal promotion? */
bool
isIntegral(ColumnType t)
{
    return t == ColumnType::Int32 || t == ColumnType::Int64;
}

/** Scale integer values up to decimal when mixing with a decimal side. */
void
promoteToDecimal(RelColumn &c)
{
    if (c.type == ColumnType::Decimal)
        return;
    for (auto &v : *c.vals) {
        if (v != kNullValue)
            v *= kDecimalScale;
    }
    c.type = ColumnType::Decimal;
}

std::int64_t
cmpResult(CmpOp op, int c)
{
    switch (op) {
      case CmpOp::Eq: return c == 0;
      case CmpOp::Ne: return c != 0;
      case CmpOp::Lt: return c < 0;
      case CmpOp::Le: return c <= 0;
      case CmpOp::Gt: return c > 0;
      case CmpOp::Ge: return c >= 0;
    }
    return 0;
}

/**
 * The varchar column @p e references directly, or nullptr. Heap
 * interning dedupes (one canonical offset per distinct string), so
 * string equality against such a column reduces to offset equality.
 */
const RelColumn *
varcharColRef(const ExprPtr &e, const RelTable &input)
{
    if (e->kind != ExprKind::ColRef)
        return nullptr;
    const RelColumn &c = input.col(input.indexOf(e->column));
    return c.type == ColumnType::Varchar && c.heap ? &c : nullptr;
}

} // namespace

ColumnType
bindType(const ExprPtr &e, const RelTable &input)
{
    switch (e->kind) {
      case ExprKind::ColRef:
        return input.col(input.indexOf(e->column)).type;
      case ExprKind::Const:
      case ExprKind::ConstStr:
        return e->resultType;
      case ExprKind::Arith: {
        ColumnType a = bindType(e->children[0], input);
        ColumnType b = bindType(e->children[1], input);
        if (a == ColumnType::Date && isIntegral(b))
            return ColumnType::Date;
        if (a == ColumnType::Date && b == ColumnType::Date)
            return ColumnType::Int64;
        if (a == ColumnType::Decimal || b == ColumnType::Decimal)
            return ColumnType::Decimal;
        return ColumnType::Int64;
      }
      case ExprKind::Compare:
      case ExprKind::Logic:
      case ExprKind::Not:
      case ExprKind::Like:
      case ExprKind::InList:
        return ColumnType::Int32;
      case ExprKind::Case:
        return bindType(e->children[1], input);
      case ExprKind::Year:
        return ColumnType::Int64;
    }
    return ColumnType::Int64;
}

RelColumn
evalExpr(const ExprPtr &e, const RelTable &input, const std::string &name)
{
    std::int64_t n = input.numRows();
    RelColumn out(name, bindType(e, input));
    switch (e->kind) {
      case ExprKind::ColRef: {
        const RelColumn &src = input.col(input.indexOf(e->column));
        out.vals = src.vals; // zero-copy column reference
        out.heap = src.heap;
        out.type = src.type;
        break;
      }
      case ExprKind::Const: {
        out.vals->assign(n, e->constVal);
        break;
      }
      case ExprKind::ConstStr: {
        // Materialise via a tiny private heap so str() works uniformly.
        auto heap = std::make_shared<StringHeap>();
        std::int64_t off = heap->intern(e->strVal);
        out.heap = heap;
        out.vals->assign(n, off);
        break;
      }
      case ExprKind::Arith: {
        RelColumn a = evalExpr(e->children[0], input);
        RelColumn b = evalExpr(e->children[1], input);
        bool dec = a.type == ColumnType::Decimal
            || b.type == ColumnType::Decimal;
        bool date_shift = a.type == ColumnType::Date && isIntegral(b.type);
        if (dec && !date_shift) {
            // Copy-on-promote: a/b may alias input columns.
            if (a.type != ColumnType::Decimal) {
                a.vals = std::make_shared<std::vector<std::int64_t>>(
                    *a.vals);
                promoteToDecimal(a);
            }
            if (b.type != ColumnType::Decimal) {
                b.vals = std::make_shared<std::vector<std::int64_t>>(
                    *b.vals);
                promoteToDecimal(b);
            }
        }
        out.vals->resize(n);
        for (std::int64_t i = 0; i < n; ++i) {
            std::int64_t x = a.get(i);
            std::int64_t y = b.get(i);
            if (x == kNullValue || y == kNullValue) {
                (*out.vals)[i] = kNullValue;
                continue;
            }
            std::int64_t r = 0;
            switch (e->arithOp) {
              case ArithOp::Add: r = x + y; break;
              case ArithOp::Sub: r = x - y; break;
              case ArithOp::Mul:
                r = dec ? decimalMul(x, y) : x * y;
                break;
              case ArithOp::Div:
                r = dec ? decimalDiv(x, y) : (y == 0 ? 0 : x / y);
                break;
            }
            (*out.vals)[i] = r;
        }
        break;
      }
      case ExprKind::Compare: {
        if (e->cmpOp == CmpOp::Eq || e->cmpOp == CmpOp::Ne) {
            // varchar column vs string constant: compare interned
            // offsets instead of string bytes (same result, dedupe
            // makes the canonical offset unique).
            const RelColumn *col = nullptr;
            const Expr *cst = nullptr;
            if (e->children[1]->kind == ExprKind::ConstStr) {
                col = varcharColRef(e->children[0], input);
                cst = e->children[1].get();
            } else if (e->children[0]->kind == ExprKind::ConstStr) {
                col = varcharColRef(e->children[1], input);
                cst = e->children[0].get();
            }
            if (col && cst) {
                std::int64_t off = col->heap->find(cst->strVal);
                bool want_eq = e->cmpOp == CmpOp::Eq;
                const std::vector<std::int64_t> &sv = *col->vals;
                out.vals->resize(n);
                for (std::int64_t i = 0; i < n; ++i)
                    (*out.vals)[i] = (sv[i] == off) == want_eq;
                break;
            }
        }
        RelColumn a = evalExpr(e->children[0], input);
        RelColumn b = evalExpr(e->children[1], input);
        out.vals->resize(n);
        if (isStringType(a.type) || isStringType(b.type)) {
            AQ_ASSERT(isStringType(a.type) && isStringType(b.type),
                      "string compared with non-string");
            for (std::int64_t i = 0; i < n; ++i) {
                int c = a.str(i).compare(b.str(i));
                (*out.vals)[i] = cmpResult(e->cmpOp, c);
            }
        } else {
            bool dec = a.type == ColumnType::Decimal
                || b.type == ColumnType::Decimal;
            std::int64_t sa = dec && a.type != ColumnType::Decimal
                ? kDecimalScale : 1;
            std::int64_t sb = dec && b.type != ColumnType::Decimal
                ? kDecimalScale : 1;
            for (std::int64_t i = 0; i < n; ++i) {
                std::int64_t x = a.get(i);
                std::int64_t y = b.get(i);
                if (x == kNullValue || y == kNullValue) {
                    (*out.vals)[i] = 0;
                    continue;
                }
                x *= sa;
                y *= sb;
                int c = x < y ? -1 : (x > y ? 1 : 0);
                (*out.vals)[i] = cmpResult(e->cmpOp, c);
            }
        }
        break;
      }
      case ExprKind::Logic: {
        RelColumn a = evalExpr(e->children[0], input);
        RelColumn b = evalExpr(e->children[1], input);
        out.vals->resize(n);
        for (std::int64_t i = 0; i < n; ++i) {
            bool x = a.get(i) != 0 && a.get(i) != kNullValue;
            bool y = b.get(i) != 0 && b.get(i) != kNullValue;
            (*out.vals)[i] = e->logicOp == LogicOp::And ? (x && y)
                                                        : (x || y);
        }
        break;
      }
      case ExprKind::Not: {
        RelColumn a = evalExpr(e->children[0], input);
        out.vals->resize(n);
        for (std::int64_t i = 0; i < n; ++i)
            (*out.vals)[i] = a.get(i) == 0 ? 1 : 0;
        break;
      }
      case ExprKind::Like: {
        // Byte prefilter: the pattern's longest literal run is a
        // necessary substring of every match, so strings lacking it
        // are rejected by one memchr-style scan before the wildcard
        // matcher runs. Only guaranteed-false rows are skipped, so the
        // result stays bit-identical to the plain likeMatch loop.
        const std::string_view run = likeLiteralRun(e->pattern);
        const RelColumn *dict = varcharColRef(e->children[0], input);
        if (dict && !run.empty() && !dict->heap->mayContain(run)) {
            // No interned string contains the run: nothing can match.
            out.vals->assign(n, 0);
            break;
        }
        auto match = [&](std::string_view s) -> std::int64_t {
            if (!run.empty() && s.find(run) == std::string_view::npos)
                return 0;
            return likeMatch(s, e->pattern);
        };
        if (dict && dict->heap->numStrings() * 4 < n) {
            // Small dictionary: match each distinct string once and
            // reuse the verdict by interned offset.
            std::unordered_map<std::int64_t, std::int64_t> memo;
            memo.reserve(dict->heap->numStrings());
            const std::vector<std::int64_t> &sv = *dict->vals;
            out.vals->resize(n);
            for (std::int64_t i = 0; i < n; ++i) {
                auto [it, fresh] = memo.try_emplace(sv[i], 0);
                if (fresh)
                    it->second = match(dict->heap->get(sv[i]));
                (*out.vals)[i] = it->second;
            }
            break;
        }
        RelColumn a = evalExpr(e->children[0], input);
        AQ_ASSERT(isStringType(a.type), "LIKE over non-string");
        out.vals->resize(n);
        for (std::int64_t i = 0; i < n; ++i)
            (*out.vals)[i] = match(a.str(i));
        break;
      }
      case ExprKind::InList: {
        if (!e->listStrs.empty()) {
            const RelColumn *col = varcharColRef(e->children[0], input);
            if (col) {
                // Resolve each list literal to its interned offset
                // (-1 when absent, which matches no row).
                std::vector<std::int64_t> offs;
                for (const std::string &v : e->listStrs)
                    offs.push_back(col->heap->find(v));
                const std::vector<std::int64_t> &sv = *col->vals;
                out.vals->resize(n);
                for (std::int64_t i = 0; i < n; ++i) {
                    std::int64_t v = sv[i];
                    bool hit = std::find(offs.begin(), offs.end(), v)
                        != offs.end();
                    (*out.vals)[i] = hit;
                }
                break;
            }
        }
        RelColumn a = evalExpr(e->children[0], input);
        out.vals->resize(n);
        if (!e->listStrs.empty()) {
            AQ_ASSERT(isStringType(a.type));
            for (std::int64_t i = 0; i < n; ++i) {
                std::string_view s = a.str(i);
                bool hit = std::any_of(
                    e->listStrs.begin(), e->listStrs.end(),
                    [&](const std::string &v) { return s == v; });
                (*out.vals)[i] = hit;
            }
        } else {
            for (std::int64_t i = 0; i < n; ++i) {
                std::int64_t v = a.get(i);
                bool hit = std::find(e->listVals.begin(), e->listVals.end(),
                                     v) != e->listVals.end();
                (*out.vals)[i] = hit;
            }
        }
        break;
      }
      case ExprKind::Year: {
        RelColumn a = evalExpr(e->children[0], input);
        out.vals->resize(n);
        for (std::int64_t i = 0; i < n; ++i) {
            std::int64_t v = a.get(i);
            (*out.vals)[i] = v == kNullValue
                ? kNullValue
                : civilFromDays(static_cast<std::int32_t>(v)).year;
        }
        break;
      }
      case ExprKind::Case: {
        std::size_t arms = (e->children.size() - 1) / 2;
        std::vector<RelColumn> whens, thens;
        for (std::size_t a = 0; a < arms; ++a) {
            whens.push_back(evalExpr(e->children[2 * a], input));
            thens.push_back(evalExpr(e->children[2 * a + 1], input));
        }
        RelColumn else_c = evalExpr(e->children.back(), input);
        out.type = thens.empty() ? else_c.type : thens[0].type;
        out.heap = thens.empty() ? else_c.heap : thens[0].heap;
        out.vals->resize(n);
        for (std::int64_t i = 0; i < n; ++i) {
            std::int64_t v = else_c.get(i);
            for (std::size_t a = 0; a < arms; ++a) {
                if (whens[a].get(i) != 0
                        && whens[a].get(i) != kNullValue) {
                    v = thens[a].get(i);
                    break;
                }
            }
            (*out.vals)[i] = v;
        }
        break;
      }
    }
    return out;
}

BitVector
evalPredicate(const ExprPtr &e, const RelTable &input)
{
    RelColumn c = evalExpr(e, input, "pred");
    std::int64_t n = input.numRows();
    BitVector bv(n);
    const std::vector<std::int64_t> &vals = *c.vals;
    for (std::int64_t i = 0; i < n; ++i) {
        std::int64_t v = vals[i];
        bv.set(i, v != 0 && v != kNullValue);
    }
    return bv;
}

RelColumn
evalExprSel(const ExprPtr &e, const RelTable &input,
            const std::int64_t *rows, std::int64_t first, std::int64_t n,
            const std::string &name)
{
    if (rows == nullptr && first == 0 && n == input.numRows())
        return evalExpr(e, input, name);
    // Late materialization: gather only the referenced leaf columns at
    // the selected positions, then run the reference evaluator over
    // the compacted sub-relation. Interior nodes therefore execute the
    // exact evalExpr loops, just over n rows instead of all of them.
    std::vector<std::string> cols;
    collectColumns(e, cols);
    RelTable sub;
    for (const auto &cname : cols) {
        const RelColumn &src = input.col(input.indexOf(cname));
        RelColumn cc(cname, src.type);
        cc.heap = src.heap;
        cc.vals->resize(n);
        std::vector<std::int64_t> &vals = *cc.vals;
        if (rows == nullptr) {
            const std::vector<std::int64_t> &sv = *src.vals;
            std::copy(sv.begin() + first, sv.begin() + first + n,
                      vals.begin());
        } else {
            for (std::int64_t i = 0; i < n; ++i)
                vals[i] = src.get(rows[i]);
        }
        sub.addColumn(std::move(cc));
    }
    if (sub.numColumns() == 0) {
        // Constant expression: give the sub-relation its row count via
        // a dummy column the expression never references.
        RelColumn dummy("__sel_rows", ColumnType::Int64);
        dummy.vals->assign(n, 0);
        sub.addColumn(std::move(dummy));
    }
    return evalExpr(e, sub, name);
}

namespace {

/** Split the top-level AND tree of @p e into its conjuncts, in order. */
void
splitAndConjuncts(const ExprPtr &e, std::vector<ExprPtr> &out)
{
    if (e->kind == ExprKind::Logic && e->logicOp == LogicOp::And) {
        splitAndConjuncts(e->children[0], out);
        splitAndConjuncts(e->children[1], out);
    } else {
        out.push_back(e);
    }
}

} // namespace

void
filterSelection(const ExprPtr &pred, const RelTable &input,
                SelectionVector &sel)
{
    std::vector<ExprPtr> conjuncts;
    splitAndConjuncts(pred, conjuncts);

    // Compiled mask kernels where a conjunct is eligible. With
    // AQUOMAN_BATCH=0 none is compiled and every conjunct runs through
    // the interpreted evaluator: the bit-identical reference the
    // compiled path is diffed against.
    std::vector<std::unique_ptr<ConjunctKernel>> kernels(conjuncts.size());
    if (batchExecutionEnabled()) {
        for (std::size_t i = 0; i < conjuncts.size(); ++i)
            kernels[i] = ConjunctKernel::tryCompile(conjuncts[i], input);
    }

    // While the selection is still dense, every cheap compiled
    // conjunct (a bare compare: one streaming pass, no gather) is
    // AND-folded word-wise before any survivor list materializes.
    // Evaluating these out of order is sound because conjunct verdicts
    // are pure and per-row (NULL fails a comparison on both paths), so
    // AND order changes cost, never the surviving set.
    const std::int64_t *base = sel.data(); // nullptr when dense
    std::vector<bool> folded(conjuncts.size(), false);
    for (std::size_t i = 0; i < conjuncts.size(); ++i)
        folded[i] = base == nullptr && kernels[i] && kernels[i]->cheap();

    // Each morsel of the input selection runs the conjunct chain on its
    // own survivors; joining the morsel lists in morsel order gives the
    // serial ascending row order for any thread count.
    auto morsels = ThreadPool::splitRange(0, sel.size(), kMorselRows);
    std::vector<std::vector<std::int64_t>> locals(morsels.size());
    std::vector<char> whole(morsels.size(), 1); // no row of it failed
    parallelFor(0, static_cast<std::int64_t>(morsels.size()), 1,
                [&](std::int64_t m0, std::int64_t m1) {
        ConjunctKernel::Scratch scratch;
        BitVector acc, mask;
        for (std::int64_t m = m0; m < m1; ++m) {
            auto [b, e] = morsels[m];
            // Survivors: the morsel's input positions until a conjunct
            // drops a row, then the morsel-local list. `whole` is what
            // says which; an emptied list's data() proves nothing.
            const std::int64_t *rows = base == nullptr ? nullptr : base + b;
            std::int64_t n = e - b;
            std::vector<std::int64_t> &out = locals[m];
            auto keep = [&](const BitVector &verdicts) {
                const std::int64_t kept = verdicts.popcount();
                if (kept == n)
                    return;
                std::vector<std::int64_t> next;
                next.reserve(kept);
                for (std::int64_t w = 0; w < verdicts.numWords(); ++w) {
                    std::uint32_t bits = verdicts.word(w);
                    while (bits != 0) {
                        std::int64_t pos = w * 32 + __builtin_ctz(bits);
                        next.push_back(rows ? rows[pos] : b + pos);
                        bits &= bits - 1;
                    }
                }
                out.swap(next);
                rows = out.data();
                n = kept;
                whole[m] = 0;
            };

            bool any = false;
            for (std::size_t i = 0; i < conjuncts.size(); ++i) {
                if (!folded[i])
                    continue;
                kernels[i]->evalMask(input, nullptr, b, n, any ? mask : acc,
                                     scratch);
                if (any)
                    acc.andWith(mask);
                any = true;
            }
            if (any)
                keep(acc);

            for (std::size_t i = 0; i < conjuncts.size() && n > 0; ++i) {
                if (folded[i])
                    continue;
                if (kernels[i]) {
                    kernels[i]->evalMask(input, rows, b, n, mask, scratch);
                } else {
                    RelColumn v =
                        evalExprSel(conjuncts[i], input, rows, b, n, "pred");
                    mask.resize(n);
                    for (std::int64_t r = 0; r < n; ++r)
                        mask.set(r, v.get(r) != 0 && v.get(r) != kNullValue);
                }
                keep(mask);
            }
        }
    });

    if (std::all_of(whole.begin(), whole.end(), [](char w) { return w; }))
        return; // every row passed: selection unchanged
    std::size_t total = 0;
    for (std::size_t m = 0; m < morsels.size(); ++m)
        total += whole[m] ? morsels[m].second - morsels[m].first
                          : locals[m].size();
    std::vector<std::int64_t> next;
    next.reserve(total);
    for (std::size_t m = 0; m < morsels.size(); ++m) {
        if (!whole[m]) {
            next.insert(next.end(), locals[m].begin(), locals[m].end());
            continue;
        }
        for (std::int64_t p = morsels[m].first; p < morsels[m].second; ++p)
            next.push_back(sel[p]);
    }
    sel.assign(std::move(next));
}

} // namespace aquoman
