/**
 * @file
 * Vectorised expression evaluation over materialised relations. This is
 * the semantic reference both execution paths share: the baseline engine
 * evaluates expressions with it directly, and the AQUOMAN Row
 * Transformer's PE programs are checked against it in tests.
 */

#ifndef AQUOMAN_RELALG_EVAL_HH
#define AQUOMAN_RELALG_EVAL_HH

#include <cstdint>
#include <string>

#include "columnstore/selection_vector.hh"
#include "common/bitvector.hh"
#include "relalg/expr.hh"
#include "relalg/reltable.hh"

namespace aquoman {

/**
 * Resolve the result type of @p e against @p input's schema.
 * Applies SQL-ish promotion: any Decimal operand makes arithmetic and
 * comparison decimal-scaled.
 */
ColumnType bindType(const ExprPtr &e, const RelTable &input);

/** Evaluate @p e over all rows of @p input into a column named @p name. */
RelColumn evalExpr(const ExprPtr &e, const RelTable &input,
                   const std::string &name = "expr");

/** Evaluate a boolean expression into a row-selection bit vector. */
BitVector evalPredicate(const ExprPtr &e, const RelTable &input);

/**
 * Evaluate @p e at @p n selected rows of @p input into a column of
 * length @p n. @p rows names the selected row ids; when nullptr the
 * selection is the dense range [first, first + n). The full dense
 * range delegates to evalExpr (zero-copy column references), so the
 * two entry points are bit-identical by construction.
 */
RelColumn evalExprSel(const ExprPtr &e, const RelTable &input,
                      const std::int64_t *rows, std::int64_t first,
                      std::int64_t n, const std::string &name = "expr");

/**
 * The Row Selector both engines filter through: shrink @p sel to the
 * rows of @p input passing @p pred. Each kMorselRows morsel of the
 * selection runs the AND-conjunct chain on its own survivors, so later
 * conjuncts only see rows the earlier ones kept, through compiled mask
 * kernels where eligible and the interpreted evaluator otherwise (only
 * the latter with AQUOMAN_BATCH=0). The resulting selection is exactly
 * the ascending pass set evalPredicate would produce over the rows
 * @p sel selects, for any thread count. @p input may have no columns
 * when @p pred references none; its row count then comes from @p sel.
 */
void filterSelection(const ExprPtr &pred, const RelTable &input,
                     SelectionVector &sel);

} // namespace aquoman

#endif // AQUOMAN_RELALG_EVAL_HH
