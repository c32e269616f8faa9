/**
 * @file
 * Compiled conjunct kernels for the batched Row Selector,
 * filterSelection (relalg/eval.hh), the one filter loop the host
 * engine and the device share; nothing outside relalg uses them
 * directly. A predicate conjunct whose tree is
 * Compare(numeric-arith, numeric-arith) is compiled once per
 * filterSelection call into a flat step list (column loads, null-safe
 * decimal scaling, arithmetic temporaries, one final compare) and
 * evaluated per morsel, column-at-a-time, straight into 32-bit
 * selection-mask words.
 *
 * The compiled kernel transcribes evalExpr's semantics exactly (null
 * propagation, decimal promotion, compare-side scaling), so its mask
 * is bit-identical to evalPredicate over the same rows; conjuncts the
 * compiler rejects (strings, LIKE, IN, CASE, OR, ...) simply keep the
 * reference evaluator path. See DESIGN.md §11 and §16.
 */

#ifndef AQUOMAN_RELALG_PRED_KERNEL_HH
#define AQUOMAN_RELALG_PRED_KERNEL_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "common/bitvector.hh"
#include "relalg/expr.hh"
#include "relalg/reltable.hh"

namespace aquoman {

/** A predicate conjunct compiled for mask-at-a-time evaluation. */
class ConjunctKernel
{
  public:
    /** Reusable per-thread buffers so morsel loops do not reallocate. */
    struct Scratch
    {
        std::vector<std::vector<std::int64_t>> bufs;
        std::vector<const std::int64_t *> ptrs;
    };

    /**
     * Compile @p e against @p input's schema, or nullptr when the
     * conjunct is not kernel-eligible (non-Compare root, string or
     * non-arith operands). The kernel holds column *indices*, so it
     * stays valid for any RelTable with the same schema.
     */
    static std::unique_ptr<ConjunctKernel>
    tryCompile(const ExprPtr &e, const RelTable &input);

    /**
     * True for a bare column/constant compare: no arithmetic or
     * scaling temporaries, so evaluating it densely costs one
     * streaming pass and no gather. filterSelection AND-folds these
     * over the full range before any selection materializes.
     */
    bool cheap() const { return steps_.empty(); }

    /**
     * Evaluate the conjunct at @p n selected rows of @p input and
     * write the verdict bits into @p out (resized to n; bit i set iff
     * selection position i passes). @p rows names the selected row
     * ids; nullptr means the dense range [first, first + n).
     */
    void evalMask(const RelTable &input, const std::int64_t *rows,
                  std::int64_t first, std::int64_t n, BitVector &out,
                  Scratch &scratch) const;

  private:
    /** Operand of a step: scratch/column buffer or folded constant. */
    struct Operand
    {
        int buf = -1; ///< buffer index, or -1 for a constant
        std::int64_t c = 0;
    };

    enum class StepKind : std::uint8_t
    {
        Scale, ///< null-safe ×kDecimalScale (decimal promotion)
        Arith, ///< binary arithmetic with null propagation
    };

    struct Step
    {
        StepKind kind = StepKind::Arith;
        ArithOp op = ArithOp::Add;
        bool dec = false; ///< decimal Mul/Div semantics
        Operand a, b;
        int dst = -1;
    };

    /** The final compare, with constant sides pre-scaled. */
    struct Cmp
    {
        CmpOp op = CmpOp::Eq;
        Operand a, b;
        std::int64_t sa = 1, sb = 1; ///< decimal compare scaling
    };

    ConjunctKernel() = default;

    std::vector<int> cols_; ///< input column index backing buffer i
    int numBufs_ = 0;       ///< temporaries beyond the column buffers
    std::vector<Step> steps_;
    Cmp cmp_;
};

} // namespace aquoman

#endif // AQUOMAN_RELALG_PRED_KERNEL_HH
