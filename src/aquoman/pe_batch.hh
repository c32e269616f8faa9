/**
 * @file
 * Columnar batch execution of Row Transformation Programs. A PE
 * program's per-row FIFO read/write sequence is static (no branches),
 * so one symbolic pass over the instruction memories turns the whole
 * systolic array into a DAG of value definitions that can execute
 * column-at-a-time over flat int64 buffers — no deques, one tight loop
 * per operation per morsel.
 *
 * The compilation is conservative: any program whose semantics depend
 * on state carried between rows (a register read before its first
 * write of the row, an operand FIFO that is popped empty or left
 * non-empty at end of row) is NOT vectorizable, and the kernel falls
 * back to the scalar SystolicArray interpreter internally, preserving
 * bit-identical behaviour — including panics on FIFO underflow. The
 * scalar interpreter therefore stays the semantic oracle; the batch
 * kernel is only ever a faster way to run the same program.
 *
 * Each DAG value is lowered once, at compile time, to a specialized
 * kernel function: one template instantiation per (opcode × operand
 * shape), so run() is a loop over precompiled function pointers with
 * no per-morsel opcode dispatch (DESIGN.md §16). Ops with an AVX2
 * vector form additionally pick an explicit intrinsic variant behind
 * the avx2Available() CPUID check.
 */

#ifndef AQUOMAN_AQUOMAN_PE_BATCH_HH
#define AQUOMAN_AQUOMAN_PE_BATCH_HH

#include <cstdint>
#include <vector>

#include "aquoman/pe.hh"

namespace aquoman {

/** Default rows per batch-kernel morsel (contiguous flat-buffer runs).
 *  16K won the 4K–64K sweep (`micro_components --morsel-sweep`): big
 *  enough to amortize per-morsel setup, small enough that one input
 *  column plus the kernel scratch stays L2-resident. */
constexpr std::int64_t kPeBatchRows = 16384;

/**
 * Effective batch-morsel row count: kPeBatchRows unless overridden via
 * setPeBatchMorselRows (clamped to [1024, 1M]).
 * Morsel size is a pure performance knob — results are bit-identical
 * at any value, as the kernels carry no cross-morsel state and the
 * scalar fallback processes rows in order regardless of the split.
 */
std::int64_t peBatchMorselRows();

/** Test hook: force the morsel size (0 restores the default). */
void setPeBatchMorselRows(std::int64_t rows);

/** A systolic-array program compiled for column-at-a-time execution. */
class PeBatchKernel
{
  public:
    /**
     * Compile @p programs (one instruction memory per PE, chained
     * through their FIFOs) for batch execution over @p num_inputs
     * input columns per row.
     */
    PeBatchKernel(const std::vector<std::vector<PeInstruction>> &programs,
                  int num_inputs);

    /** False when the program needs the scalar fallback. */
    bool vectorizable() const { return vectorizable_; }

    /** Output values the array produces per row (vectorizable only). */
    int numOutputs() const { return static_cast<int>(outputs_.size()); }

    /**
     * Execute rows [0, n): value r of input column i is
     * inputs[i][r]; output column o is written to outputs[o][0..n).
     * @param num_outputs output columns the caller consumes per row
     */
    void run(const std::int64_t *const *inputs, std::int64_t n,
             std::int64_t *const *outputs, int num_outputs);

    /**
     * Specialized inner loop for one DAG value: writes n results to
     * dst from (a_ptr | a_const) op (b_ptr | b_const). The operand
     * shape (column vs constant) and opcode are baked into the
     * function at compile time via template instantiation.
     */
    using KernelFn = void (*)(std::int64_t *dst, const std::int64_t *a,
                              std::int64_t ac, const std::int64_t *b,
                              std::int64_t bc, std::int64_t n);

  private:
    /** One symbolic per-row value (SSA-style definition). */
    struct Val
    {
        enum class Kind : std::uint8_t { Input, Zero, Op };
        Kind kind = Kind::Zero;
        int input = -1;               ///< Kind::Input: input column
        PeOpcode op = PeOpcode::Pass; ///< Kind::Op
        int a = -1;                   ///< left operand value id
        int b = -1;                   ///< right operand id (-1: imm/unary)
        bool useImm = false;
        std::int64_t imm = 0;
        int buf = -1;                 ///< scratch buffer (Kind::Op)
    };

    /** Run-time operand source: input column, scratch buffer, or
     *  constant (the shape is already baked into the kernel). */
    struct Src
    {
        int input = -1; ///< input column index, or -1
        int buf = -1;   ///< scratch buffer index, or -1
        std::int64_t c = 0;
    };

    /** One precompiled op: kernel pointer + resolved operand sources. */
    struct Step
    {
        KernelFn fn = nullptr;
        int dstBuf = -1;
        Src a, b;
    };

    bool compile(const std::vector<std::vector<PeInstruction>> &programs);
    void buildSteps();
    void runScalar(const std::int64_t *const *inputs, std::int64_t n,
                   std::int64_t *const *outputs, int num_outputs);

    int numInputs_ = 0;
    bool vectorizable_ = false;
    std::vector<Val> vals_;
    std::vector<Step> steps_;  ///< one per Kind::Op val, definition order
    std::vector<int> outputs_; ///< value ids of the last PE's out FIFO
    int numBuffers_ = 0;
    std::vector<std::vector<std::int64_t>> scratch_;

    /// Scalar fallback: the reference interpreter, with its cross-row
    /// register/opReg state preserved across run() calls.
    SystolicArray fallback_;
    std::vector<std::int64_t> rowIn_, rowOut_;
};

} // namespace aquoman

#endif // AQUOMAN_AQUOMAN_PE_BATCH_HH
