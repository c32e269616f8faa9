/** @file
 * Differential tests for the columnar PE batch kernel: random programs
 * over all 13 opcodes (imm and operand-FIFO forms, 1-3 PE chains) must
 * produce bit-identical outputs to the scalar Pe interpreter, and the
 * scalar fallback must preserve cross-row state and panic behaviour.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>


#include "aquoman/pe_batch.hh"
#include "common/date.hh"
#include "common/decimal.hh"
#include "common/rng.hh"
#include "common/simd.hh"

namespace aquoman {
namespace {

constexpr std::int64_t kInt64Min =
    std::numeric_limits<std::int64_t>::min();

/**
 * Run @p programs over @p inputs both ways — PeBatchKernel::run over
 * the whole batch vs. a fresh SystolicArray row at a time — and demand
 * bit-identical outputs. @p num_outputs is the per-row output count of
 * the last PE (the kernel cannot report it for fallback programs).
 */
void
checkBatchAgainstScalar(
    const std::vector<std::vector<PeInstruction>> &programs,
    const std::vector<std::vector<std::int64_t>> &inputs,
    int num_outputs)
{
    const std::int64_t n = inputs.empty()
        ? 0 : static_cast<std::int64_t>(inputs[0].size());

    PeBatchKernel kernel(programs, static_cast<int>(inputs.size()));
    if (kernel.vectorizable()) {
        ASSERT_EQ(kernel.numOutputs(), num_outputs);
    }

    std::vector<const std::int64_t *> in_ptrs;
    for (const auto &col : inputs)
        in_ptrs.push_back(col.data());
    std::vector<std::vector<std::int64_t>> got(
        num_outputs, std::vector<std::int64_t>(n, 0));
    std::vector<std::int64_t *> out_ptrs;
    for (auto &col : got)
        out_ptrs.push_back(col.data());
    kernel.run(in_ptrs.data(), n, out_ptrs.data(), num_outputs);

    SystolicArray oracle(programs);
    std::vector<std::int64_t> row_in(inputs.size()), row_out;
    for (std::int64_t r = 0; r < n; ++r) {
        for (std::size_t i = 0; i < inputs.size(); ++i)
            row_in[i] = inputs[i][r];
        oracle.runRow(row_in, row_out);
        ASSERT_GE(static_cast<int>(row_out.size()), num_outputs);
        for (int o = 0; o < num_outputs; ++o) {
            ASSERT_EQ(got[o][r], row_out[o])
                << "row " << r << " output " << o << " (vectorizable="
                << kernel.vectorizable() << ")";
        }
    }
}

// ---------------------------------------------------------------------
// Random program sweep
// ---------------------------------------------------------------------

/**
 * Generates random but well-formed PE chains. Well-formed means the
 * scalar interpreter never underflows a FIFO on any row: input pops are
 * bounded by the producer's per-row output count and operand pops only
 * happen after a push earlier in the same program. Value magnitudes are
 * tracked symbolically so multiplies never overflow (signed overflow is
 * UB, not a semantics to differential-test).
 */
class RandomProgramGen
{
  public:
    explicit RandomProgramGen(std::uint64_t seed) : rng(seed) {}

    /** Max |value| of any generated input. */
    static constexpr std::int64_t kInputBound = 1000000;
    /** Operand-magnitude ceiling; candidates exceeding it are skipped. */
    static constexpr double kMaxBound = 4e15;

    std::vector<std::vector<PeInstruction>>
    generate(int num_pes, int num_inputs, int *num_outputs)
    {
        std::vector<std::vector<PeInstruction>> programs;
        // Bounds of the FIFO entries feeding the next PE.
        std::vector<double> fifo(num_inputs,
                                 static_cast<double>(kInputBound));
        for (int p = 0; p < num_pes; ++p)
            programs.push_back(generatePe(fifo));
        *num_outputs = static_cast<int>(fifo.size());
        return programs;
    }

  private:
    std::vector<PeInstruction>
    generatePe(std::vector<double> &fifo)
    {
        std::vector<PeInstruction> prog;
        std::vector<double> out;
        // reg -> bound of the value written this row. Registers never
        // written read as power-on zero; reads of not-yet-written
        // registers are avoided so random programs have no carried
        // state (those paths get targeted tests below).
        std::vector<double> reg_bound(8, 0.0);
        std::vector<int> written;
        std::size_t in_pos = 0;
        std::int64_t op_reg_depth = 0;
        double op_reg_bound = 0.0;

        auto pick_source = [&](double *bound) -> int {
            // Prefer the input FIFO while entries remain, else a
            // register written this row, else an unwritten register.
            bool can_pop = in_pos < fifo.size();
            if (can_pop && (written.empty() || rng.uniform(0, 2) != 0)) {
                *bound = fifo[in_pos++];
                return 0;
            }
            if (!written.empty()) {
                int r = written[rng.uniform(
                    0, static_cast<std::int64_t>(written.size()) - 1)];
                *bound = reg_bound[r];
                return r;
            }
            *bound = 0.0;
            return 7; // never written: reads as zero on every row
        };
        auto write_dest = [&](double bound) -> int {
            if (rng.uniform(0, 2) == 0) {
                out.push_back(bound);
                return 0;
            }
            int r = static_cast<int>(rng.uniform(1, 6));
            if (std::find(written.begin(), written.end(), r)
                    == written.end())
                written.push_back(r);
            reg_bound[r] = bound;
            return r;
        };
        // A leftover operand pushed late in row r is popped early in
        // row r+1, so a pop's bound at generation time can understate
        // the popped value. Operand-FIFO arithmetic is therefore
        // limited to ops whose result bound does not depend on the
        // popped operand (Div, DivScaled, comparisons); growing ops
        // (Add/Sub/Mul/MulScaled) always take immediates.
        auto op_can_pop = [](PeOpcode op) {
            return op == PeOpcode::Div || op == PeOpcode::DivScaled
                || op == PeOpcode::Eq || op == PeOpcode::Lt
                || op == PeOpcode::Gt;
        };

        const int len = static_cast<int>(rng.uniform(2, 8));
        for (int i = 0; i < len; ++i) {
            const int choice = static_cast<int>(rng.uniform(0, 12));
            const auto op = static_cast<PeOpcode>(choice);
            double src_bound = 0.0;
            switch (op) {
              case PeOpcode::Pass: {
                int rs = pick_source(&src_bound);
                prog.push_back({op, write_dest(src_bound), rs, false, 0});
                break;
              }
              case PeOpcode::Copy: {
                int rs = pick_source(&src_bound);
                op_reg_depth++;
                op_reg_bound = std::max(op_reg_bound, src_bound);
                prog.push_back({op, write_dest(src_bound), rs, false, 0});
                break;
              }
              case PeOpcode::Store: {
                int rs = pick_source(&src_bound);
                op_reg_depth++;
                op_reg_bound = std::max(op_reg_bound, src_bound);
                prog.push_back({op, 0, rs, false, 0});
                break;
              }
              case PeOpcode::Year: {
                int rs = pick_source(&src_bound);
                prog.push_back({op, write_dest(1e7), rs, false, 0});
                break;
              }
              default: {
                int rs = pick_source(&src_bound);
                bool use_imm = op_reg_depth == 0 || !op_can_pop(op)
                    || rng.uniform(0, 1);
                std::int64_t imm =
                    use_imm ? rng.uniform(-1000, 1000) : 0;
                double res = resultBound(op, src_bound, 1000.0);
                if (res > kMaxBound) {
                    // Comparisons always stay in bounds; demote.
                    const PeOpcode safe[] = {PeOpcode::Eq, PeOpcode::Lt,
                                             PeOpcode::Gt};
                    prog.push_back({safe[rng.uniform(0, 2)],
                                    write_dest(1.0), rs, use_imm, imm});
                } else {
                    prog.push_back({op, write_dest(res), rs, use_imm,
                                    imm});
                }
                if (!use_imm)
                    op_reg_depth--;
                break;
              }
            }
        }
        // Leftover operands make the kernel fall back (still compared
        // bit-for-bit); drain them half the time to also exercise the
        // vectorized path.
        while (op_reg_depth > 0 && rng.uniform(0, 1)) {
            double src_bound = 0.0;
            int rs = pick_source(&src_bound);
            double res = src_bound + op_reg_bound;
            prog.push_back({PeOpcode::Add, 0, rs, false, 0});
            out.push_back(res);
            op_reg_depth--;
        }
        // Guarantee the next PE (and the test) sees at least one value.
        if (out.empty()) {
            double src_bound = 0.0;
            int rs = pick_source(&src_bound);
            prog.push_back({PeOpcode::Pass, 0, rs, false, 0});
            out.push_back(src_bound);
        }
        fifo = std::move(out);
        return prog;
    }

    /** Upper bound of |op(a, b)| given operand bounds (doubles: the
     * bound only has to be conservative, not exact). */
    static double
    resultBound(PeOpcode op, double a, double b)
    {
        switch (op) {
          case PeOpcode::Add:
          case PeOpcode::Sub: return a + b;
          case PeOpcode::Mul: return a * b;
          case PeOpcode::Div: return a; // |a/b| <= |a|; 0 and MIN/-1 safe
          case PeOpcode::MulScaled: return a * b; // intermediate a*b
          case PeOpcode::DivScaled: return a * 100.0;
          default: return 1.0; // comparisons
        }
    }

    Rng rng;
};

class PeBatchProperty : public ::testing::TestWithParam<int>
{
};

TEST_P(PeBatchProperty, RandomProgramsMatchScalarOracle)
{
    Rng rng(GetParam() * 6271 + 17);
    RandomProgramGen gen(GetParam() * 104729 + 5);

    const int num_pes = static_cast<int>(rng.uniform(1, 3));
    const int num_inputs = static_cast<int>(rng.uniform(1, 4));
    int num_outputs = 0;
    auto programs = gen.generate(num_pes, num_inputs, &num_outputs);

    const std::int64_t rows = rng.uniform(1, 300);
    std::vector<std::vector<std::int64_t>> inputs(num_inputs);
    for (auto &col : inputs) {
        col.resize(rows);
        for (auto &v : col) {
            v = rng.uniform(-RandomProgramGen::kInputBound,
                            RandomProgramGen::kInputBound);
        }
    }
    checkBatchAgainstScalar(programs, inputs, num_outputs);
}

INSTANTIATE_TEST_SUITE_P(Sweep, PeBatchProperty,
                         ::testing::Range(0, 64));

// ---------------------------------------------------------------------
// Targeted edge cases
// ---------------------------------------------------------------------

TEST(PeBatchTest, DivEdgeCasesMatchScalar)
{
    // out <= in0 / in1 via the operand FIFO (register form of Div).
    std::vector<std::vector<PeInstruction>> programs =
        {{{PeOpcode::Pass, 1, 0, false, 0},
          {PeOpcode::Store, 0, 0, false, 0},
          {PeOpcode::Div, 0, 1, false, 0}}};
    std::vector<std::vector<std::int64_t>> inputs = {
        {100, 7, kInt64Min, kInt64Min, 42, 0, -100, kInt64Min},
        {7, 0, -1, 1, -6, 0, kInt64Min, 2}};
    checkBatchAgainstScalar(programs, inputs, 1);
}

TEST(PeBatchTest, DivByZeroImmediateIsZero)
{
    std::vector<std::vector<PeInstruction>> programs =
        {{{PeOpcode::Div, 0, 0, true, 0}}};
    std::vector<std::vector<std::int64_t>> inputs =
        {{5, -5, 0, kInt64Min}};
    checkBatchAgainstScalar(programs, inputs, 1);
}

TEST(PeBatchTest, DivScaledEdgeCasesMatchScalar)
{
    // DivScaled's zero-divisor guard lives in decimalDiv; both the
    // immediate-zero and operand-zero forms must agree with it.
    std::vector<std::vector<PeInstruction>> programs =
        {{{PeOpcode::Pass, 1, 0, false, 0},
          {PeOpcode::Store, 0, 0, false, 0},
          {PeOpcode::DivScaled, 0, 1, false, 0},
          {PeOpcode::DivScaled, 0, 1, true, 0}}};
    std::vector<std::vector<std::int64_t>> inputs = {
        {10000, -10000, 0, 123456, 1},
        {0, 700, 0, -95, 3}};
    checkBatchAgainstScalar(programs, inputs, 2);
    EXPECT_EQ(decimalDiv(10000, 0), 0);
}

TEST(PeBatchTest, MulScaledMatchesDecimalHelper)
{
    std::vector<std::vector<PeInstruction>> programs =
        {{{PeOpcode::Pass, 1, 0, false, 0},
          {PeOpcode::MulScaled, 0, 1, true, 95},
          {PeOpcode::MulScaled, 0, 1, true, -105}}};
    std::vector<std::vector<std::int64_t>> inputs =
        {{10000, -10000, 0, 99, -1}};
    checkBatchAgainstScalar(programs, inputs, 2);
}

TEST(PeBatchTest, YearBoundaryDatesMatchScalar)
{
    std::vector<std::vector<PeInstruction>> programs =
        {{{PeOpcode::Year, 0, 0, false, 0}}};
    std::vector<std::vector<std::int64_t>> inputs = {{
        0,                            // 1970-01-01
        -1,                           // 1969-12-31
        365,                          // 1971-01-01
        daysFromCivil(2000, 2, 29),   // leap day
        daysFromCivil(1999, 12, 31),
        daysFromCivil(2000, 1, 1),
        daysFromCivil(1600, 3, 1),
        -719468,                      // 0000-03-01 (era boundary)
        -719469,                      // day before the era boundary
        daysFromCivil(1992, 1, 1),
        daysFromCivil(1998, 12, 31),
    }};
    checkBatchAgainstScalar(programs, inputs, 1);
}

TEST(PeBatchTest, AllImmediateComparisonForms)
{
    std::vector<std::vector<PeInstruction>> programs =
        {{{PeOpcode::Pass, 1, 0, false, 0},
          {PeOpcode::Eq, 0, 1, true, 10},
          {PeOpcode::Lt, 0, 1, true, 10},
          {PeOpcode::Gt, 0, 1, true, 10}}};
    std::vector<std::vector<std::int64_t>> inputs =
        {{9, 10, 11, kInt64Min, -10}};
    checkBatchAgainstScalar(programs, inputs, 3);
}

TEST(PeBatchTest, TwoPeChainVectorizes)
{
    // PE0: t = in + 1; PE1: out = t * 2 — the pe_test chain, batched.
    std::vector<std::vector<PeInstruction>> programs =
        {{{PeOpcode::Pass, 1, 0, false, 0},
          {PeOpcode::Add, 2, 1, true, 1},
          {PeOpcode::Pass, 0, 2, false, 0}},
         {{PeOpcode::Pass, 1, 0, false, 0},
          {PeOpcode::Mul, 0, 1, true, 2}}};
    PeBatchKernel kernel(programs, 1);
    EXPECT_TRUE(kernel.vectorizable());
    std::vector<std::vector<std::int64_t>> inputs = {{20, -1, 0, 1000}};
    checkBatchAgainstScalar(programs, inputs, 1);
}

TEST(PeBatchTest, UnwrittenRegisterReadsAsZeroAndVectorizes)
{
    // rf[5] is never written: it reads as power-on zero on every row,
    // which is row-invariant and must not defeat vectorization.
    std::vector<std::vector<PeInstruction>> programs =
        {{{PeOpcode::Pass, 1, 0, false, 0},
          {PeOpcode::Store, 0, 5, false, 0},
          {PeOpcode::Add, 0, 1, false, 0}}};
    PeBatchKernel kernel(programs, 1);
    EXPECT_TRUE(kernel.vectorizable());
    std::vector<std::vector<std::int64_t>> inputs = {{7, -3, 0}};
    checkBatchAgainstScalar(programs, inputs, 1);
}

TEST(PeBatchTest, LoopCarriedRegisterFallsBackBitIdentical)
{
    // Running sum: r1 is read before its write of the row, so the value
    // comes from the previous row — not vectorizable, and the fallback
    // must reproduce the scalar accumulation exactly.
    std::vector<std::vector<PeInstruction>> programs =
        {{{PeOpcode::Store, 0, 0, false, 0},
          {PeOpcode::Add, 1, 1, false, 0},
          {PeOpcode::Pass, 0, 1, false, 0}}};
    PeBatchKernel kernel(programs, 1);
    EXPECT_FALSE(kernel.vectorizable());
    std::vector<std::vector<std::int64_t>> inputs =
        {{5, 10, -3, 100, 0, 7}};
    checkBatchAgainstScalar(programs, inputs, 1);
}

TEST(PeBatchTest, FallbackPreservesStateAcrossRunCalls)
{
    // The running-sum program again, but split across two run() calls
    // on one kernel: the fallback interpreter's register state must
    // carry over, matching one continuous scalar execution.
    std::vector<std::vector<PeInstruction>> programs =
        {{{PeOpcode::Store, 0, 0, false, 0},
          {PeOpcode::Add, 1, 1, false, 0},
          {PeOpcode::Pass, 0, 1, false, 0}}};
    PeBatchKernel kernel(programs, 1);
    ASSERT_FALSE(kernel.vectorizable());

    const std::vector<std::int64_t> all = {3, 1, 4, 1, 5, 9, 2, 6};
    std::vector<std::int64_t> got(all.size(), 0);
    const std::int64_t *in0 = all.data();
    std::int64_t *out0 = got.data();
    kernel.run(&in0, 3, &out0, 1);
    const std::int64_t *in1 = all.data() + 3;
    std::int64_t *out1 = got.data() + 3;
    kernel.run(&in1, static_cast<std::int64_t>(all.size()) - 3, &out1, 1);

    SystolicArray oracle(programs);
    std::vector<std::int64_t> row_out;
    for (std::size_t r = 0; r < all.size(); ++r) {
        oracle.runRow({all[r]}, row_out);
        ASSERT_EQ(got[r], row_out[0]) << "row " << r;
    }
}

TEST(PeBatchTest, LeftoverOperandFallsBackBitIdentical)
{
    // Copy pushes an operand that is never popped this row; the next
    // row pops it, so the program is inherently cross-row.
    std::vector<std::vector<PeInstruction>> programs =
        {{{PeOpcode::Copy, 1, 0, false, 0},
          {PeOpcode::Pass, 0, 1, false, 0}}};
    PeBatchKernel kernel(programs, 1);
    EXPECT_FALSE(kernel.vectorizable());
    std::vector<std::vector<std::int64_t>> inputs = {{1, 2, 3, 4}};
    checkBatchAgainstScalar(programs, inputs, 1);
}

TEST(PeBatchTest, InputUnderflowPanicsLikeScalar)
{
    // Two pops from a one-column input: the scalar interpreter panics,
    // and the kernel must fall back and panic identically.
    std::vector<std::vector<PeInstruction>> programs =
        {{{PeOpcode::Pass, 0, 0, false, 0},
          {PeOpcode::Pass, 0, 0, false, 0}}};
    PeBatchKernel kernel(programs, 1);
    EXPECT_FALSE(kernel.vectorizable());

    std::vector<std::int64_t> col = {1, 2};
    const std::int64_t *in = col.data();
    std::vector<std::int64_t> sink(col.size(), 0);
    std::int64_t *out = sink.data();
    EXPECT_THROW(kernel.run(&in, 2, &out, 1), PanicError);

    SystolicArray oracle(programs);
    std::vector<std::int64_t> row_out;
    EXPECT_THROW(oracle.runRow({1}, row_out), PanicError);
}

TEST(PeBatchTest, EmptyBatchIsANoop)
{
    std::vector<std::vector<PeInstruction>> programs =
        {{{PeOpcode::Pass, 0, 0, false, 0}}};
    PeBatchKernel kernel(programs, 1);
    ASSERT_TRUE(kernel.vectorizable());
    const std::int64_t *in = nullptr;
    std::int64_t *out = nullptr;
    kernel.run(&in, 0, &out, 1); // must not touch the null buffers
}

// ---------------------------------------------------------------------
// Specialized-kernel matrix: every (opcode × operand shape) dispatch
// target against the scalar oracle, with edge-heavy inputs.
// ---------------------------------------------------------------------

/**
 * Input column for the matrix tests. @p extremes mixes in INT64_MIN
 * (the engine's raw NULL encoding), -1, 0 and large magnitudes — only
 * legal for opcodes whose semantics are total over int64 (compares,
 * peDiv); arithmetic opcodes get bounded values so no case relies on
 * signed-overflow behaviour.
 */
std::vector<std::int64_t>
matrixColumn(std::int64_t n, std::uint64_t seed, bool extremes)
{
    Rng rng(seed);
    std::vector<std::int64_t> v(n);
    for (auto &x : v) {
        if (extremes) {
            switch (rng.uniform(0, 5)) {
              case 0: x = kInt64Min; break;
              case 1: x = -1; break;
              case 2: x = 0; break;
              case 3: x = std::numeric_limits<std::int64_t>::max(); break;
              default: x = rng.uniform(-1000000, 1000000); break;
            }
        } else {
            x = rng.uniform(-1000000, 1000000);
        }
    }
    return v;
}

TEST(PeBatchKernelMatrix, EveryOpcodeAndShapeMatchesScalar)
{
    struct Case
    {
        PeOpcode op;
        bool extremes; ///< opcode is total over int64 (incl. MIN/-1)
        std::int64_t imm;
    };
    const Case cases[] = {
        {PeOpcode::Add, false, 37},
        {PeOpcode::Sub, false, -41},
        {PeOpcode::Mul, false, 7},
        {PeOpcode::Div, true, -1}, // peDiv: /0 -> 0, MIN/-1 -> MIN
        {PeOpcode::Eq, true, 0},
        {PeOpcode::Lt, true, 12},
        {PeOpcode::Gt, true, -12},
        {PeOpcode::MulScaled, false, 95},
        {PeOpcode::DivScaled, false, 0}, // decimalDiv: /0 -> 0
    };
    constexpr std::int64_t kRows = 257; // odd: exercises vector tails
    for (const Case &c : cases) {
        SCOPED_TRACE(testing::Message()
                     << "opcode " << static_cast<int>(c.op));
        auto a = matrixColumn(kRows, 101 + static_cast<int>(c.op),
                              c.extremes);
        auto b = matrixColumn(kRows, 202 + static_cast<int>(c.op),
                              c.extremes);

        // Col-col: both operands popped from input columns.
        checkBatchAgainstScalar(
            {{{PeOpcode::Pass, 1, 0, false, 0},
              {PeOpcode::Store, 0, 0, false, 0},
              {c.op, 0, 1, false, 0}}},
            {a, b}, 1);
        // Col-const: immediate operand baked into the kernel.
        checkBatchAgainstScalar(
            {{{PeOpcode::Pass, 1, 0, false, 0},
              {c.op, 0, 1, true, c.imm}}},
            {a}, 1);
        // Const-col: rf[7] never written reads as constant zero while
        // the operand register holds the column (commuted dispatch).
        checkBatchAgainstScalar(
            {{{PeOpcode::Store, 0, 0, false, 0},
              {c.op, 0, 7, false, 0}}},
            {a}, 1);
    }
    // Year is unary over day counts.
    std::vector<std::int64_t> days(257);
    Rng rng(7);
    for (auto &d : days)
        d = rng.uniform(-100000, 100000);
    checkBatchAgainstScalar({{{PeOpcode::Year, 0, 0, false, 0}}},
                            {days}, 1);
}

TEST(PeBatchKernelMatrix, Avx2AndGenericKernelsBitIdentical)
{
    // Kernel dispatch happens at construction, so build one kernel per
    // mode and demand identical outputs. Covers every opcode with an
    // AVX2 variant (Add/Sub/Eq/Lt/Gt) in col-col and col-const shapes.
    const bool host_avx2 = avx2Available();
    std::vector<std::vector<PeInstruction>> programs =
        {{{PeOpcode::Pass, 1, 0, false, 0},
          {PeOpcode::Store, 0, 0, false, 0},
          {PeOpcode::Add, 2, 1, false, 0},
          {PeOpcode::Sub, 3, 2, true, 17},
          {PeOpcode::Eq, 0, 3, true, 4},
          {PeOpcode::Lt, 0, 3, true, 4},
          {PeOpcode::Store, 0, 2, false, 0}, // opReg <= rf[2]
          {PeOpcode::Gt, 0, 1, false, 0}}};
    constexpr std::int64_t kRows = 1027;
    auto a = matrixColumn(kRows, 31, false);
    auto b = matrixColumn(kRows, 32, false);
    const std::int64_t *ins[2] = {a.data(), b.data()};

    auto run_with = [&](bool mode) {
        setAvx2Enabled(mode);
        PeBatchKernel kernel(programs, 2);
        EXPECT_TRUE(kernel.vectorizable());
        std::vector<std::vector<std::int64_t>> out(
            3, std::vector<std::int64_t>(kRows, 0));
        std::int64_t *outs[3] = {out[0].data(), out[1].data(),
                                 out[2].data()};
        kernel.run(ins, kRows, outs, 3);
        return out;
    };
    auto generic = run_with(false);
    auto vec = run_with(host_avx2);
    setAvx2Enabled(host_avx2);
    EXPECT_EQ(generic, vec);
}

TEST(PeBatchTest, MorselOverrideClampsAndRestores)
{
    setPeBatchMorselRows(2048);
    EXPECT_EQ(peBatchMorselRows(), 2048);
    setPeBatchMorselRows(1); // below floor
    EXPECT_EQ(peBatchMorselRows(), 1024);
    setPeBatchMorselRows(std::int64_t{1} << 22); // above ceiling
    EXPECT_EQ(peBatchMorselRows(), std::int64_t{1} << 20);
    setPeBatchMorselRows(0); // back to the default
    EXPECT_EQ(peBatchMorselRows(), kPeBatchRows);
}

} // namespace
} // namespace aquoman
