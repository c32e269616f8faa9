#include "aquoman/pe_batch.hh"

#include <atomic>
#include <cstring>
#include <deque>
#include <map>
#include <set>
#include <string_view>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

#include "common/date.hh"
#include "common/decimal.hh"
#include "common/simd.hh"

namespace aquoman {

namespace {

std::atomic<std::int64_t> g_morsel_rows{kPeBatchRows};

constexpr std::int64_t kMinMorselRows = 1024;
constexpr std::int64_t kMaxMorselRows = 1 << 20;

// ---------------------------------------------------------------------
// Specialized kernels: one instantiation per (opcode × operand shape).
// The generic loops are written branch-free over the whole morsel so
// the compiler can vectorize them (`omp simd` asserts no loop-carried
// dependence); the AVX2 variants below make the five cheapest ops
// explicit for hosts that have it.
// ---------------------------------------------------------------------

struct AddOp
{
    static std::int64_t apply(std::int64_t x, std::int64_t y)
    {
        return x + y;
    }
};
struct SubOp
{
    static std::int64_t apply(std::int64_t x, std::int64_t y)
    {
        return x - y;
    }
};
struct MulOp
{
    static std::int64_t apply(std::int64_t x, std::int64_t y)
    {
        return x * y;
    }
};
struct DivOp
{
    static std::int64_t apply(std::int64_t x, std::int64_t y)
    {
        return peDiv(x, y);
    }
};
struct EqOp
{
    static std::int64_t apply(std::int64_t x, std::int64_t y)
    {
        return static_cast<std::int64_t>(x == y);
    }
};
struct LtOp
{
    static std::int64_t apply(std::int64_t x, std::int64_t y)
    {
        return static_cast<std::int64_t>(x < y);
    }
};
struct GtOp
{
    static std::int64_t apply(std::int64_t x, std::int64_t y)
    {
        return static_cast<std::int64_t>(x > y);
    }
};
struct MulScaledOp
{
    static std::int64_t apply(std::int64_t x, std::int64_t y)
    {
        return decimalMul(x, y);
    }
};
struct DivScaledOp
{
    static std::int64_t apply(std::int64_t x, std::int64_t y)
    {
        return decimalDiv(x, y);
    }
};
struct YearOp
{
    static std::int64_t apply(std::int64_t x, std::int64_t)
    {
        return civilFromDays(static_cast<std::int32_t>(x)).year;
    }
};

template <class Op>
void
kColCol(std::int64_t *dst, const std::int64_t *a, std::int64_t,
        const std::int64_t *b, std::int64_t, std::int64_t n)
{
#pragma omp simd
    for (std::int64_t i = 0; i < n; ++i)
        dst[i] = Op::apply(a[i], b[i]);
}

template <class Op>
void
kColConst(std::int64_t *dst, const std::int64_t *a, std::int64_t,
          const std::int64_t *, std::int64_t bc, std::int64_t n)
{
#pragma omp simd
    for (std::int64_t i = 0; i < n; ++i)
        dst[i] = Op::apply(a[i], bc);
}

template <class Op>
void
kConstCol(std::int64_t *dst, const std::int64_t *, std::int64_t ac,
          const std::int64_t *b, std::int64_t, std::int64_t n)
{
#pragma omp simd
    for (std::int64_t i = 0; i < n; ++i)
        dst[i] = Op::apply(ac, b[i]);
}

template <class Op>
void
kConstConst(std::int64_t *dst, const std::int64_t *, std::int64_t ac,
            const std::int64_t *, std::int64_t bc, std::int64_t n)
{
    const std::int64_t v = Op::apply(ac, bc);
    for (std::int64_t i = 0; i < n; ++i)
        dst[i] = v;
}

#if defined(__x86_64__) && defined(__GNUC__)

// AVX2 variants for the ops with a native 64-bit vector form: add/sub
// and the signed compares (AVX2 has no 64-bit multiply low, so Mul and
// the scaled decimal ops stay on the autovectorized generic loops).
// Compares produce all-ones lanes; a logical right shift by 63 turns
// them into the 0/1 the PE contract requires. Remainder rows run the
// scalar expression — bit-identical by construction.

#define AQ_AVX2_KERNEL_PAIR(NAME, VECEXPR, SCALEXPR)                         \
    __attribute__((target("avx2"))) void NAME##ColColAvx2(                   \
        std::int64_t *dst, const std::int64_t *a, std::int64_t,              \
        const std::int64_t *b, std::int64_t, std::int64_t n)                 \
    {                                                                        \
        std::int64_t i = 0;                                                  \
        for (; i + 4 <= n; i += 4) {                                         \
            __m256i va = _mm256_loadu_si256(                                 \
                reinterpret_cast<const __m256i *>(a + i));                   \
            __m256i vb = _mm256_loadu_si256(                                 \
                reinterpret_cast<const __m256i *>(b + i));                   \
            _mm256_storeu_si256(reinterpret_cast<__m256i *>(dst + i),        \
                                (VECEXPR));                                  \
        }                                                                    \
        for (; i < n; ++i) {                                                 \
            std::int64_t x = a[i], y = b[i];                                 \
            dst[i] = (SCALEXPR);                                             \
        }                                                                    \
    }                                                                        \
    __attribute__((target("avx2"))) void NAME##ColConstAvx2(                 \
        std::int64_t *dst, const std::int64_t *a, std::int64_t,              \
        const std::int64_t *, std::int64_t bc, std::int64_t n)               \
    {                                                                        \
        const __m256i vb = _mm256_set1_epi64x(bc);                           \
        std::int64_t i = 0;                                                  \
        for (; i + 4 <= n; i += 4) {                                         \
            __m256i va = _mm256_loadu_si256(                                 \
                reinterpret_cast<const __m256i *>(a + i));                   \
            _mm256_storeu_si256(reinterpret_cast<__m256i *>(dst + i),        \
                                (VECEXPR));                                  \
        }                                                                    \
        for (; i < n; ++i) {                                                 \
            std::int64_t x = a[i], y = bc;                                   \
            dst[i] = (SCALEXPR);                                             \
        }                                                                    \
    }

AQ_AVX2_KERNEL_PAIR(kAdd, _mm256_add_epi64(va, vb), x + y)
AQ_AVX2_KERNEL_PAIR(kSub, _mm256_sub_epi64(va, vb), x - y)
AQ_AVX2_KERNEL_PAIR(kEq,
                    _mm256_srli_epi64(_mm256_cmpeq_epi64(va, vb), 63),
                    static_cast<std::int64_t>(x == y))
AQ_AVX2_KERNEL_PAIR(kLt,
                    _mm256_srli_epi64(_mm256_cmpgt_epi64(vb, va), 63),
                    static_cast<std::int64_t>(x < y))
AQ_AVX2_KERNEL_PAIR(kGt,
                    _mm256_srli_epi64(_mm256_cmpgt_epi64(va, vb), 63),
                    static_cast<std::int64_t>(x > y))

#undef AQ_AVX2_KERNEL_PAIR

/** AVX2 variant for (op × shape), or nullptr when none exists. */
PeBatchKernel::KernelFn
selectAvx2Kernel(PeOpcode op, bool a_col, bool b_col)
{
    if (a_col && b_col) {
        switch (op) {
          case PeOpcode::Add: return &kAddColColAvx2;
          case PeOpcode::Sub: return &kSubColColAvx2;
          case PeOpcode::Eq: return &kEqColColAvx2;
          case PeOpcode::Lt: return &kLtColColAvx2;
          case PeOpcode::Gt: return &kGtColColAvx2;
          default: return nullptr;
        }
    }
    if (a_col && !b_col) {
        switch (op) {
          case PeOpcode::Add: return &kAddColConstAvx2;
          case PeOpcode::Sub: return &kSubColConstAvx2;
          case PeOpcode::Eq: return &kEqColConstAvx2;
          case PeOpcode::Lt: return &kLtColConstAvx2;
          case PeOpcode::Gt: return &kGtColConstAvx2;
          default: return nullptr;
        }
    }
    return nullptr;
}

#else

PeBatchKernel::KernelFn
selectAvx2Kernel(PeOpcode, bool, bool)
{
    return nullptr;
}

#endif // __x86_64__ && __GNUC__

template <class Op>
PeBatchKernel::KernelFn
selectShape(bool a_col, bool b_col)
{
    if (a_col && b_col)
        return &kColCol<Op>;
    if (a_col)
        return &kColConst<Op>;
    if (b_col)
        return &kConstCol<Op>;
    return &kConstConst<Op>;
}

/**
 * Pick the kernel for (opcode × operand shape), preferring the AVX2
 * variant when the host supports it. Called once per DAG value at
 * kernel-compile time; run() never dispatches on the opcode again.
 */
PeBatchKernel::KernelFn
selectKernel(PeOpcode op, bool a_col, bool b_col, bool use_avx2)
{
    if (use_avx2) {
        if (PeBatchKernel::KernelFn f = selectAvx2Kernel(op, a_col, b_col))
            return f;
    }
    switch (op) {
      case PeOpcode::Add: return selectShape<AddOp>(a_col, b_col);
      case PeOpcode::Sub: return selectShape<SubOp>(a_col, b_col);
      case PeOpcode::Mul: return selectShape<MulOp>(a_col, b_col);
      case PeOpcode::Div: return selectShape<DivOp>(a_col, b_col);
      case PeOpcode::Eq: return selectShape<EqOp>(a_col, b_col);
      case PeOpcode::Lt: return selectShape<LtOp>(a_col, b_col);
      case PeOpcode::Gt: return selectShape<GtOp>(a_col, b_col);
      case PeOpcode::MulScaled:
        return selectShape<MulScaledOp>(a_col, b_col);
      case PeOpcode::DivScaled:
        return selectShape<DivScaledOp>(a_col, b_col);
      case PeOpcode::Year: return selectShape<YearOp>(a_col, b_col);
      default:
        panic("non-arithmetic opcode in batch kernel DAG");
    }
}

/** Can (a op b) be rewritten (b op' a)? Sets @p swapped_op if so. */
bool
commuteOp(PeOpcode op, PeOpcode &swapped_op)
{
    switch (op) {
      case PeOpcode::Add:
      case PeOpcode::Eq:
        swapped_op = op;
        return true;
      case PeOpcode::Lt:
        swapped_op = PeOpcode::Gt;
        return true;
      case PeOpcode::Gt:
        swapped_op = PeOpcode::Lt;
        return true;
      default:
        return false;
    }
}

} // namespace

std::int64_t
peBatchMorselRows()
{
    return g_morsel_rows.load(std::memory_order_relaxed);
}

void
setPeBatchMorselRows(std::int64_t rows)
{
    g_morsel_rows.store(
        rows <= 0 ? kPeBatchRows
                  : std::min(kMaxMorselRows,
                             std::max(kMinMorselRows, rows)),
        std::memory_order_relaxed);
}

PeBatchKernel::PeBatchKernel(
    const std::vector<std::vector<PeInstruction>> &programs,
    int num_inputs)
    : numInputs_(num_inputs), fallback_(programs)
{
    vectorizable_ = compile(programs);
    if (!vectorizable_) {
        vals_.clear();
        outputs_.clear();
        numBuffers_ = 0;
    } else {
        buildSteps();
    }
}

/**
 * Symbolically execute one row of the whole array. Every FIFO slot and
 * register becomes a value id; values that would come from a previous
 * row (loop-carried register reads, leftover operand-FIFO entries)
 * defeat vectorization. Registers the program never writes read as the
 * power-on zero, which IS row-invariant and stays vectorizable.
 */
bool
PeBatchKernel::compile(
    const std::vector<std::vector<PeInstruction>> &programs)
{
    vals_.clear();
    int zero_id = -1;
    auto add_val = [&](Val v) {
        vals_.push_back(v);
        return static_cast<int>(vals_.size()) - 1;
    };
    auto zero = [&]() {
        if (zero_id < 0) {
            Val z;
            z.kind = Val::Kind::Zero;
            zero_id = add_val(z);
        }
        return zero_id;
    };

    std::vector<int> fifo;
    for (int i = 0; i < numInputs_; ++i) {
        Val v;
        v.kind = Val::Kind::Input;
        v.input = i;
        fifo.push_back(add_val(v));
    }

    for (const auto &prog : programs) {
        std::set<int> written;
        for (const auto &ins : prog) {
            if (ins.rd != 0 && ins.op != PeOpcode::Store)
                written.insert(ins.rd);
        }
        std::map<int, int> regs; // reg -> value id written THIS row
        std::deque<int> op_reg;
        std::vector<int> out;
        std::size_t in_pos = 0;
        bool carried = false;

        auto read_rs = [&](int rs) -> int {
            if (rs == 0) {
                if (in_pos >= fifo.size()) {
                    // Scalar panics on input-FIFO underflow; the
                    // fallback reproduces that exactly.
                    carried = true;
                    return -1;
                }
                return fifo[in_pos++];
            }
            auto it = regs.find(rs);
            if (it != regs.end())
                return it->second;
            if (written.count(rs)) {
                carried = true; // value from the previous row
                return -1;
            }
            return zero(); // never written: power-on zero every row
        };
        auto write_rd = [&](int rd, int v) {
            if (rd == 0)
                out.push_back(v);
            else
                regs[rd] = v;
        };

        for (const PeInstruction &ins : prog) {
            if (carried)
                break;
            switch (ins.op) {
              case PeOpcode::Pass:
                write_rd(ins.rd, read_rs(ins.rs));
                break;
              case PeOpcode::Copy: {
                int v = read_rs(ins.rs);
                write_rd(ins.rd, v);
                op_reg.push_back(v);
                break;
              }
              case PeOpcode::Store:
                op_reg.push_back(read_rs(ins.rs));
                break;
              default: {
                int a = read_rs(ins.rs);
                int b = -1;
                Val v;
                v.kind = Val::Kind::Op;
                v.op = ins.op;
                if (ins.useImm) {
                    v.useImm = true;
                    v.imm = ins.imm;
                } else if (ins.op == PeOpcode::Year) {
                    // Unary: never pops the operand FIFO.
                } else {
                    if (op_reg.empty()) {
                        carried = true; // operand from a previous row
                        break;
                    }
                    b = op_reg.front();
                    op_reg.pop_front();
                }
                v.a = a;
                v.b = b;
                write_rd(ins.rd, add_val(v));
                break;
              }
            }
        }
        // Leftover operands would feed the NEXT row's pops.
        if (carried || !op_reg.empty())
            return false;
        fifo = std::move(out); // unconsumed inputs are dropped
    }

    outputs_ = std::move(fifo);
    numBuffers_ = 0;
    for (auto &v : vals_) {
        if (v.kind == Val::Kind::Op)
            v.buf = numBuffers_++;
    }
    return true;
}

/**
 * Lower every Kind::Op value to a Step: resolve each operand to an
 * input column, a scratch buffer, or a constant; normalize const-col
 * shapes of commutable ops to col-const (halving the AVX2 kernel
 * matrix); and select the (opcode × shape) kernel instantiation once.
 */
void
PeBatchKernel::buildSteps()
{
    const bool use_avx2 = avx2Available();
    steps_.clear();
    steps_.reserve(vals_.size());
    auto src_of = [&](int id) {
        Src s;
        if (id < 0)
            return s; // constant 0 (unary ops' unused operand)
        const Val &v = vals_[id];
        switch (v.kind) {
          case Val::Kind::Input:
            s.input = v.input;
            break;
          case Val::Kind::Zero:
            break;
          case Val::Kind::Op:
            s.buf = v.buf;
            break;
        }
        return s;
    };
    for (const Val &v : vals_) {
        if (v.kind != Val::Kind::Op)
            continue;
        Step st;
        st.dstBuf = v.buf;
        st.a = src_of(v.a);
        if (v.useImm)
            st.b.c = v.imm;
        else
            st.b = src_of(v.b);
        bool a_col = st.a.input >= 0 || st.a.buf >= 0;
        bool b_col = st.b.input >= 0 || st.b.buf >= 0;
        PeOpcode op = v.op;
        PeOpcode swapped;
        if (!a_col && b_col && commuteOp(op, swapped)) {
            std::swap(st.a, st.b);
            std::swap(a_col, b_col);
            op = swapped;
        }
        st.fn = selectKernel(op, a_col, b_col, use_avx2);
        steps_.push_back(st);
    }
}

void
PeBatchKernel::run(const std::int64_t *const *inputs, std::int64_t n,
                   std::int64_t *const *outputs, int num_outputs)
{
    if (n <= 0)
        return;
    if (!vectorizable_) {
        runScalar(inputs, n, outputs, num_outputs);
        return;
    }
    AQ_ASSERT(num_outputs <= numOutputs(),
              "batch kernel produces ", numOutputs(),
              " outputs per row, caller wants ", num_outputs);
    scratch_.resize(numBuffers_);
    for (auto &buf : scratch_) {
        if (static_cast<std::int64_t>(buf.size()) < n)
            buf.resize(n);
    }
    auto ptr_of = [&](const Src &s) -> const std::int64_t * {
        if (s.input >= 0)
            return inputs[s.input];
        if (s.buf >= 0)
            return scratch_[s.buf].data();
        return nullptr;
    };
    // Steps are in definition order, so operands are always ready.
    for (const Step &st : steps_) {
        st.fn(scratch_[st.dstBuf].data(), ptr_of(st.a), st.a.c,
              ptr_of(st.b), st.b.c, n);
    }
    for (int o = 0; o < num_outputs; ++o) {
        const Val &v = vals_[outputs_[o]];
        switch (v.kind) {
          case Val::Kind::Input:
            std::memcpy(outputs[o], inputs[v.input],
                        static_cast<std::size_t>(n) * sizeof(std::int64_t));
            break;
          case Val::Kind::Zero:
            std::memset(outputs[o], 0,
                        static_cast<std::size_t>(n) * sizeof(std::int64_t));
            break;
          case Val::Kind::Op:
            std::memcpy(outputs[o], scratch_[v.buf].data(),
                        static_cast<std::size_t>(n) * sizeof(std::int64_t));
            break;
        }
    }
}

void
PeBatchKernel::runScalar(const std::int64_t *const *inputs,
                         std::int64_t n, std::int64_t *const *outputs,
                         int num_outputs)
{
    rowIn_.resize(numInputs_);
    for (std::int64_t r = 0; r < n; ++r) {
        for (int i = 0; i < numInputs_; ++i)
            rowIn_[i] = inputs[i][r];
        fallback_.runRow(rowIn_, rowOut_);
        for (int o = 0; o < num_outputs; ++o)
            outputs[o][r] = rowOut_[o];
    }
}

} // namespace aquoman
