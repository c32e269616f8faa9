/**
 * @file
 * Differential tests for filterSelection, the Row Selector both the
 * host engine and the device filter through. Its selection must be
 * exactly the ascending pass set of the evalPredicate reference over
 * the input selection's rows, for the compiled (AQUOMAN_BATCH=1) and
 * interpreted (AQUOMAN_BATCH=0) conjunct chains at one and at four
 * threads, on a relation of several morsels with a ragged tail.
 */

#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "common/batch_mode.hh"
#include "common/thread_pool.hh"
#include "relalg/eval.hh"
#include "relalg/plan.hh"

namespace aquoman {
namespace {

/** Four full morsels plus a ragged tail. */
constexpr std::int64_t kRows = 4 * kMorselRows + 1234;

/**
 * Random typed relation, ~20% NULLs in the value columns. Column "m"
 * holds each row's dense morsel index, so predicates over it can fail
 * or pass a whole morsel.
 */
RelTable
makeTable()
{
    std::mt19937_64 rng(11);
    std::uniform_int_distribution<int> pct(0, 99);
    auto fill = [&](const char *name, ColumnType type, std::int64_t lo,
                    std::int64_t hi) {
        std::uniform_int_distribution<std::int64_t> val(lo, hi);
        RelColumn c(name, type);
        for (std::int64_t i = 0; i < kRows; ++i)
            c.push(pct(rng) < 20 ? kNullValue : val(rng));
        return c;
    };
    RelTable t;
    t.addColumn(fill("a", ColumnType::Int64, -1000, 1000));
    t.addColumn(fill("b", ColumnType::Int64, -5, 5));
    t.addColumn(fill("d", ColumnType::Decimal, -100000, 100000));
    RelColumn m("m", ColumnType::Int64);
    for (std::int64_t i = 0; i < kRows; ++i)
        m.push(i / kMorselRows);
    t.addColumn(std::move(m));
    RelColumn s("s", ColumnType::Varchar);
    auto heap = std::make_shared<StringHeap>();
    const char *words[] = {"even", "odd", "seven", "eleven", "none"};
    for (std::int64_t i = 0; i < kRows; ++i)
        s.push(heap->intern(words[rng() % 5]));
    s.heap = heap;
    t.addColumn(std::move(s));
    return t;
}

/** Cheap, computed-kernel and interpreted conjuncts, alone and mixed. */
std::vector<ExprPtr>
predicates()
{
    ExprPtr cheap = andE(lt(col("a"), lit(300)), ge(col("a"), lit(-300)));
    ExprPtr computed =
        andE(gt(add(col("a"), col("b")), lit(10)),
             ge(mul(col("d"), litDec("0.05")), litDec("1.00")));
    ExprPtr interpreted =
        andE(andE(like(col("s"), "%ve%"), inList(col("b"), {1, 2, 3})),
             andE(orE(lt(col("a"), lit(0)), eq(col("s"), litStr("odd"))),
                  notE(inStrList(col("s"), {"seven", "zz"}))));
    return {
        cheap,
        computed,
        interpreted,
        andE(andE(interpreted, cheap), computed),
        // A constant conjunct beside column conjuncts.
        andE(eq(lit(1), lit(1)), lt(col("a"), lit(0))),
        andE(lt(col("a"), lit(0)), eq(lit(1), lit(0))),
        // Every row of morsel 1 fails and every row of morsel 2 passes,
        // the failure landing in the cheap fold, an interpreted
        // conjunct and a computed kernel respectively.
        andE(ne(col("m"), lit(1)),
             orE(eq(col("m"), lit(2)), lt(col("a"), lit(0)))),
        andE(inList(col("m"), {0, 2, 3, 4}),
             orE(eq(col("m"), lit(2)), like(col("s"), "%ve%"))),
        andE(ne(add(col("m"), lit(0)), lit(1)),
             orE(eq(col("m"), lit(2)), gt(add(col("a"), col("b")), lit(0)))),
        // Whole relation passes; whole relation fails.
        ge(col("m"), lit(0)),
        lt(col("m"), lit(0)),
    };
}

/** Input selections: dense, and two sparse densities. */
std::vector<SelectionVector>
selections()
{
    std::vector<std::int64_t> most, few;
    std::mt19937_64 rng(3);
    for (std::int64_t r = 0; r < kRows; ++r) {
        std::uint64_t x = rng() % 100;
        if (x < 80)
            most.push_back(r);
        if (x < 2)
            few.push_back(r);
    }
    return {SelectionVector::dense(kRows),
            SelectionVector::sparse(std::move(most)),
            SelectionVector::sparse(std::move(few))};
}

/** The rows of @p sel that the evalPredicate reference passes. */
std::vector<std::int64_t>
referencePassSet(const ExprPtr &pred, const RelTable &t,
                 const SelectionVector &sel)
{
    BitVector verdicts = evalPredicate(pred, t);
    std::vector<std::int64_t> out;
    for (std::int64_t p = 0; p < sel.size(); ++p) {
        if (verdicts.get(sel[p]))
            out.push_back(sel[p]);
    }
    return out;
}

/** Every (batch mode × thread count) configuration. */
class FilterSelection
    : public ::testing::TestWithParam<std::tuple<bool, int>>
{
  protected:
    void
    SetUp() override
    {
        setBatchExecutionEnabled(std::get<0>(GetParam()));
        ThreadPool::setGlobalParallelism(std::get<1>(GetParam()));
    }

    void
    TearDown() override
    {
        ThreadPool::setGlobalParallelism(
            ThreadPool::configuredParallelism());
        setBatchExecutionEnabled(env::batch());
    }
};

TEST_P(FilterSelection, MatchesReferencePassSet)
{
    RelTable t = makeTable();
    std::vector<ExprPtr> preds = predicates();
    for (std::size_t i = 0; i < preds.size(); ++i) {
        for (const SelectionVector &in : selections()) {
            SCOPED_TRACE(testing::Message()
                         << "predicate #" << i << ", input "
                         << (in.isDense() ? "dense" : "sparse")
                         << " of " << in.size());
            std::vector<std::int64_t> want =
                referencePassSet(preds[i], t, in);
            SelectionVector sel = in;
            filterSelection(preds[i], t, sel);
            ASSERT_EQ(sel.toIndices(), want);
        }
    }
}

TEST_P(FilterSelection, WholeMorselsFailAndPass)
{
    RelTable t = makeTable();
    std::vector<ExprPtr> preds = predicates();
    for (std::size_t i = 6; i <= 8; ++i) {
        SCOPED_TRACE(testing::Message() << "predicate #" << i);
        SelectionVector sel = SelectionVector::dense(kRows);
        filterSelection(preds[i], t, sel);
        std::int64_t in_m1 = 0, in_m2 = 0;
        for (std::int64_t p = 0; p < sel.size(); ++p) {
            in_m1 += sel[p] / kMorselRows == 1;
            in_m2 += sel[p] / kMorselRows == 2;
        }
        EXPECT_EQ(in_m1, 0);
        EXPECT_EQ(in_m2, kMorselRows);
    }
    SelectionVector all = SelectionVector::dense(kRows);
    filterSelection(ge(col("m"), lit(0)), t, all);
    EXPECT_TRUE(all.isDense());
    EXPECT_EQ(all.size(), kRows);
    SelectionVector none = SelectionVector::dense(kRows);
    filterSelection(lt(col("m"), lit(0)), t, none);
    EXPECT_TRUE(none.empty());
}

TEST_P(FilterSelection, ConstantConjunctsOverZeroColumnRelation)
{
    // The device and the join residuals hand over a relation with no
    // columns when the predicate references none; the row count then
    // comes from the selection alone. The reference runs over a
    // one-column relation of the same length.
    RelTable none;
    RelTable ref;
    RelColumn dummy("x", ColumnType::Int64);
    dummy.vals->assign(kRows, 0);
    ref.addColumn(std::move(dummy));
    std::vector<ExprPtr> preds = {
        eq(lit(1), lit(1)),
        eq(lit(1), lit(0)),
        lt(litDec("1.50"), lit(2)),
        eq(lit(kNullValue), lit(kNullValue)),
        orE(eq(lit(1), lit(0)), eq(lit(2), lit(2))),
        andE(eq(lit(1), lit(1)), inList(lit(3), {1, 2})),
        andE(eq(litStr("a"), litStr("a")), ne(lit(4), lit(5))),
    };
    for (std::size_t i = 0; i < preds.size(); ++i) {
        for (const SelectionVector &in : selections()) {
            SCOPED_TRACE(testing::Message()
                         << "predicate #" << i << ", input of "
                         << in.size());
            SelectionVector sel = in;
            filterSelection(preds[i], none, sel);
            ASSERT_EQ(sel.toIndices(), referencePassSet(preds[i], ref, in));
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    BatchByThreads, FilterSelection,
    ::testing::Combine(::testing::Bool(), ::testing::Values(1, 4)),
    [](const ::testing::TestParamInfo<std::tuple<bool, int>> &info) {
        return std::string(std::get<0>(info.param) ? "Batch" : "Scalar")
            + "Threads" + std::to_string(std::get<1>(info.param));
    });

} // namespace
} // namespace aquoman
