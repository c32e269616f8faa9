/** @file
 * The determinism contract of the morsel-parallel execution core:
 * generated TPC-H tables are byte-identical, and query results plus
 * their EngineMetrics traces are bit-identical, whether the global
 * pool runs serially (AQUOMAN_THREADS=1 equivalent) or with several
 * workers. Only wall-clock is allowed to change with thread count.
 */

#include <gtest/gtest.h>

#include <vector>

#include "common/batch_mode.hh"
#include "common/env_options.hh"
#include "common/thread_pool.hh"
#include "engine/executor.hh"
#include "tpch/dbgen.hh"
#include "tpch/queries.hh"

namespace aquoman::tpch {
namespace {

constexpr double kSf = 0.01;
const std::vector<int> kQueries{1, 3, 6, 13, 21};

void
expectTablesIdentical(const Table &a, const Table &b)
{
    ASSERT_EQ(a.numColumns(), b.numColumns()) << a.name();
    ASSERT_EQ(a.numRows(), b.numRows()) << a.name();
    for (int c = 0; c < a.numColumns(); ++c) {
        const Column &ca = a.col(c);
        const Column &cb = b.col(c);
        ASSERT_EQ(ca.name(), cb.name()) << a.name();
        ASSERT_EQ(ca.type(), cb.type()) << a.name() << "." << ca.name();
        ASSERT_EQ(ca.sorted(), cb.sorted())
            << a.name() << "." << ca.name();
        if (ca.type() == ColumnType::Varchar) {
            for (std::int64_t i = 0; i < ca.size(); ++i) {
                ASSERT_EQ(a.getString(ca, i), b.getString(cb, i))
                    << a.name() << "." << ca.name() << " row " << i;
            }
        } else {
            // Bit-exact raw values, asserted in bulk.
            ASSERT_EQ(ca.data(), cb.data())
                << a.name() << "." << ca.name();
        }
    }
}

void
expectRelTablesIdentical(const RelTable &a, const RelTable &b, int q)
{
    ASSERT_EQ(a.numColumns(), b.numColumns()) << "q" << q;
    ASSERT_EQ(a.numRows(), b.numRows()) << "q" << q;
    for (int c = 0; c < a.numColumns(); ++c) {
        const RelColumn &ca = a.col(c);
        const RelColumn &cb = b.col(c);
        ASSERT_EQ(ca.name, cb.name) << "q" << q;
        ASSERT_EQ(ca.type, cb.type) << "q" << q << " " << ca.name;
        if (ca.type == ColumnType::Varchar) {
            for (std::int64_t i = 0; i < ca.size(); ++i) {
                ASSERT_EQ(ca.str(i), cb.str(i))
                    << "q" << q << " " << ca.name << " row " << i;
            }
        } else {
            ASSERT_EQ(*ca.vals, *cb.vals) << "q" << q << " " << ca.name;
        }
    }
}

/** Exact (not approximate) equality: same FP accumulation order. */
void
expectMetricsIdentical(const EngineMetrics &a, const EngineMetrics &b,
                       int q)
{
    EXPECT_EQ(a.rowOps, b.rowOps) << "q" << q;
    EXPECT_EQ(a.seqRowOps, b.seqRowOps) << "q" << q;
    EXPECT_EQ(a.flashBytesRead, b.flashBytesRead) << "q" << q;
    EXPECT_EQ(a.touchedBaseBytes, b.touchedBaseBytes) << "q" << q;
    EXPECT_EQ(a.peakIntermediateBytes, b.peakIntermediateBytes)
        << "q" << q;
    EXPECT_EQ(a.totalIntermediateBytes, b.totalIntermediateBytes)
        << "q" << q;
}

/** Generate + run the probe queries at the current pool parallelism. */
struct RunArtifacts
{
    TpchDatabase db;
    std::vector<RelTable> results;
    std::vector<EngineMetrics> metrics;
};

RunArtifacts
runEverything()
{
    RunArtifacts out;
    TpchConfig cfg;
    cfg.scaleFactor = kSf;
    out.db = TpchDatabase::generate(cfg);
    Catalog catalog;
    for (auto t : {out.db.region, out.db.nation, out.db.supplier,
                   out.db.customer, out.db.part, out.db.partsupp,
                   out.db.orders, out.db.lineitem})
        catalog.put(t, nullptr);
    for (int q : kQueries) {
        Executor ex(catalog);
        out.results.push_back(ex.run(tpchQuery(q, kSf)));
        out.metrics.push_back(ex.metrics());
    }
    return out;
}

class ParallelDeterminism : public ::testing::Test
{
  protected:
    void TearDown() override
    {
        ThreadPool::setGlobalParallelism(
            ThreadPool::configuredParallelism());
        // Restore whatever AQUOMAN_BATCH asked for, even on failure.
        setBatchExecutionEnabled(env::batch());
    }
};

TEST_F(ParallelDeterminism, SerialAndParallelRunsAreBitIdentical)
{
    ThreadPool::setGlobalParallelism(1);
    RunArtifacts serial = runEverything();

    ThreadPool::setGlobalParallelism(4);
    RunArtifacts parallel = runEverything();

    expectTablesIdentical(*serial.db.region, *parallel.db.region);
    expectTablesIdentical(*serial.db.nation, *parallel.db.nation);
    expectTablesIdentical(*serial.db.supplier, *parallel.db.supplier);
    expectTablesIdentical(*serial.db.customer, *parallel.db.customer);
    expectTablesIdentical(*serial.db.part, *parallel.db.part);
    expectTablesIdentical(*serial.db.partsupp, *parallel.db.partsupp);
    expectTablesIdentical(*serial.db.orders, *parallel.db.orders);
    expectTablesIdentical(*serial.db.lineitem, *parallel.db.lineitem);

    for (std::size_t i = 0; i < kQueries.size(); ++i) {
        expectRelTablesIdentical(serial.results[i], parallel.results[i],
                                 kQueries[i]);
        expectMetricsIdentical(serial.metrics[i], parallel.metrics[i],
                               kQueries[i]);
    }
}

/**
 * The batch engine's central contract: vectorized execution is a pure
 * wall-clock optimization. Query results AND the modelled metrics must
 * be bit-identical to the scalar-oracle interpreter, at every thread
 * count (the batch paths and morsel parallelism compose).
 */
TEST_F(ParallelDeterminism, BatchAndScalarEnginesAreBitIdentical)
{
    setBatchExecutionEnabled(false);
    ThreadPool::setGlobalParallelism(1);
    RunArtifacts scalar = runEverything();

    setBatchExecutionEnabled(true);
    ThreadPool::setGlobalParallelism(1);
    RunArtifacts batched = runEverything();
    ThreadPool::setGlobalParallelism(4);
    RunArtifacts batched_mt = runEverything();

    for (std::size_t i = 0; i < kQueries.size(); ++i) {
        expectRelTablesIdentical(scalar.results[i], batched.results[i],
                                 kQueries[i]);
        expectMetricsIdentical(scalar.metrics[i], batched.metrics[i],
                               kQueries[i]);
        expectRelTablesIdentical(scalar.results[i],
                                 batched_mt.results[i], kQueries[i]);
        expectMetricsIdentical(scalar.metrics[i], batched_mt.metrics[i],
                               kQueries[i]);
    }
}

/** Thread counts beyond the partition widths must not change output. */
TEST_F(ParallelDeterminism, OddThreadCountsAgreeOnDbgen)
{
    TpchConfig cfg;
    cfg.scaleFactor = kSf / 2;

    ThreadPool::setGlobalParallelism(1);
    TpchDatabase one = TpchDatabase::generate(cfg);
    ThreadPool::setGlobalParallelism(3);
    TpchDatabase three = TpchDatabase::generate(cfg);
    ThreadPool::setGlobalParallelism(7);
    TpchDatabase seven = TpchDatabase::generate(cfg);

    expectTablesIdentical(*one.lineitem, *three.lineitem);
    expectTablesIdentical(*one.lineitem, *seven.lineitem);
    expectTablesIdentical(*one.orders, *seven.orders);
    expectTablesIdentical(*one.customer, *seven.customer);
}

} // namespace
} // namespace aquoman::tpch
