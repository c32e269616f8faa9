/** @file
 * Unit tests of the shared morsel-parallel pool: range splitting,
 * full-coverage parallelFor execution, serial fallback, exception
 * propagation, nested sections, task groups, and repeated pool
 * startup/shutdown.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/thread_pool.hh"

namespace aquoman {
namespace {

TEST(SplitRange, CoversRangeInOrderWithBoundedChunks)
{
    auto chunks = ThreadPool::splitRange(3, 250, 64);
    ASSERT_FALSE(chunks.empty());
    EXPECT_EQ(chunks.front().first, 3);
    EXPECT_EQ(chunks.back().second, 250);
    for (std::size_t i = 0; i < chunks.size(); ++i) {
        EXPECT_LT(chunks[i].first, chunks[i].second);
        EXPECT_LE(chunks[i].second - chunks[i].first, 64);
        if (i) {
            EXPECT_EQ(chunks[i].first, chunks[i - 1].second);
        }
    }
}

TEST(SplitRange, EmptyRangeYieldsNoChunks)
{
    EXPECT_TRUE(ThreadPool::splitRange(5, 5, 16).empty());
    EXPECT_TRUE(ThreadPool::splitRange(7, 5, 16).empty());
}

TEST(ThreadPoolTest, ParallelForTouchesEveryIndexExactlyOnce)
{
    ThreadPool pool(4);
    // Indices are disjoint across chunks, so plain ints suffice.
    std::vector<int> hits(10007, 0);
    pool.parallelFor(0, static_cast<std::int64_t>(hits.size()), 97,
                     [&](std::int64_t b, std::int64_t e) {
                         for (std::int64_t i = b; i < e; ++i)
                             ++hits[i];
                     });
    for (std::size_t i = 0; i < hits.size(); ++i)
        ASSERT_EQ(hits[i], 1) << "index " << i;
}

TEST(ThreadPoolTest, SerialPoolRunsChunksInlineAndInOrder)
{
    ThreadPool pool(1);
    std::vector<std::int64_t> starts;
    auto caller = std::this_thread::get_id();
    pool.parallelFor(0, 100, 16, [&](std::int64_t b, std::int64_t) {
        EXPECT_EQ(std::this_thread::get_id(), caller);
        starts.push_back(b);
    });
    std::vector<std::int64_t> expect{0, 16, 32, 48, 64, 80, 96};
    EXPECT_EQ(starts, expect);
}

TEST(ThreadPoolTest, ExceptionPropagatesAndPoolStaysUsable)
{
    ThreadPool pool(4);
    EXPECT_THROW(
        pool.parallelFor(0, 64, 1,
                         [&](std::int64_t b, std::int64_t) {
                             if (b == 33)
                                 throw std::runtime_error("chunk 33");
                         }),
        std::runtime_error);

    std::atomic<std::int64_t> sum{0};
    pool.parallelFor(0, 64, 1, [&](std::int64_t b, std::int64_t e) {
        for (std::int64_t i = b; i < e; ++i)
            sum += i;
    });
    EXPECT_EQ(sum.load(), 64 * 63 / 2);
}

TEST(ThreadPoolTest, NestedParallelForCompletes)
{
    ThreadPool pool(4);
    std::vector<std::int64_t> inner_sums(8, 0);
    pool.parallelFor(0, 8, 1, [&](std::int64_t b, std::int64_t e) {
        for (std::int64_t t = b; t < e; ++t) {
            std::vector<std::int64_t> parts(16, 0);
            pool.parallelFor(0, 160, 10,
                             [&](std::int64_t ib, std::int64_t ie) {
                                 for (std::int64_t i = ib; i < ie; ++i)
                                     parts[i / 10] += i;
                             });
            inner_sums[t] = std::accumulate(parts.begin(), parts.end(),
                                            std::int64_t{0});
        }
    });
    for (std::int64_t s : inner_sums)
        EXPECT_EQ(s, 160 * 159 / 2);
}

TEST(ThreadPoolTest, RepeatedStartupShutdown)
{
    for (int round = 0; round < 3; ++round) {
        for (int degree = 1; degree <= 8; ++degree) {
            ThreadPool pool(degree);
            EXPECT_EQ(pool.parallelism(), degree);
            std::atomic<int> count{0};
            pool.parallelFor(0, 50, 7,
                             [&](std::int64_t b, std::int64_t e) {
                                 count += static_cast<int>(e - b);
                             });
            EXPECT_EQ(count.load(), 50);
        }
    }
}

TEST(TaskGroupTest, RunsAllTasksAndIsReusable)
{
    ThreadPool pool(4);
    TaskGroup group(pool);
    std::vector<int> done(12, 0);
    for (int i = 0; i < 12; ++i)
        group.run([&done, i] { done[i] = i + 1; });
    group.wait();
    for (int i = 0; i < 12; ++i)
        EXPECT_EQ(done[i], i + 1);

    int second = 0;
    group.run([&second] { second = 42; });
    group.wait();
    EXPECT_EQ(second, 42);
}

TEST(TaskGroupTest, NestedGroupsComplete)
{
    ThreadPool pool(4);
    std::vector<std::int64_t> totals(4, 0);
    TaskGroup outer(pool);
    for (int t = 0; t < 4; ++t) {
        outer.run([&pool, &totals, t] {
            std::vector<std::int64_t> parts(8, 0);
            TaskGroup inner(pool);
            for (int i = 0; i < 8; ++i)
                inner.run([&parts, i] { parts[i] = i * i; });
            inner.wait();
            totals[t] = std::accumulate(parts.begin(), parts.end(),
                                        std::int64_t{0});
        });
    }
    outer.wait();
    for (std::int64_t s : totals)
        EXPECT_EQ(s, 0 + 1 + 4 + 9 + 16 + 25 + 36 + 49);
}

TEST(TaskGroupTest, WaitRethrowsTaskException)
{
    ThreadPool pool(2);
    TaskGroup group(pool);
    group.run([] { throw std::runtime_error("task failed"); });
    EXPECT_THROW(group.wait(), std::runtime_error);
}

TEST(GlobalPool, SetGlobalParallelismRebuildsThePool)
{
    int original = ThreadPool::global().parallelism();
    ThreadPool::setGlobalParallelism(3);
    EXPECT_EQ(ThreadPool::global().parallelism(), 3);

    std::atomic<int> count{0};
    parallelFor(0, 20, 1, [&](std::int64_t b, std::int64_t e) {
        count += static_cast<int>(e - b);
    });
    EXPECT_EQ(count.load(), 20);

    ThreadPool::setGlobalParallelism(original);
    EXPECT_EQ(ThreadPool::global().parallelism(), original);
}

} // namespace
} // namespace aquoman
