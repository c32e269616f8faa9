/** @file
 * Property sweeps for the streaming sorter under adversarial inputs:
 * heavy duplicates, all-equal keys, presorted runs, and stability of
 * the <key, RowID> pairing the join machinery depends on.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "aquoman/swissknife/streaming_sorter.hh"
#include "common/rng.hh"

namespace aquoman {
namespace {

AquomanConfig
tinyBlocks()
{
    AquomanConfig cfg;
    cfg.sorterBlockBytes = 2048; // 128 records per block
    return cfg;
}

class SorterProperty
    : public ::testing::TestWithParam<std::tuple<int, int>>
{
};

TEST_P(SorterProperty, SortsArbitraryKeyDistributions)
{
    auto [n, key_range] = GetParam();
    Rng rng(n * 1009 + key_range);
    KvStream s(n);
    for (int i = 0; i < n; ++i)
        s[i] = {rng.uniform(0, key_range), i};
    KvStream want = s;
    std::sort(want.begin(), want.end());
    StreamingSorter sorter(tinyBlocks());
    SorterStats st = sorter.sort(s, true);
    EXPECT_EQ(s, want);
    EXPECT_EQ(st.recordsIn, n);
    // Every RowID payload survives exactly once.
    std::map<std::int64_t, int> seen;
    for (const Kv &kv : s)
        seen[kv.value]++;
    for (int i = 0; i < n; ++i)
        EXPECT_EQ(seen[i], 1);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, SorterProperty,
    ::testing::Values(std::make_tuple(1, 10),      // single record
                      std::make_tuple(127, 1),     // all keys equal
                      std::make_tuple(128, 4),     // exactly one block
                      std::make_tuple(129, 4),     // one spill record
                      std::make_tuple(2000, 3),    // heavy duplicates
                      std::make_tuple(2000, 1 << 30),
                      std::make_tuple(4096, 100)));

TEST(SorterPropertyTest, EmptyStream)
{
    KvStream s;
    StreamingSorter sorter(tinyBlocks());
    SorterStats st = sorter.sort(s, true);
    EXPECT_EQ(st.recordsIn, 0);
    EXPECT_EQ(st.numBlocks, 0);
    EXPECT_EQ(st.seconds, 0.0);
}

TEST(SorterPropertyTest, AlternationBoundedToUnitInterval)
{
    StreamingSorter sorter(tinyBlocks());
    Rng rng(99);
    for (int trial = 0; trial < 10; ++trial) {
        KvStream s(777);
        for (auto &kv : s)
            kv = {rng.uniform(0, trial == 0 ? 1 : 1 << 20), 0};
        SorterStats st = sorter.sort(s, false);
        EXPECT_GE(st.alternationRate, 0.0);
        EXPECT_LE(st.alternationRate, 1.0);
        EXPECT_GT(st.throughput, 0.0);
    }
}

} // namespace
} // namespace aquoman
