/** @file
 * Unit and property tests for the SQL Swissknife accelerators: bitonic
 * sorter, VCAS, TopK chain and the Aggregate Group-By (including its
 * spill-over behaviour), plus the streaming sorter's functional and
 * Table V timing behaviour.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <map>
#include <string>

#include "aquoman/swissknife/bitonic.hh"
#include "aquoman/swissknife/groupby.hh"
#include "aquoman/swissknife/streaming_sorter.hh"
#include "aquoman/swissknife/topk.hh"
#include "aquoman/swissknife/vcas.hh"
#include "common/rng.hh"

namespace aquoman {
namespace {

KvStream
randomStream(std::int64_t n, std::uint64_t seed, std::int64_t key_range)
{
    Rng rng(seed);
    KvStream s(n);
    for (std::int64_t i = 0; i < n; ++i)
        s[i] = {rng.uniform(0, key_range), i};
    return s;
}

// ----------------------------------------------------------- Bitonic

class BitonicProperty : public ::testing::TestWithParam<int>
{
};

TEST_P(BitonicProperty, SortsRandomVectors)
{
    int size = GetParam();
    BitonicSorter sorter(size);
    Rng rng(size * 31 + 7);
    for (int trial = 0; trial < 20; ++trial) {
        KvStream v(size);
        for (int i = 0; i < size; ++i)
            v[i] = {rng.uniform(-1000, 1000), i};
        KvStream want = v;
        std::sort(want.begin(), want.end());
        sorter.sortVector(v.data());
        EXPECT_EQ(v, want);
    }
    EXPECT_GT(sorter.casOps(), 0);
}

INSTANTIATE_TEST_SUITE_P(Sizes, BitonicProperty,
                         ::testing::Values(2, 4, 8, 16, 32, 64));

TEST(BitonicTest, StageCountMatchesTheory)
{
    EXPECT_EQ(BitonicSorter(32).numStages(), 15); // 5*6/2
    EXPECT_EQ(BitonicSorter(8).numStages(), 6);   // 3*4/2
    EXPECT_EQ(BitonicSorter(2).numStages(), 1);
}

TEST(BitonicTest, RejectsNonPowerOfTwo)
{
    EXPECT_THROW(BitonicSorter(12), PanicError);
}

// -------------------------------------------------------------- VCAS

TEST(VcasTest, KeepsBiggestHalf)
{
    Vcas block(4);
    KvStream v1 = {{1, 0}, {3, 0}, {5, 0}, {7, 0}};
    block.compareAndSwap(v1);
    // First vector displaces the -inf initial contents entirely.
    EXPECT_EQ(block.contents()[0].key, 1);
    EXPECT_EQ(block.contents()[3].key, 7);

    KvStream v2 = {{2, 0}, {4, 0}, {6, 0}, {8, 0}};
    block.compareAndSwap(v2);
    // Top-4 of {1..8} is {5,6,7,8}; streamed-out half is {1,2,3,4}.
    EXPECT_EQ(block.contents()[0].key, 5);
    EXPECT_EQ(block.contents()[3].key, 8);
    EXPECT_EQ(v2[0].key, 1);
    EXPECT_EQ(v2[3].key, 4);
    EXPECT_EQ(block.steps(), 8);
}

TEST(VcasTest, PropertyTopHalfOfUnion)
{
    Rng rng(99);
    for (int trial = 0; trial < 50; ++trial) {
        int n = 8;
        Vcas block(n);
        KvStream all;
        for (int round = 0; round < 6; ++round) {
            KvStream v(n);
            for (int i = 0; i < n; ++i)
                v[i] = {rng.uniform(0, 100), rng.uniform(0, 1 << 20)};
            std::sort(v.begin(), v.end());
            for (const Kv &r : v)
                all.push_back(r);
            block.compareAndSwap(v);
        }
        std::sort(all.begin(), all.end());
        KvStream want(all.end() - n, all.end());
        EXPECT_EQ(block.contents(), want);
    }
}

// -------------------------------------------------------------- TopK

class TopKProperty
    : public ::testing::TestWithParam<std::tuple<int, int>>
{
};

TEST_P(TopKProperty, MatchesPartialSort)
{
    auto [k, n] = GetParam();
    KvStream input = randomStream(n, k * 1000003 + n, 1 << 20);
    TopKAccelerator topk(k, 8);
    topk.pushAll(input);
    KvStream got = topk.finish();

    KvStream want = input;
    std::sort(want.begin(), want.end());
    std::reverse(want.begin(), want.end());
    want.resize(std::min<std::int64_t>(k, n));
    EXPECT_EQ(got, want);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, TopKProperty,
    ::testing::Values(std::make_tuple(1, 100), std::make_tuple(8, 64),
                      std::make_tuple(10, 1000), std::make_tuple(16, 7),
                      std::make_tuple(100, 100),
                      std::make_tuple(32, 5000)));

TEST(TopKTest, ChainLengthIsKOverN)
{
    EXPECT_EQ(TopKAccelerator(100, 32).chainLength(), 4);
    EXPECT_EQ(TopKAccelerator(32, 32).chainLength(), 1);
    EXPECT_EQ(TopKAccelerator(1, 32).chainLength(), 1);
}

TEST(TopKTest, CountersAdvance)
{
    TopKAccelerator topk(16, 8);
    topk.pushAll(randomStream(100, 5, 1000));
    topk.finish();
    EXPECT_GE(topk.vectorsSorted(), 100 / 8);
    EXPECT_GT(topk.casSteps(), 0);
}

// ----------------------------------------------------------- GroupBy

TEST(GroupByTest, SmallGroupSetStaysInSram)
{
    AquomanConfig cfg;
    GroupByAccelerator gb(cfg, 1, {HwAgg::Sum, HwAgg::Cnt});
    for (int i = 0; i < 1000; ++i)
        gb.update({i % 4}, {i, 0});
    EXPECT_EQ(gb.stats().groupsSpilled, 0);
    EXPECT_EQ(gb.stats().rowsSpilled, 0);
    GroupColumns groups = gb.finish();
    ASSERT_EQ(groups.size(), 4);
    EXPECT_EQ(groups.sramGroups, 4);
    std::map<std::int64_t, std::int64_t> sums;
    for (std::int64_t g = 0; g < groups.size(); ++g)
        sums[groups.ids[0][g]] = groups.aggregates[0][g];
    // sum of i in 0..999 with i%4==0: 0+4+...+996.
    EXPECT_EQ(sums[0], 124500);
    for (std::int64_t g = 0; g < groups.size(); ++g) {
        EXPECT_EQ(groups.aggregates[1][g], 250);
        EXPECT_EQ(groups.rows[g], 250);
    }
}

TEST(GroupByTest, CollisionsSpillToHostAndMergeBack)
{
    AquomanConfig cfg;
    cfg.groupByBuckets = 16; // force collisions
    GroupByAccelerator gb(cfg, 1, {HwAgg::Sum});
    std::map<std::int64_t, std::int64_t> want;
    Rng rng(42);
    for (int i = 0; i < 5000; ++i) {
        std::int64_t g = rng.uniform(0, 99);
        std::int64_t v = rng.uniform(0, 1000);
        gb.update({g}, {v});
        want[g] += v;
    }
    EXPECT_GT(gb.stats().groupsSpilled, 0);
    EXPECT_GT(gb.stats().rowsSpilled, 0);
    GroupColumns groups = gb.finish();
    ASSERT_EQ(groups.size(), static_cast<std::int64_t>(want.size()));
    for (std::int64_t g = 0; g < groups.size(); ++g)
        EXPECT_EQ(groups.aggregates[0][g], want[groups.ids[0][g]]);
    EXPECT_EQ(groups.size() - groups.sramGroups,
              gb.stats().groupsSpilled);
}

TEST(GroupByTest, MinMaxCntSemantics)
{
    AquomanConfig cfg;
    GroupByAccelerator gb(cfg, 1,
                          {HwAgg::Min, HwAgg::Max, HwAgg::Cnt});
    gb.update({7}, {5, 5, 5});
    gb.update({7}, {-3, -3, -3});
    gb.update({7}, {12, 12, 12});
    GroupColumns groups = gb.finish();
    ASSERT_EQ(groups.size(), 1);
    EXPECT_EQ(groups.aggregates[0][0], -3);
    EXPECT_EQ(groups.aggregates[1][0], 12);
    EXPECT_EQ(groups.aggregates[2][0], 3);
}

TEST(GroupByTest, WideIdentifierFlagged)
{
    AquomanConfig cfg; // 16B limit == two 64-bit lanes
    GroupByAccelerator two(cfg, 2, {HwAgg::Sum});
    EXPECT_FALSE(two.idWidthExceedsHardware());
    GroupByAccelerator three(cfg, 3, {HwAgg::Sum});
    EXPECT_TRUE(three.idWidthExceedsHardware());
}

TEST(GroupByTest, TooManyAggSlotsRejected)
{
    AquomanConfig cfg;
    std::vector<HwAgg> nine(9, HwAgg::Sum);
    EXPECT_THROW(GroupByAccelerator(cfg, 1, nine), PanicError);
}

TEST(GroupByTest, Q18StyleMassiveSpill)
{
    // Group count vastly exceeding 1024 buckets: most rows spill, the
    // device keeps only 1024 groups in SRAM (Sec. VI-E, Q18).
    AquomanConfig cfg;
    GroupByAccelerator gb(cfg, 1, {HwAgg::Sum});
    for (int i = 0; i < 100000; ++i)
        gb.update({i}, {1});
    EXPECT_EQ(gb.stats().groupsInSram, 1024);
    EXPECT_EQ(gb.stats().groupsSpilled, 100000 - 1024);
    GroupColumns groups = gb.finish();
    EXPECT_EQ(groups.size(), 100000);
}

/**
 * Reference model of the accelerator's semantics, kept deliberately
 * naive: per-row vectors, one std::vector per bucket field, a std::map
 * for spill groups and a count per aggregate slot. The flat
 * accelerator must reproduce its drain order and statistics exactly.
 */
class ReferenceGroupBy
{
  public:
    ReferenceGroupBy(int buckets, std::vector<HwAgg> aggs)
        : kinds(std::move(aggs)), table(buckets)
    {
    }

    void
    update(const std::vector<std::int64_t> &id,
           const std::vector<std::int64_t> &vals)
    {
        ++stats.rowsIn;
        std::uint64_t h = 1469598103934665603ull;
        for (std::int64_t lane : id) {
            for (int b = 0; b < 8; ++b) {
                h ^= static_cast<std::uint8_t>(lane >> (8 * b));
                h *= 1099511628211ull;
            }
        }
        Group &b = table[h % table.size()];
        if (!b.used) {
            b = fresh(id);
            ++stats.groupsInSram;
        }
        if (b.id == id) {
            apply(b, vals);
            return;
        }
        ++stats.rowsSpilled;
        auto [it, inserted] = spill.try_emplace(id);
        if (inserted) {
            it->second = fresh(id);
            ++stats.groupsSpilled;
        }
        apply(it->second, vals);
    }

    /** Drained groups in order: SRAM by bucket, then the map's order. */
    std::vector<std::pair<std::vector<std::int64_t>,
                          std::vector<std::int64_t>>>
    finish() const
    {
        std::vector<std::pair<std::vector<std::int64_t>,
                              std::vector<std::int64_t>>> out;
        for (const Group &b : table) {
            if (b.used)
                out.push_back(flatten(b));
        }
        for (const auto &[id, g] : spill)
            out.push_back(flatten(g));
        return out;
    }

    GroupByStats stats;

  private:
    struct Group
    {
        bool used = false;
        std::vector<std::int64_t> id, agg, cnt;
    };

    Group
    fresh(const std::vector<std::int64_t> &id) const
    {
        Group g{true, id, std::vector<std::int64_t>(kinds.size(), 0),
                std::vector<std::int64_t>(kinds.size(), 0)};
        for (std::size_t i = 0; i < kinds.size(); ++i) {
            if (kinds[i] == HwAgg::Min)
                g.agg[i] = std::numeric_limits<std::int64_t>::max();
            if (kinds[i] == HwAgg::Max)
                g.agg[i] = std::numeric_limits<std::int64_t>::min();
        }
        return g;
    }

    void
    apply(Group &g, const std::vector<std::int64_t> &vals) const
    {
        for (std::size_t i = 0; i < kinds.size(); ++i) {
            switch (kinds[i]) {
              case HwAgg::Sum: g.agg[i] += vals[i]; break;
              case HwAgg::Min: g.agg[i] = std::min(g.agg[i], vals[i]); break;
              case HwAgg::Max: g.agg[i] = std::max(g.agg[i], vals[i]); break;
              case HwAgg::Cnt: g.agg[i] += 1; break;
            }
            g.cnt[i] += 1;
        }
    }

    /** (id, aggregates followed by per-slot counts). */
    static std::pair<std::vector<std::int64_t>, std::vector<std::int64_t>>
    flatten(const Group &g)
    {
        std::vector<std::int64_t> v = g.agg;
        v.insert(v.end(), g.cnt.begin(), g.cnt.end());
        return {g.id, v};
    }

    std::vector<HwAgg> kinds;
    std::vector<Group> table;
    std::map<std::vector<std::int64_t>, Group> spill;
};

/** Flatten accelerator output into the reference's shape. */
std::vector<std::pair<std::vector<std::int64_t>, std::vector<std::int64_t>>>
flattenColumns(const GroupColumns &c)
{
    std::vector<std::pair<std::vector<std::int64_t>,
                          std::vector<std::int64_t>>> out;
    for (std::int64_t g = 0; g < c.size(); ++g) {
        std::vector<std::int64_t> id, v;
        for (const auto &lane : c.ids)
            id.push_back(lane[g]);
        for (const auto &slot : c.aggregates)
            v.push_back(slot[g]);
        for (std::size_t i = 0; i < c.aggregates.size(); ++i)
            v.push_back(c.rows[g]); // every slot counts every row
        out.emplace_back(std::move(id), std::move(v));
    }
    return out;
}

void
expectSameStats(const GroupByStats &a, const GroupByStats &b,
                const std::string &ctx)
{
    EXPECT_EQ(a.rowsIn, b.rowsIn) << ctx;
    EXPECT_EQ(a.rowsSpilled, b.rowsSpilled) << ctx;
    EXPECT_EQ(a.groupsInSram, b.groupsInSram) << ctx;
    EXPECT_EQ(a.groupsSpilled, b.groupsSpilled) << ctx;
}

TEST(GroupByProperty, FlatTableMatchesReferenceModel)
{
    const std::vector<HwAgg> aggs = {HwAgg::Sum, HwAgg::Min, HwAgg::Max,
                                     HwAgg::Cnt};
    for (int width : {0, 1, 2, 3}) {
        // Clustered keys arrive in ascending runs, as q18's lineitem
        // does by orderkey, so spill groups are created already sorted.
        struct KeySet { std::int64_t keys; bool clustered; };
        for (KeySet ks : {KeySet{10, false}, KeySet{1024, false},
                          KeySet{50000, false}, KeySet{50000, true}}) {
            const std::int64_t keys = ks.keys;
            for (int buckets : {1, 16, 1024}) {
                std::string ctx = "width " + std::to_string(width)
                    + " keys " + std::to_string(keys)
                    + (ks.clustered ? " clustered" : "") + " buckets "
                    + std::to_string(buckets);
                AquomanConfig cfg;
                cfg.groupByBuckets = buckets;
                const std::int64_t rows = std::max<std::int64_t>(
                    5000, 2 * keys);
                // Key k maps to lanes whose last lane is a bijection of
                // k (monotone when clustered); earlier lanes are small
                // and signed, so spill groups tie on leading lanes and
                // sort across signs.
                std::vector<std::vector<std::int64_t>> id_cols(width);
                std::vector<std::vector<std::int64_t>> val_cols(
                    aggs.size());
                Rng rng(static_cast<std::uint64_t>(width * 7919 + keys
                                                   + buckets));
                for (std::int64_t r = 0; r < rows; ++r) {
                    std::int64_t k = ks.clustered
                        ? r * keys / rows
                        : rng.uniform(0, keys - 1);
                    std::int64_t last = ks.clustered
                        ? k - keys / 2
                        : static_cast<std::int64_t>(
                              static_cast<std::uint64_t>(k)
                              * 0x9e3779b97f4a7c15ull);
                    for (int l = 0; l < width; ++l) {
                        id_cols[l].push_back(l + 1 == width
                                                 ? last
                                                 : k % (l + 3) - 1);
                    }
                    for (auto &v : val_cols)
                        v.push_back(rng.uniform(-1000, 1000));
                }

                ReferenceGroupBy ref(buckets, aggs);
                GroupByAccelerator one_row(cfg, width, aggs);
                std::vector<std::int64_t> id(width), vals(aggs.size());
                for (std::int64_t r = 0; r < rows; ++r) {
                    for (int l = 0; l < width; ++l)
                        id[l] = id_cols[l][r];
                    for (std::size_t s = 0; s < aggs.size(); ++s)
                        vals[s] = val_cols[s][r];
                    ref.update(id, vals);
                    one_row.update(id, vals);
                }

                // Columnar feed in uneven chunks that straddle the
                // hash morsel; the Cnt column is never read.
                GroupByAccelerator columns(cfg, width, aggs);
                std::int64_t done = 0;
                for (std::int64_t chunk : {std::int64_t{1}, std::int64_t{1023},
                                           std::int64_t{1500}, rows}) {
                    std::int64_t n = std::min(chunk, rows - done);
                    std::vector<const std::int64_t *> ic, vc;
                    for (const auto &c : id_cols)
                        ic.push_back(c.data() + done);
                    for (std::size_t s = 0; s < aggs.size(); ++s)
                        vc.push_back(aggs[s] == HwAgg::Cnt
                                         ? nullptr
                                         : val_cols[s].data() + done);
                    columns.update(ic, vc, n);
                    done += n;
                }
                ASSERT_EQ(done, rows) << ctx;

                auto want = ref.finish();
                GroupColumns got = columns.finish();
                ASSERT_EQ(flattenColumns(got), want) << ctx;
                ASSERT_EQ(flattenColumns(one_row.finish()), want) << ctx;
                EXPECT_EQ(got.sramGroups, ref.stats.groupsInSram) << ctx;
                expectSameStats(columns.stats(), ref.stats, ctx);
                expectSameStats(one_row.stats(), ref.stats, ctx);
                if (width > 0 && keys > buckets) {
                    EXPECT_GT(ref.stats.groupsSpilled, 0) << ctx;
                }
            }
        }
    }
}

// --------------------------------------------------- StreamingSorter

AquomanConfig
smallSorterConfig()
{
    AquomanConfig cfg;
    cfg.sorterBlockBytes = 4096; // 256 records per block
    return cfg;
}

TEST(StreamingSorterTest, SortsWithinOneBlock)
{
    AquomanConfig cfg = smallSorterConfig();
    StreamingSorter sorter(cfg);
    KvStream s = randomStream(200, 11, 1 << 30);
    KvStream want = s;
    std::sort(want.begin(), want.end());
    SorterStats st = sorter.sort(s);
    EXPECT_EQ(s, want);
    EXPECT_EQ(st.numBlocks, 1);
    EXPECT_FALSE(st.folded);
    EXPECT_GT(st.throughput, 0.0);
}

TEST(StreamingSorterTest, FoldsManyBlocksToTotalOrder)
{
    AquomanConfig cfg = smallSorterConfig();
    StreamingSorter sorter(cfg);
    KvStream s = randomStream(10000, 13, 1 << 30);
    KvStream want = s;
    std::sort(want.begin(), want.end());
    SorterStats st = sorter.sort(s, true);
    EXPECT_EQ(s, want);
    EXPECT_GT(st.numBlocks, 1);
    EXPECT_TRUE(st.folded);
    EXPECT_EQ(st.dramBytes, st.bytesIn);
}

TEST(StreamingSorterTest, BlockModeLeavesSortedRuns)
{
    AquomanConfig cfg = smallSorterConfig();
    StreamingSorter sorter(cfg);
    KvStream s = randomStream(1024, 17, 1 << 30);
    SorterStats st = sorter.sort(s, false);
    EXPECT_FALSE(st.folded);
    std::int64_t block_records = cfg.sorterBlockBytes / kKvBytes;
    for (std::int64_t b = 0; b * block_records
             < static_cast<std::int64_t>(s.size()); ++b) {
        auto begin = s.begin() + b * block_records;
        auto end = std::min(begin + block_records, s.end());
        EXPECT_TRUE(std::is_sorted(begin, end));
    }
}

TEST(StreamingSorterTest, RandomInputFasterThanSorted)
{
    // Table V: random inputs sustain higher throughput than presorted
    // ones because the merge scheduler alternates sources.
    AquomanConfig cfg = smallSorterConfig();
    StreamingSorter sorter(cfg);

    KvStream sorted_in(8192), random_in;
    for (std::int64_t i = 0; i < 8192; ++i)
        sorted_in[i] = {i, i};
    random_in = randomStream(8192, 23, 1 << 30);

    SorterStats sorted_st = sorter.sort(sorted_in, false);
    SorterStats random_st = sorter.sort(random_in, false);
    EXPECT_LT(sorted_st.alternationRate, 0.1);
    EXPECT_GT(random_st.alternationRate, 0.8);
    EXPECT_GT(random_st.throughput, sorted_st.throughput * 1.2);
}

TEST(StreamingSorterTest, ThroughputGrowsWithLength)
{
    // Table V: longer inputs amortise the pipeline fill (4.4 -> 8.6
    // GB/s for sorted data between 1GB and 1000GB).
    AquomanConfig cfg;
    StreamingSorter sorter(cfg);
    double t1 = 1e9 / sorter.modelSeconds(1e9, 0.0, false);
    double t10 = 1e10 / sorter.modelSeconds(1e10, 0.0, false);
    double t1000 = 1e12 / sorter.modelSeconds(1e12, 0.0, false);
    EXPECT_LT(t1, t10);
    EXPECT_LT(t10, t1000);
    EXPECT_NEAR(t1 / 1e9, 4.4, 0.4);
    EXPECT_NEAR(t1000 / 1e9, 8.6, 0.4);
    double r1000 = 1e12 / sorter.modelSeconds(1e12, 1.0, false);
    EXPECT_NEAR(r1000 / 1e9, 12.0, 0.4);
}

} // namespace
} // namespace aquoman
