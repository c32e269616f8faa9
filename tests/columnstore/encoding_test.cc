/** @file
 * Property tests for the persisted column codecs (Raw/RLE/Dict/FOR):
 * every value shape must round-trip bit-exactly through encode ->
 * flash persist -> decode, and compressed device runs must stay
 * bit-deterministic across thread counts.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <sstream>
#include <vector>

#include "aquoman/device.hh"
#include "columnstore/encoding.hh"
#include "common/compress_mode.hh"
#include "common/rng.hh"
#include "common/thread_pool.hh"
#include "flash/flash_device.hh"
#include "tpch/dbgen.hh"
#include "tpch/queries.hh"

namespace aquoman {
namespace {

struct Shape
{
    const char *name;
    int width; ///< declared column width (4 for date-like, else 8)
    std::vector<std::int64_t> vals;
};

std::vector<Shape>
valueShapes()
{
    Rng rng(20260808);
    std::vector<Shape> shapes;
    shapes.push_back({"empty", 8, {}});
    shapes.push_back({"single", 8, {42}});
    shapes.push_back({"single_null", 8, {kEncodedNull}});
    shapes.push_back(
        {"all_nulls", 8,
         std::vector<std::int64_t>(5000, kEncodedNull)});

    Shape runs{"long_runs_with_nulls", 8, {}};
    for (std::int64_t i = 0; i < 40000; ++i) {
        std::int64_t run = i / 700;
        runs.vals.push_back(run % 9 == 0 ? kEncodedNull : run * 37);
    }
    shapes.push_back(std::move(runs));

    Shape lowcard{"low_cardinality_shuffle", 8, {}};
    for (std::int64_t i = 0; i < 30000; ++i)
        lowcard.vals.push_back(rng.uniform(0, 40) * 1'000'000'007ll);
    shapes.push_back(std::move(lowcard));

    Shape band{"dense_band", 8, {}};
    for (std::int64_t i = 0; i < 30000; ++i)
        band.vals.push_back(5'000'000'000ll + rng.uniform(0, 99999));
    shapes.push_back(std::move(band));

    Shape wide{"random_wide", 8, {}};
    for (std::int64_t i = 0; i < 20000; ++i)
        wide.vals.push_back(static_cast<std::int64_t>(
            rng.uniform(std::numeric_limits<std::int32_t>::min(),
                        std::numeric_limits<std::int32_t>::max()))
            * 1'000'003);
    shapes.push_back(std::move(wide));

    Shape dates{"sorted_dates_w4", 4, {}};
    for (std::int64_t i = 0; i < 25000; ++i)
        dates.vals.push_back(i % 1000 == 0 ? kEncodedNull
                                           : 8036 + i / 11);
    shapes.push_back(std::move(dates));

    Shape outliers{"sorted_with_outliers", 8, {}};
    for (std::int64_t i = 0; i < 20000; ++i)
        outliers.vals.push_back(
            i % 4096 == 17 ? (1ll << 60) + i : i * 3);
    shapes.push_back(std::move(outliers));
    return shapes;
}

/** Persist every page through a real flash device, read it back,
 *  decode, and compare with the original values. */
void
expectRoundTrip(const Shape &s)
{
    ColumnEncoding enc = encodeValues(
        s.vals.data(), static_cast<std::int64_t>(s.vals.size()),
        s.width);
    std::int64_t covered = 0;
    for (const EncodedPage &p : enc.pages) {
        EXPECT_EQ(p.firstRow, covered) << s.name;
        EXPECT_LE(static_cast<std::int64_t>(p.bytes.size()),
                  kFlashPageBytes)
            << s.name;
        covered += p.rows;
    }
    EXPECT_EQ(covered, static_cast<std::int64_t>(s.vals.size()))
        << s.name;

    FlashConfig fc;
    fc.capacityBytes = 64ll << 20;
    FlashDevice dev(fc);
    std::vector<std::int64_t> decoded;
    decoded.reserve(s.vals.size());
    for (const EncodedPage &p : enc.pages) {
        FlashExtent ext = dev.allocate(
            static_cast<std::int64_t>(p.bytes.size()));
        dev.write(ext, 0, p.bytes.data(),
                  static_cast<std::int64_t>(p.bytes.size()));
        std::vector<std::uint8_t> persisted(p.bytes.size());
        dev.read(ext, 0, persisted.data(),
                 static_cast<std::int64_t>(persisted.size()));
        ASSERT_EQ(persisted, p.bytes) << s.name;
        decodePage(persisted.data(), persisted.size(), decoded);
    }
    ASSERT_EQ(decoded, s.vals) << s.name;
}

TEST(EncodingProperty, RoundTripsEveryShapeThroughFlash)
{
    for (const Shape &s : valueShapes())
        expectRoundTrip(s);
}

/** Canonical multiset-of-rows form for result comparison. */
std::vector<std::string>
canonicalRows(const RelTable &t)
{
    std::vector<std::string> rows;
    for (std::int64_t r = 0; r < t.numRows(); ++r) {
        std::ostringstream os;
        for (int c = 0; c < t.numColumns(); ++c) {
            const RelColumn &col = t.col(c);
            if (col.type == ColumnType::Varchar)
                os << col.str(r);
            else
                os << col.get(r);
            os << "|";
        }
        rows.push_back(os.str());
    }
    std::sort(rows.begin(), rows.end());
    return rows;
}

/**
 * Compressed device runs are part of the simulator's determinism
 * contract: results, modelled seconds and flash bytes must be
 * bit-identical whether the pool runs with 1 worker
 * or 4 (AQUOMAN_THREADS={1,4}), with compression on or off.
 */
TEST(EncodingDeterminism, DeviceRunsAreThreadCountInvariant)
{
    bool saved = compressionEnabled();
    tpch::TpchConfig cfg;
    cfg.scaleFactor = 0.01;
    auto db = tpch::TpchDatabase::generate(cfg);

    for (bool compress : {true, false}) {
        setCompressionEnabled(compress);
        FlashConfig fc;
        fc.capacityBytes = 4ll << 30;
        FlashDevice dev(fc);
        ControllerSwitch sw(dev);
        TableStore store(sw);
        Catalog cat;
        db.installInto(cat, store);

        // q1 and q6 scan and aggregate; q3, q9 and q21 add joins,
        // whose compaction and tuple combine run on the pool.
        for (int q : {1, 3, 6, 9, 21}) {
            std::vector<OffloadedQueryResult> runs;
            for (int threads : {1, 4}) {
                ThreadPool::setGlobalParallelism(threads);
                AquomanDevice device(cat, sw,
                                     AquomanConfig::paper40());
                runs.push_back(
                    device.runQuery(tpch::tpchQuery(q, 0.01)));
            }
            const AquomanRunStats &a = runs[0].stats;
            const AquomanRunStats &b = runs[1].stats;
            EXPECT_EQ(canonicalRows(runs[0].result),
                      canonicalRows(runs[1].result))
                << "q" << q << " compress " << compress;
            EXPECT_EQ(a.deviceSeconds, b.deviceSeconds) << "q" << q;
            EXPECT_EQ(a.deviceFlashBytes, b.deviceFlashBytes)
                << "q" << q;
            EXPECT_EQ(a.deviceDramPeak, b.deviceDramPeak) << "q" << q;
            // EXPECT, not ASSERT: the global modes are restored below.
            EXPECT_EQ(a.tasks.size(), b.tasks.size()) << "q" << q;
            for (std::size_t t = 0;
                 t < std::min(a.tasks.size(), b.tasks.size()); ++t) {
                EXPECT_EQ(a.tasks[t].what, b.tasks[t].what) << "q" << q;
                EXPECT_EQ(a.tasks[t].work, b.tasks[t].work)
                    << "q" << q << " task " << a.tasks[t].what;
            }
        }
    }
    ThreadPool::setGlobalParallelism(
        ThreadPool::configuredParallelism());
    setCompressionEnabled(saved);
}

} // namespace
} // namespace aquoman
