/** @file
 * Property tests for the persisted column codecs (Raw/RLE/Dict/FOR):
 * every value shape must round-trip bit-exactly through encode ->
 * flash persist -> decode, the word packer must write the bytes of a
 * bit-at-a-time one, and installs and compressed device runs must
 * stay bit-deterministic across thread counts.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <limits>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "aquoman/device.hh"
#include "columnstore/encoding.hh"
#include "common/compress_mode.hh"
#include "common/rng.hh"
#include "common/thread_pool.hh"
#include "flash/flash_device.hh"
#include "service/sharded_store.hh"
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

/** Bit-at-a-time LSB-first packer: the reference for the word packer. */
void
refPutBits(std::vector<std::uint8_t> &out, std::int64_t &bitpos,
           std::uint64_t v, int bits)
{
    for (int i = 0; i < bits; ++i, ++bitpos) {
        if ((bitpos >> 3) >= static_cast<std::int64_t>(out.size()))
            out.push_back(0);
        if ((v >> i) & 1)
            out[bitpos >> 3] |= static_cast<std::uint8_t>(
                1u << (bitpos & 7));
    }
}

/**
 * Reference bytes of a Dict (non-empty @p dict) or For page over
 * @p vals, laid out field by field as the header comment of
 * encoding.hh specifies.
 */
std::vector<std::uint8_t>
refPage(const std::vector<std::int64_t> &vals, ColumnCodec codec,
        int bits, std::int64_t param,
        const std::vector<std::int64_t> &dict)
{
    auto n = static_cast<std::int64_t>(vals.size());
    bool nulls = std::count(vals.begin(), vals.end(), kEncodedNull) > 0;
    std::vector<std::uint8_t> out{static_cast<std::uint8_t>(codec),
                                  static_cast<std::uint8_t>(bits),
                                  static_cast<std::uint8_t>(nulls), 0};
    enc_detail::putScalar<std::uint32_t>(out,
                                         static_cast<std::uint32_t>(n));
    enc_detail::putScalar<std::int64_t>(out, param);
    if (nulls) {
        std::vector<std::uint8_t> bitmap;
        std::int64_t pos = 0;
        for (std::int64_t v : vals)
            refPutBits(bitmap, pos, v == kEncodedNull ? 1 : 0, 1);
        out.insert(out.end(), bitmap.begin(), bitmap.end());
    }
    for (std::int64_t d : dict)
        enc_detail::putScalar<std::int64_t>(out, d);
    std::int64_t pos = static_cast<std::int64_t>(out.size()) * 8;
    for (std::int64_t v : vals) {
        std::uint64_t field = 0;
        if (v != kEncodedNull) {
            field = dict.empty()
                ? static_cast<std::uint64_t>(v)
                    - static_cast<std::uint64_t>(param)
                : static_cast<std::uint64_t>(
                      std::lower_bound(dict.begin(), dict.end(), v)
                      - dict.begin());
        }
        refPutBits(out, pos, field, bits);
    }
    return out;
}

/** Encode @p vals as one @p codec page; expect @p want and a round trip. */
void
expectPage(const std::vector<std::int64_t> &vals, ColumnCodec codec,
           const std::vector<std::uint8_t> &want, const std::string &what)
{
    enc_detail::PageStats stats;
    for (std::int64_t v : vals)
        stats.add(v);
    ASSERT_LE(stats.bytesFor(codec, 8), kFlashPageBytes) << what;
    EncodedPage page = enc_detail::encodePage(vals.data(), 0, stats,
                                              codec, 8);
    EXPECT_EQ(page.bytes, want) << what;
    EXPECT_EQ(static_cast<std::int64_t>(page.bytes.size()),
              stats.bytesFor(codec, 8))
        << what;
    std::vector<std::int64_t> decoded;
    decodePage(page.bytes.data(), page.bytes.size(), decoded);
    EXPECT_EQ(decoded, vals) << what;
}

/**
 * The word packer writes exactly the bytes of a bit-at-a-time packer:
 * For pages at every width 1-63, Dict pages at every width a page can
 * hold (1-10), row counts that end mid-byte and mid-word, with and
 * without a null bitmap.
 */
TEST(EncodingProperty, WordPackerMatchesBitwiseReference)
{
    Rng rng(20261019);
    const std::int64_t base = -(1ll << 62);
    for (int bits = 1; bits <= 63; ++bits) {
        const std::uint64_t mask = (1ull << bits) - 1;
        for (std::int64_t n : {2, 7, 63, 65, 1001, 5001}) {
            for (bool nulls : {false, true}) {
                std::vector<std::int64_t> vals(n);
                for (std::int64_t i = 0; i < n; ++i) {
                    // Rows 0 and n-1 pin the frame at base and the
                    // width at bits.
                    std::uint64_t d = i == 0 ? 0
                        : i == n - 1         ? mask
                                             : rng.next() & mask;
                    vals[i] = static_cast<std::int64_t>(
                        static_cast<std::uint64_t>(base) + d);
                    if (nulls && i % 7 == 3 && i != n - 1)
                        vals[i] = kEncodedNull;
                }
                std::int64_t bytes = 16 + (nulls ? (n + 7) / 8 : 0)
                    + (n * bits + 7) / 8;
                if (bytes > kFlashPageBytes)
                    continue;
                std::string what = "for bits " + std::to_string(bits)
                    + " n " + std::to_string(n) + " nulls "
                    + std::to_string(nulls);
                expectPage(vals, ColumnCodec::For,
                           refPage(vals, ColumnCodec::For, bits, base,
                                   {}),
                           what);
            }
        }
    }
    for (int bits = 1; bits <= 10; ++bits) {
        std::size_t nd = bits == 1 ? 2 : (std::size_t{1} << (bits - 1)) + 1;
        std::set<std::int64_t> distinct;
        while (distinct.size() < nd)
            distinct.insert(static_cast<std::int64_t>(rng.next() >> 2)
                            - (1ll << 61));
        std::vector<std::int64_t> dict(distinct.begin(), distinct.end());
        for (std::int64_t extra : {1, 63, 1001}) {
            for (bool nulls : {false, true}) {
                // Every dictionary entry once, then random picks.
                std::vector<std::int64_t> vals(dict.rbegin(), dict.rend());
                for (std::int64_t i = 0; i < extra; ++i) {
                    vals.push_back(nulls && i % 5 == 0
                        ? kEncodedNull
                        : dict[rng.uniform(0, dict.size() - 1)]);
                }
                if (nulls) // a null among the first entries too
                    std::swap(vals[1], vals[nd]);
                auto rows = static_cast<std::int64_t>(vals.size());
                std::int64_t bytes = 16 + (nulls ? (rows + 7) / 8 : 0)
                    + static_cast<std::int64_t>(nd) * 8
                    + (rows * bits + 7) / 8;
                if (bytes > kFlashPageBytes)
                    continue;
                std::string what = "dict bits " + std::to_string(bits)
                    + " rows " + std::to_string(rows) + " nulls "
                    + std::to_string(nulls);
                expectPage(vals, ColumnCodec::Dict,
                           refPage(vals, ColumnCodec::Dict, bits,
                                   static_cast<std::int64_t>(nd), dict),
                           what);
            }
        }
    }
}

/** The rows of @p t in their answer order, one string each. */
std::vector<std::string>
orderedRows(const RelTable &t)
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
    return rows;
}

/** Canonical multiset-of-rows form for result comparison. */
std::vector<std::string>
canonicalRows(const RelTable &t)
{
    std::vector<std::string> rows = orderedRows(t);
    std::sort(rows.begin(), rows.end());
    return rows;
}

/**
 * Compressed device runs are part of the simulator's determinism
 * contract: results (row order included), modelled seconds and flash
 * bytes must be bit-identical whether the pool runs with 1 worker
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

        // q1 and q6 scan and aggregate; q3, q4, q7, q9, q12 and q21
        // add joins, whose probes, compaction and tuple combine run on
        // the pool.
        for (int q : {1, 3, 4, 6, 7, 9, 12, 21}) {
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
            EXPECT_EQ(orderedRows(runs[0].result),
                      orderedRows(runs[1].result))
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

/**
 * Everything an install leaves behind: the bytes of every allocated
 * flash page, the layout (extents, page metas, stripe maps) and the
 * device and switch write ledgers.
 */
struct InstallImage
{
    std::vector<std::uint8_t> pages;
    std::vector<std::int64_t> layout;
    std::vector<std::int64_t> ledger;

    bool operator==(const InstallImage &) const = default;
};

void
addExtent(InstallImage &img, const FlashExtent &e)
{
    img.layout.insert(img.layout.end(),
                      {e.firstPage, e.numPages, e.byteLength});
}

void
addMeta(InstallImage &img, const ColumnLayoutMeta &m)
{
    img.layout.insert(img.layout.end(), {m.rows, m.encodedBytes});
    for (const PageBlockMeta &p : m.pages) {
        img.layout.insert(img.layout.end(),
                          {static_cast<std::int64_t>(p.codec),
                           p.firstRow, p.rows, p.byteOffset,
                           p.byteLen});
    }
}

void
addDevice(InstallImage &img, FlashDevice &dev, ControllerSwitch &sw)
{
    img.ledger.insert(img.ledger.end(),
                      {dev.bytesWritten(), dev.pagesWritten(),
                       dev.allocatedPages(),
                       sw.bytesWritten(FlashPort::Host),
                       sw.bytesWritten(FlashPort::Aquoman)});
    std::int64_t bytes = dev.allocatedPages() * dev.cfg().pageBytes;
    std::size_t at = img.pages.size();
    img.pages.resize(at + static_cast<std::size_t>(bytes));
    dev.read(FlashExtent{0, dev.allocatedPages(), bytes}, 0,
             img.pages.data() + at, bytes);
}

FlashConfig
installFlash()
{
    FlashConfig fc;
    fc.capacityBytes = 1ll << 30;
    return fc;
}

/** Values of @p c in rows [r0, r1) at their on-flash width. */
std::vector<std::uint8_t>
rawBytes(const Column &c, std::int64_t r0, std::int64_t r1)
{
    int width = columnTypeWidth(c.type());
    std::vector<std::uint8_t> out(static_cast<std::size_t>(r1 - r0)
                                  * width);
    for (std::int64_t r = r0; r < r1; ++r)
        std::memcpy(out.data() + (r - r0) * width, &c.data()[r], width);
    return out;
}

using Tables = std::vector<std::shared_ptr<const Table>>;

InstallImage
tableStoreImage(const Tables &tables)
{
    FlashDevice dev(installFlash());
    ControllerSwitch sw(dev);
    TableStore store(sw);
    InstallImage img;
    for (const auto &t : tables) {
        auto resident = store.store(t);
        const TableLayout &lay = resident->extents();
        for (const FlashExtent &e : lay.columnExtents)
            addExtent(img, e);
        addExtent(img, lay.heapExtent);
        for (const ColumnLayoutMeta &m : lay.columnEncodings)
            addMeta(img, m);
    }
    addDevice(img, dev, sw);
    return img;
}

/** The layout TableStore must produce, built one column at a time. */
InstallImage
tableStoreReference(const Tables &tables)
{
    FlashDevice dev(installFlash());
    ControllerSwitch sw(dev);
    InstallImage img;
    for (const auto &t : tables) {
        std::vector<ColumnLayoutMeta> metas;
        for (int ci = 0; ci < t->numColumns(); ++ci) {
            const Column &c = t->col(ci);
            if (!compressionEnabled()) {
                auto buf = rawBytes(c, 0, c.size());
                auto bytes = static_cast<std::int64_t>(buf.size());
                FlashExtent ext = dev.allocate(bytes);
                if (bytes > 0)
                    sw.write(FlashPort::Host, ext, 0, buf.data(), bytes);
                addExtent(img, ext);
                continue;
            }
            ColumnEncoding enc = encodeValues(
                c.data().data(), c.size(), columnTypeWidth(c.type()));
            FlashExtent ext =
                dev.allocate(enc.numPages() * kFlashPageBytes);
            ColumnLayoutMeta &m = metas.emplace_back();
            m.rows = enc.rows;
            m.encodedBytes = enc.encodedBytes;
            for (std::int64_t p = 0; p < enc.numPages(); ++p) {
                const EncodedPage &page = enc.pages[p];
                auto len = static_cast<std::int64_t>(page.bytes.size());
                sw.write(FlashPort::Host, ext, p * kFlashPageBytes,
                         page.bytes.data(), len);
                m.pages.push_back({page.codec, page.firstRow, page.rows,
                                   p * kFlashPageBytes, len});
            }
            addExtent(img, ext);
        }
        const auto &heap = t->strings().raw();
        auto heap_bytes = static_cast<std::int64_t>(heap.size());
        FlashExtent hext = dev.allocate(heap_bytes);
        if (heap_bytes > 0)
            sw.write(FlashPort::Host, hext, 0, heap.data(), heap_bytes);
        addExtent(img, hext);
        for (const ColumnLayoutMeta &m : metas)
            addMeta(img, m);
    }
    addDevice(img, dev, sw);
    return img;
}

constexpr int kShardDevices = 4;

/**
 * Install through a kShardDevices-device ShardedTableStore, or, with
 * @p reference, through a serial restatement of its stripe layout.
 */
InstallImage
shardedImage(const Tables &tables, bool reference)
{
    std::vector<std::unique_ptr<FlashDevice>> devs;
    std::vector<std::unique_ptr<ControllerSwitch>> sws;
    std::vector<ControllerSwitch *> ptrs;
    for (int d = 0; d < kShardDevices; ++d) {
        devs.push_back(std::make_unique<FlashDevice>(installFlash()));
        sws.push_back(std::make_unique<ControllerSwitch>(*devs.back()));
        ptrs.push_back(sws.back().get());
    }
    service::ShardedTableStore store(ptrs);
    InstallImage img;
    for (const auto &t : tables) {
        if (!reference) {
            service::TableSharding sh = store.store(*t);
            img.layout.insert(img.layout.end(), sh.rowsOnDevice.begin(),
                              sh.rowsOnDevice.end());
            for (const FlashExtent &e : sh.extents)
                addExtent(img, e);
            img.layout.insert(img.layout.end(),
                              {sh.totalRows, sh.totalBytes});
            continue;
        }
        std::int64_t rows = t->numRows();
        std::int64_t width = (rows + kShardDevices - 1) / kShardDevices;
        const auto &heap = t->strings().raw();
        auto heap_bytes = static_cast<std::int64_t>(heap.size());
        std::int64_t heap_at = 0, total = 0;
        std::vector<FlashExtent> exts(kShardDevices);
        for (int d = 0; d < kShardDevices; ++d) {
            std::int64_t r0 = std::min(rows, d * width);
            std::int64_t r1 = std::min(rows, (d + 1) * width);
            img.layout.push_back(r1 - r0);
            std::vector<std::uint8_t> buf;
            for (int ci = 0; ci < t->numColumns(); ++ci) {
                const Column &c = t->col(ci);
                if (!compressionEnabled()) {
                    auto raw = rawBytes(c, r0, r1);
                    buf.insert(buf.end(), raw.begin(), raw.end());
                    continue;
                }
                ColumnEncoding enc =
                    encodeValues(c.data().data() + r0, r1 - r0,
                                 columnTypeWidth(c.type()), r0);
                for (const EncodedPage &page : enc.pages) {
                    std::size_t at = buf.size();
                    buf.resize(at + kFlashPageBytes, 0);
                    std::memcpy(buf.data() + at, page.bytes.data(),
                                page.bytes.size());
                }
            }
            std::int64_t h = 0;
            if (rows > 0 && heap_bytes > 0) {
                h = d + 1 == kShardDevices
                    ? heap_bytes - heap_at
                    : heap_bytes * (r1 - r0) / rows;
            }
            auto col_bytes = static_cast<std::int64_t>(buf.size());
            if (col_bytes + h > 0) {
                exts[d] = devs[d]->allocate(col_bytes + h);
                if (col_bytes > 0)
                    sws[d]->write(FlashPort::Host, exts[d], 0,
                                  buf.data(), col_bytes);
                if (h > 0)
                    sws[d]->write(FlashPort::Host, exts[d], col_bytes,
                                  heap.data() + heap_at, h);
            }
            heap_at += h;
            total += col_bytes + h;
        }
        for (const FlashExtent &e : exts)
            addExtent(img, e);
        img.layout.insert(img.layout.end(), {rows, total});
    }
    for (int d = 0; d < kShardDevices; ++d)
        addDevice(img, *devs[d], *sws[d]);
    return img;
}

/**
 * Setup encodes columns and stripes on the pool but writes them
 * serially in column and device order: at 1 and 4 threads, compressed
 * and raw, an SF 0.01 install leaves exactly the flash pages, layout
 * and write ledgers of a one-column-at-a-time reference install.
 */
TEST(EncodingDeterminism, InstallMatchesSerialReference)
{
    bool saved = compressionEnabled();
    auto db = tpch::TpchDatabase::generate(tpch::TpchConfig{0.01, 7});
    Tables tables{db.region, db.nation,   db.supplier, db.customer,
                  db.part,   db.partsupp, db.orders,   db.lineitem};
    for (bool compress : {true, false}) {
        setCompressionEnabled(compress);
        ThreadPool::setGlobalParallelism(1);
        InstallImage table_ref = tableStoreReference(tables);
        InstallImage shard_ref = shardedImage(tables, true);
        for (int threads : {1, 4}) {
            ThreadPool::setGlobalParallelism(threads);
            // EXPECT, not ASSERT: the global modes are restored below.
            EXPECT_TRUE(tableStoreImage(tables) == table_ref)
                << "TableStore, compress " << compress << ", threads "
                << threads;
            EXPECT_TRUE(shardedImage(tables, false) == shard_ref)
                << "ShardedTableStore, compress " << compress
                << ", threads " << threads;
        }
    }
    ThreadPool::setGlobalParallelism(
        ThreadPool::configuredParallelism());
    setCompressionEnabled(saved);
}

} // namespace
} // namespace aquoman
