/**
 * @file
 * Sharded persistence of column files across a service-owned array of
 * simulated SSDs. Each table is cut into fixed-width contiguous row
 * stripes (one per device, in device order); stripe widths depend only
 * on the row count and device count, never on thread count, so a
 * sharding is part of the data definition and fully deterministic.
 * Device d receives one extent holding its stripe's on-flash bytes
 * (column slices at their stored width plus the proportional string
 * heap share), written through that device's controller-switch host
 * port — loading a database is a host activity, and the per-device
 * write ledgers and capacity pressure are real.
 *
 * The stripe map is what the Table-Task scheduler consumes: a Table
 * Task that streams a single base table splits into per-device
 * subtasks proportional to the stripe row counts.
 */

#ifndef AQUOMAN_SERVICE_SHARDED_STORE_HH
#define AQUOMAN_SERVICE_SHARDED_STORE_HH

#include <cstdint>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "columnstore/encoding.hh"
#include "columnstore/table.hh"
#include "common/compress_mode.hh"
#include "common/thread_pool.hh"
#include "flash/controller_switch.hh"

namespace aquoman::service {

/** Row-stripe placement of one table over the device array. */
struct TableSharding
{
    /** Rows of the table resident on each device. */
    std::vector<std::int64_t> rowsOnDevice;

    /** The extent backing each device's stripe (numPages 0 if empty). */
    std::vector<FlashExtent> extents;

    std::int64_t totalRows = 0;
    std::int64_t totalBytes = 0;

    /** Fraction of the table's rows held by device @p d. */
    double
    fraction(int d) const
    {
        if (totalRows <= 0)
            return d == 0 ? 1.0 : 0.0;
        return static_cast<double>(rowsOnDevice[d]) / totalRows;
    }
};

/** Persists tables as row stripes across an array of SSDs. */
class ShardedTableStore
{
  public:
    explicit ShardedTableStore(std::vector<ControllerSwitch *> switches)
        : devices(std::move(switches))
    {
    }

    int numDevices() const { return static_cast<int>(devices.size()); }

    /**
     * Stripe @p t across the array: device d holds rows
     * [d*W, (d+1)*W) for the fixed width W = ceil(rows / M). Real
     * bytes are written so device capacity and load traffic are
     * enforced; reads during execution stay in-memory (the device
     * model accounts streamed pages analytically).
     */
    TableSharding
    store(const Table &t)
    {
        int m = numDevices();
        TableSharding sh;
        sh.totalRows = t.numRows();
        sh.rowsOnDevice.resize(m, 0);
        sh.extents.resize(m);
        std::int64_t width =
            (sh.totalRows + m - 1) / std::max(1, m);
        auto stripe_begin = [&](std::int64_t d) {
            return std::min<std::int64_t>(sh.totalRows, d * width);
        };
        // The stripes encode independently on the pool; each device's
        // extent is then allocated and written serially, in device
        // order, so the ledgers do not depend on the thread count.
        std::vector<std::vector<std::uint8_t>> stripes(m);
        parallelFor(0, m, 1, [&](std::int64_t d0, std::int64_t d1) {
            for (std::int64_t d = d0; d < d1; ++d)
                stripes[d] = encodeStripe(t, stripe_begin(d),
                                          stripe_begin(d + 1));
        });
        const auto &heap = t.strings().raw();
        auto heap_bytes = static_cast<std::int64_t>(heap.size());
        std::int64_t heap_written = 0;
        for (int d = 0; d < m; ++d) {
            sh.rowsOnDevice[d] = stripe_begin(d + 1) - stripe_begin(d);
            // Heap share: proportional floor split, remainder on the
            // last stripe so the shares sum to the heap exactly.
            std::int64_t h = 0;
            if (sh.totalRows > 0 && heap_bytes > 0) {
                h = d + 1 == m
                    ? heap_bytes - heap_written
                    : heap_bytes * sh.rowsOnDevice[d] / sh.totalRows;
                heap_written += h;
            }
            std::vector<std::uint8_t> buf = std::move(stripes[d]);
            std::int64_t col_bytes =
                static_cast<std::int64_t>(buf.size());
            if (col_bytes + h == 0)
                continue;
            FlashExtent ext =
                devices[d]->dev().allocate(col_bytes + h);
            if (col_bytes > 0)
                devices[d]->write(FlashPort::Host, ext, 0, buf.data(),
                                  col_bytes);
            if (h > 0) {
                devices[d]->write(FlashPort::Host, ext, col_bytes,
                                  heap.data() + heap_written - h, h);
            }
            sh.extents[d] = ext;
            sh.totalBytes += col_bytes + h;
        }
        shardings[t.name()] = sh;
        return sh;
    }

    bool has(const std::string &table) const
    {
        return shardings.count(table) != 0;
    }

    const TableSharding &
    sharding(const std::string &table) const
    {
        auto it = shardings.find(table);
        AQ_ASSERT(it != shardings.end(), "table '", table,
                  "' is not sharded");
        return it->second;
    }

  private:
    /**
     * On-flash encoding of rows [r0, r1): column slices in order.
     * With compression enabled each slice becomes encoded page blocks
     * (the same codecs TableStore persists, page-aligned so every
     * block owns one flash page); otherwise raw column slices at
     * their stored width.
     */
    static std::vector<std::uint8_t>
    encodeStripe(const Table &t, std::int64_t r0, std::int64_t r1)
    {
        std::vector<std::uint8_t> buf;
        bool compress = compressionEnabled();
        for (int ci = 0; ci < t.numColumns(); ++ci) {
            const Column &c = t.col(ci);
            int width = columnTypeWidth(c.type());
            if (compress) {
                ColumnEncoding enc = encodeValues(
                    c.data().data() + r0, r1 - r0, width, r0);
                for (const EncodedPage &page : enc.pages) {
                    std::size_t at = buf.size();
                    buf.resize(at + kFlashPageBytes, 0);
                    std::memcpy(buf.data() + at, page.bytes.data(),
                                page.bytes.size());
                }
                continue;
            }
            appendRawValues(buf, c.data().data() + r0, r1 - r0, width);
        }
        return buf;
    }

    std::vector<ControllerSwitch *> devices;
    std::map<std::string, TableSharding> shardings;
};

} // namespace aquoman::service

#endif // AQUOMAN_SERVICE_SHARDED_STORE_HH
