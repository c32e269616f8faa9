/**
 * @file
 * Persistence of column files onto the simulated flash device. With
 * compression enabled (the default, see common/compress_mode.hh) each
 * column becomes one extent of independently decodable encoded page
 * blocks — dictionary / RLE / frame-of-reference chosen per page, one
 * block per 8KB flash page — plus one raw extent
 * for the table's string heap. With AQUOMAN_COMPRESS=0 the layout is
 * the raw one: values at their on-flash width (4B for int32/date, 8B
 * for int64/decimal and varchar heap offsets), contiguous.
 *
 * Queries do not read these pages back: the host engine and the
 * AQUOMAN pipeline compute on the in-memory columns (the codecs are
 * lossless) and charge the bytes the reads would stream — encoded
 * page blocks when compressed — to the flash controller switch's
 * ledgers. FlashResidentTable::readColumnRange performs the physical
 * read and decode; tests use it to prove the persisted layout.
 */

#ifndef AQUOMAN_COLUMNSTORE_FLASH_LAYOUT_HH
#define AQUOMAN_COLUMNSTORE_FLASH_LAYOUT_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "columnstore/encoding.hh"
#include "columnstore/table.hh"
#include "common/compress_mode.hh"
#include "common/thread_pool.hh"
#include "flash/controller_switch.hh"

namespace aquoman {

/** Where one encoded page block lives inside its column extent. */
struct PageBlockMeta
{
    ColumnCodec codec = ColumnCodec::Raw;
    std::int64_t firstRow = 0;
    std::int64_t rows = 0;
    std::int64_t byteOffset = 0; ///< page-aligned offset in the extent
    std::int64_t byteLen = 0;    ///< encoded block bytes
};

/** Persisted encoding of one column (empty pages == stored raw). */
struct ColumnLayoutMeta
{
    std::int64_t rows = 0;
    std::int64_t encodedBytes = 0;
    std::vector<PageBlockMeta> pages;

    bool encoded() const { return !pages.empty(); }

    std::int64_t numPages() const
    {
        return static_cast<std::int64_t>(pages.size());
    }
};

/** Flash extents backing one persisted table. */
struct TableLayout
{
    std::vector<FlashExtent> columnExtents; ///< one per column
    FlashExtent heapExtent;                 ///< string heap bytes

    /**
     * Per-column page-block metadata (parallel to columnExtents) when
     * the table was persisted compressed; empty for the raw layout.
     */
    std::vector<ColumnLayoutMeta> columnEncodings;
};

/**
 * A table persisted to flash, with its page layout. The in-memory Table
 * remains the authority for values and strings; readColumnRange decodes
 * the real bytes from the device.
 */
class FlashResidentTable
{
  public:
    FlashResidentTable(std::shared_ptr<const Table> tbl, TableLayout lay)
        : tablePtr(std::move(tbl)), layout(std::move(lay))
    {
    }

    const Table &table() const { return *tablePtr; }
    const TableLayout &extents() const { return layout; }

    /**
     * Page-block metadata of column @p col, or nullptr when the
     * column is stored raw.
     */
    const ColumnLayoutMeta *
    encodingMeta(int col) const
    {
        if (static_cast<std::size_t>(col)
                >= layout.columnEncodings.size()
            || !layout.columnEncodings[col].encoded())
            return nullptr;
        return &layout.columnEncodings[col];
    }

    /**
     * Read rows [row_begin, row_end) of column @p col from flash through
     * @p sw on behalf of @p port, decoding into int64 values. Encoded
     * columns read and decode whole page blocks (only the blocks
     * overlapping the range); raw columns read the exact value bytes.
     */
    void
    readColumnRange(ControllerSwitch &sw, FlashPort port, int col,
                    std::int64_t row_begin, std::int64_t row_end,
                    std::vector<std::int64_t> &out) const
    {
        const Column &c = tablePtr->col(col);
        AQ_ASSERT(row_begin >= 0 && row_end <= c.size()
                  && row_begin <= row_end);
        std::int64_t n = row_end - row_begin;
        out.resize(n);
        if (n == 0)
            return;
        if (const ColumnLayoutMeta *meta = encodingMeta(col)) {
            readEncodedRange(sw, port, col, *meta, row_begin, row_end,
                             out);
            return;
        }
        int width = columnTypeWidth(c.type());
        std::vector<std::uint8_t> buf(n * width);
        sw.read(port, layout.columnExtents.at(col), row_begin * width,
                buf.data(), n * width);
        readRawValues(buf.data(), n, width, out.data());
    }

  private:
    void
    readEncodedRange(ControllerSwitch &sw, FlashPort port, int col,
                     const ColumnLayoutMeta &meta,
                     std::int64_t row_begin, std::int64_t row_end,
                     std::vector<std::int64_t> &out) const
    {
        const FlashExtent &ext = layout.columnExtents.at(col);
        // First block whose rows extend past row_begin.
        std::size_t lo = 0, hi = meta.pages.size();
        while (lo < hi) {
            std::size_t mid = (lo + hi) / 2;
            const PageBlockMeta &p = meta.pages[mid];
            if (p.firstRow + p.rows <= row_begin)
                lo = mid + 1;
            else
                hi = mid;
        }
        std::vector<std::uint8_t> buf;
        std::vector<std::int64_t> vals;
        for (std::size_t pi = lo; pi < meta.pages.size(); ++pi) {
            const PageBlockMeta &p = meta.pages[pi];
            if (p.firstRow >= row_end)
                break;
            buf.resize(p.byteLen);
            sw.read(port, ext, p.byteOffset, buf.data(), p.byteLen);
            vals.clear();
            decodePage(buf.data(), buf.size(), vals);
            AQ_ASSERT(static_cast<std::int64_t>(vals.size())
                          == p.rows,
                      "decoded row count disagrees with page meta");
            std::int64_t b = std::max(row_begin, p.firstRow);
            std::int64_t e =
                std::min(row_end, p.firstRow + p.rows);
            for (std::int64_t r = b; r < e; ++r)
                out[r - row_begin] = vals[r - p.firstRow];
        }
    }

    std::shared_ptr<const Table> tablePtr;
    TableLayout layout;
};

/** Writes tables onto a flash device and hands back resident handles. */
class TableStore
{
  public:
    explicit TableStore(ControllerSwitch &sw_) : sw(sw_) {}

    /**
     * Persist @p table (host-port writes: loading a database is a host
     * activity) and return the flash-resident handle.
     */
    std::shared_ptr<FlashResidentTable>
    store(std::shared_ptr<const Table> table)
    {
        table->checkConsistent();
        bool compress = compressionEnabled();
        // The columns encode independently on the pool; their extents
        // are then allocated and written serially in column order, so
        // the layout and the write ledger do not depend on the thread
        // count.
        std::vector<ColumnEncoding> encs(
            compress ? table->numColumns() : 0);
        parallelFor(0, static_cast<std::int64_t>(encs.size()), 1,
                    [&](std::int64_t c0, std::int64_t c1) {
                        for (std::int64_t i = c0; i < c1; ++i) {
                            const Column &c =
                                table->col(static_cast<int>(i));
                            encs[i] = encodeValues(
                                c.data().data(), c.size(),
                                columnTypeWidth(c.type()));
                        }
                    });
        TableLayout layout;
        FlashDevice &dev = sw.dev();
        for (int i = 0; i < table->numColumns(); ++i) {
            const Column &c = table->col(i);
            if (compress) {
                storeEncoded(dev, std::move(encs[i]), layout);
                continue;
            }
            std::int64_t bytes = c.storedBytes();
            FlashExtent ext = dev.allocate(bytes);
            std::vector<std::uint8_t> buf;
            appendRawValues(buf, c.data().data(), c.size(),
                            columnTypeWidth(c.type()));
            if (bytes > 0)
                sw.write(FlashPort::Host, ext, 0, buf.data(), bytes);
            layout.columnExtents.push_back(ext);
        }
        const auto &heap = table->strings().raw();
        layout.heapExtent = dev.allocate(
            static_cast<std::int64_t>(heap.size()));
        if (!heap.empty()) {
            sw.write(FlashPort::Host, layout.heapExtent, 0, heap.data(),
                     static_cast<std::int64_t>(heap.size()));
        }
        return std::make_shared<FlashResidentTable>(std::move(table),
                                                    std::move(layout));
    }

  private:
    /** Write @p enc's page blocks, one block per flash page. */
    void
    storeEncoded(FlashDevice &dev, ColumnEncoding enc,
                 TableLayout &layout)
    {
        FlashExtent ext =
            dev.allocate(enc.numPages() * kFlashPageBytes);
        ColumnLayoutMeta meta;
        meta.rows = enc.rows;
        meta.encodedBytes = enc.encodedBytes;
        for (std::int64_t p = 0; p < enc.numPages(); ++p) {
            const EncodedPage &page = enc.pages[p];
            PageBlockMeta pm;
            pm.codec = page.codec;
            pm.firstRow = page.firstRow;
            pm.rows = page.rows;
            pm.byteOffset = p * kFlashPageBytes;
            pm.byteLen =
                static_cast<std::int64_t>(page.bytes.size());
            sw.write(FlashPort::Host, ext, pm.byteOffset,
                     page.bytes.data(), pm.byteLen);
            meta.pages.push_back(pm);
        }
        layout.columnExtents.push_back(ext);
        layout.columnEncodings.resize(layout.columnExtents.size());
        layout.columnEncodings.back() = std::move(meta);
    }

    ControllerSwitch &sw;
};

} // namespace aquoman

#endif // AQUOMAN_COLUMNSTORE_FLASH_LAYOUT_HH
