#include "aquoman/cost_model.hh"

#include <algorithm>
#include <cmath>

#include "aquoman/swissknife/kv.hh"
#include "common/types.hh"

namespace aquoman {

namespace {

/**
 * Host spill drain rate: spill-over accumulation runs on the host
 * concurrently, and the device is not slowed as long as the host
 * keeps up (~200M lookup-accumulates/s, Sec. VI-E).
 */
constexpr double kHostSpillRowsPerSec = 200e6;

/** Page-granular flash bytes to read @p selected of @p total rows. */
std::int64_t
pageTouchBytes(std::int64_t page, std::int64_t total_rows, int width,
               std::int64_t selected)
{
    if (total_rows <= 0 || selected <= 0)
        return 0;
    std::int64_t rpp = std::max<std::int64_t>(1, page / width);
    double pages = std::ceil(static_cast<double>(total_rows) / rpp);
    double d = std::min(1.0, static_cast<double>(selected) / total_rows);
    double touched = pages * (1.0 - std::pow(1.0 - d,
                                             static_cast<double>(rpp)));
    auto bytes = static_cast<std::int64_t>(touched * page);
    return std::max<std::int64_t>(bytes, selected * width);
}

/**
 * Encoded analogue of pageTouchBytes: flash bytes to read @p selected
 * of the @p rows rows held by @p pages encoded page blocks
 * (@p encoded_bytes total). Same probabilistic page-touch shape,
 * floored at the selection's share of the encoded payload.
 */
std::int64_t
encodedTouchBytes(std::int64_t page, std::int64_t pages, std::int64_t rows,
                  std::int64_t encoded_bytes, std::int64_t selected)
{
    if (rows <= 0 || selected <= 0 || pages <= 0)
        return 0;
    double d = std::min(1.0, static_cast<double>(selected) / rows);
    double rpp = static_cast<double>(rows) / pages;
    double touched = pages * (1.0 - std::pow(1.0 - d, rpp));
    auto bytes = static_cast<std::int64_t>(touched * page);
    auto floor_bytes = static_cast<std::int64_t>(
        static_cast<double>(encoded_bytes) * d);
    return std::max(bytes, floor_bytes);
}

} // namespace

DeviceCostModel::DeviceCostModel(const AquomanConfig &cfg,
                                 const FlashConfig &flash)
    : pageBytes(flash.pageBytes), readBandwidth(flash.readBandwidth),
      processingRate(cfg.processingRate), clockHz(cfg.clockHz),
      sorter(cfg)
{
}

/**
 * Flash streams the selection's page-touch bytes (encoded pages for
 * compressed columns) plus the varchar heap at the same density. The
 * Row Selector's CPEs evaluate the encoded stream directly (every page
 * codec is order-preserving), so it is priced on the same bytes. An
 * encoded stream decodes its logical bytes at the pipeline's line rate
 * (PipeStage::Decode); a raw stream has logical == bytes and no decode
 * term. The slowest of the three bounds the stream.
 */
WorkPrice
DeviceCostModel::priceFlash(const WorkItem &w) const
{
    double density = w.tableRows > 0
        ? std::min(1.0, static_cast<double>(w.rows) / w.tableRows)
        : 0.0;
    auto heap = static_cast<std::int64_t>(w.heapBytes * density);
    std::int64_t logical =
        pageTouchBytes(pageBytes, w.tableRows, w.width, w.rows) + heap;
    std::int64_t bytes = w.pages > 0
        ? encodedTouchBytes(pageBytes, w.pages, w.tableRows,
                            w.encodedBytes, w.rows) + heap
        : logical;

    double flash_t = static_cast<double>(bytes) / readBandwidth;
    double sel_t = static_cast<double>(bytes) / processingRate;
    double dec_t = logical > bytes
        ? static_cast<double>(logical) / processingRate : 0.0;
    WorkPrice p;
    p.flashBytes = bytes;
    p.seconds = std::max(std::max(flash_t, dec_t), sel_t);
    if (sel_t > flash_t)
        p.stage = obs::PipeStage::Selector;
    if (dec_t > flash_t && dec_t > sel_t)
        p.stage = obs::PipeStage::Decode;
    return p;
}

WorkPrice
DeviceCostModel::price(const WorkItem &w) const
{
    // Row Transformer: one pass per row vector per program instruction.
    double vectors = std::ceil(static_cast<double>(w.rows) / kRowVectorSize);
    double transform_t = vectors * w.programLen / clockHz;
    WorkPrice p;
    switch (w.kind) {
      case WorkKind::Flash:
        return priceFlash(w);
      case WorkKind::Transform:
        p.stage = obs::PipeStage::Transformer;
        p.seconds = transform_t;
        break;
      case WorkKind::Sort:
        p.stage = obs::PipeStage::Swissknife;
        p.seconds = sorter.modelSeconds(w.rows * kKvBytes, w.alternation,
                                        w.folded);
        break;
      case WorkKind::Merge:
        p.stage = obs::PipeStage::Swissknife;
        p.seconds = static_cast<double>(w.rows) * kKvBytes
            / StreamingSorter::kDatapathBytesPerSec;
        break;
      case WorkKind::GroupBy: {
        // The group-by accelerator (a Swissknife unit) bounds the task
        // only when the host spill drain outruns the transform feed.
        double spill_t = w.spillRows / kHostSpillRowsPerSec;
        p.stage = transform_t >= spill_t ? obs::PipeStage::Transformer
                                         : obs::PipeStage::Swissknife;
        p.seconds = std::max(transform_t, spill_t);
        break;
      }
    }
    return p;
}

} // namespace aquoman
