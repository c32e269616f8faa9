/**
 * @file
 * The device cost model: every rule that turns AQUOMAN device work into
 * modelled seconds or modelled flash bytes. The executor (device.cc)
 * runs the operators and records what each Table Task did as a list of
 * small typed WorkItems; DeviceCostModel prices one item at a time.
 * Pricing a task's work list in order reproduces the executor's stage
 * seconds and flash bytes bitwise, so a recorded run can be re-priced
 * under another configuration without executing it again.
 */

#ifndef AQUOMAN_AQUOMAN_COST_MODEL_HH
#define AQUOMAN_AQUOMAN_COST_MODEL_HH

#include <cstdint>
#include <type_traits>

#include "aquoman/config.hh"
#include "aquoman/swissknife/streaming_sorter.hh"
#include "flash/flash_config.hh"
#include "obs/profile.hh"

namespace aquoman {

/** What one unit of device work did. */
enum class WorkKind : std::uint8_t
{
    Flash,     ///< stream one base column (and its heap) off flash
    Transform, ///< run a Row Transformation Program over rows
    Sort,      ///< streaming-sorter pass over <key, RowID> records
    Merge,     ///< merge-intersect two sorted <key, RowID> streams
    GroupBy,   ///< aggregate-input transform feeding the group-by
};

/**
 * One unit of device work, as the executor observed it. Plain and
 * trivially copyable; each kind reads only the fields noted. Built with
 * designated initializers.
 */
struct WorkItem
{
    WorkKind kind = WorkKind::Flash;
    bool folded = false;         ///< Sort: blocks folded into one run
    std::int32_t width = 0;      ///< Flash: raw value width in bytes
    std::int32_t programLen = 0; ///< Transform, GroupBy: longest program
    std::int32_t pages = 0;      ///< Flash: encoded page blocks (0: raw)

    /**
     * Flash: selected tuples; Transform, GroupBy: rows through the PEs;
     * Sort, Merge: <key, RowID> records.
     */
    std::int64_t rows = 0;

    std::int64_t tableRows = 0;    ///< Flash: rows of the base column
    std::int64_t heapBytes = 0;    ///< Flash: varchar heap (0 otherwise)
    std::int64_t encodedBytes = 0; ///< Flash: bytes of the encoded pages
    std::int64_t spillRows = 0;    ///< GroupBy: rows spilled to the host
    double alternation = 0.0;      ///< Sort: merge-scheduler alternation

    bool operator==(const WorkItem &) const = default;
};
static_assert(std::is_trivially_copyable_v<WorkItem>);

/** Price of one WorkItem: its seconds attributed to one resource. */
struct WorkPrice
{
    obs::PipeStage stage = obs::PipeStage::FlashRead;
    double seconds = 0.0;
    std::int64_t flashBytes = 0;
};

/** Prices device work from the device and flash configurations. */
class DeviceCostModel
{
  public:
    DeviceCostModel(const AquomanConfig &cfg, const FlashConfig &flash);

    /** Seconds, stage and flash bytes of @p w. */
    WorkPrice price(const WorkItem &w) const;

  private:
    WorkPrice priceFlash(const WorkItem &w) const;

    std::int64_t pageBytes;
    double readBandwidth;
    double processingRate;
    double clockHz;
    StreamingSorter sorter;
};

} // namespace aquoman

#endif // AQUOMAN_AQUOMAN_COST_MODEL_HH
