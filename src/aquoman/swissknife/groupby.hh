/**
 * @file
 * Aggregate Group-By accelerator (Sec. VI-C, Fig. 12). Group identifier
 * vectors are hashed into a 1024-bucket table; each bucket holds one
 * group identifier (max 16B) and up to eight aggregate slots
 * (sum/min/max/cnt) in banked SRAM. On a hash collision one group keeps
 * the bucket and the other becomes a spill-over group whose rows are
 * shipped to the x86 host (Sec. VI-E).
 *
 * Storage is flat: the SRAM buckets are structure-of-arrays (a used
 * flag array plus bucket-major id, aggregate and row-count arrays) and
 * the host spill groups are ids of a KeyTable, with group-major
 * aggregate and row-count arrays. Rows arrive column by column.
 */

#ifndef AQUOMAN_AQUOMAN_SWISSKNIFE_GROUPBY_HH
#define AQUOMAN_AQUOMAN_SWISSKNIFE_GROUPBY_HH

#include <cstdint>
#include <span>
#include <vector>

#include "aquoman/config.hh"
#include "common/key_table.hh"
#include "common/logging.hh"

namespace aquoman {

/** Hardware aggregate kinds one SRAM slot supports. */
enum class HwAgg { Sum, Min, Max, Cnt };

/**
 * Finished groups as columns. Drain order is a contract: groups
 * [0, sramGroups) are the used SRAM buckets in bucket-index order, the
 * rest are the host-accumulated spill groups sorted ascending by
 * identifier (lexicographic over signed lanes).
 */
struct GroupColumns
{
    std::vector<std::vector<std::int64_t>> ids;        ///< [lane][group]
    std::vector<std::vector<std::int64_t>> aggregates; ///< [slot][group]
    /**
     * Rows accumulated per group. Every slot sees every row of its
     * group, so this is also each slot's contributing-row count.
     */
    std::vector<std::int64_t> rows;
    std::int64_t sramGroups = 0;

    std::int64_t
    size() const
    {
        return static_cast<std::int64_t>(rows.size());
    }
};

/** Statistics of one Aggregate Group-By run. */
struct GroupByStats
{
    std::int64_t rowsIn = 0;
    std::int64_t rowsSpilled = 0;   ///< rows shipped to the host
    std::int64_t groupsInSram = 0;
    std::int64_t groupsSpilled = 0; ///< distinct spill-over groups
};

/** The Aggregate Group-By accelerator. */
class GroupByAccelerator
{
  public:
    /**
     * @param cfg       device configuration (buckets, id bytes, slots)
     * @param id_width  number of 64-bit group-identifier lanes
     * @param aggs      aggregate kinds, one per aggregate column
     */
    GroupByAccelerator(const AquomanConfig &cfg, int id_width,
                       std::vector<HwAgg> aggs);

    /**
     * Accumulate @p rows rows, fed column by column. Bucket claims,
     * compares and spill decisions follow row order.
     * @param id_cols  id_width identifier columns
     * @param val_cols one value column per aggregate slot; the column
     *                 of a Cnt slot is never read and may be null
     */
    void update(std::span<const std::int64_t *const> id_cols,
                std::span<const std::int64_t *const> val_cols,
                std::int64_t rows);

    /** Accumulate one row: a one-row column feed. */
    void update(const std::vector<std::int64_t> &group_id,
                const std::vector<std::int64_t> &values);

    /** Drain SRAM groups then spill groups (see GroupColumns). */
    GroupColumns finish() const;

    const GroupByStats &stats() const { return runStats; }

    /** True if the identifier width exceeds the 16B hardware limit. */
    bool idWidthExceedsHardware() const { return idTooWide; }

  private:
    void accumulate(std::span<const std::int64_t *const> id_cols,
                    std::span<const std::int64_t *const> val_cols,
                    std::int64_t r, std::uint64_t hash);
    std::int64_t spillGroup(std::span<const std::int64_t *const> id_cols,
                            std::int64_t r, std::uint64_t hash);
    void initAggs(std::int64_t *agg) const;
    void applyRow(std::int64_t *agg,
                  std::span<const std::int64_t *const> val_cols,
                  std::int64_t r) const;

    int idWidth;
    int numAggs;
    bool idTooWide;
    std::vector<HwAgg> aggKinds;

    /** SRAM buckets, bucket-major. */
    std::vector<std::uint8_t> used;
    std::vector<std::int64_t> sramIds;  ///< idWidth lanes per bucket
    std::vector<std::int64_t> sramAggs; ///< numAggs slots per bucket
    std::vector<std::int64_t> sramRows;

    /** Host spill groups: KeyTable ids index the group-major arrays. */
    KeyTable spill;
    std::vector<std::int64_t> spillAggs;
    std::vector<std::int64_t> spillRows;

    GroupByStats runStats;
};

} // namespace aquoman

#endif // AQUOMAN_AQUOMAN_SWISSKNIFE_GROUPBY_HH
