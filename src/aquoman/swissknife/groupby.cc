#include "aquoman/swissknife/groupby.hh"

#include <algorithm>
#include <limits>
#include <numeric>

namespace aquoman {

namespace {

constexpr std::uint64_t kFnvBasis = 1469598103934665603ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

/** Rows hashed per column pass before the in-order claim loop. */
constexpr std::int64_t kHashMorsel = 1024;

/** FNV-1a over the eight bytes of one identifier lane, low byte first. */
std::uint64_t
fnvLane(std::uint64_t h, std::int64_t lane)
{
    const auto u = static_cast<std::uint64_t>(lane);
    for (int b = 0; b < 8; ++b) {
        h ^= (u >> (8 * b)) & 0xff;
        h *= kFnvPrime;
    }
    return h;
}

bool
sameId(const std::int64_t *id, std::span<const std::int64_t *const> cols,
       std::int64_t r)
{
    for (std::size_t l = 0; l < cols.size(); ++l) {
        if (id[l] != cols[l][r])
            return false;
    }
    return true;
}

void
copyId(std::int64_t *id, std::span<const std::int64_t *const> cols,
       std::int64_t r)
{
    for (std::size_t l = 0; l < cols.size(); ++l)
        id[l] = cols[l][r];
}

} // namespace

GroupByAccelerator::GroupByAccelerator(const AquomanConfig &cfg,
                                       int id_width,
                                       std::vector<HwAgg> aggs)
    : idWidth(id_width), numAggs(static_cast<int>(aggs.size())),
      aggKinds(std::move(aggs)), spill(id_width)
{
    AQ_ASSERT(idWidth >= 0);
    AQ_ASSERT(numAggs <= cfg.aggSlotsPerBucket,
              "bucket supports ", cfg.aggSlotsPerBucket,
              " aggregate slots, requested ", numAggs);
    AQ_ASSERT(cfg.groupByBuckets > 0);
    idTooWide = idWidth * 8 > cfg.groupIdBytes;
    const auto nb = static_cast<std::size_t>(cfg.groupByBuckets);
    used.assign(nb, 0);
    sramIds.assign(nb * idWidth, 0);
    sramAggs.assign(nb * numAggs, 0);
    sramRows.assign(nb, 0);
}

void
GroupByAccelerator::initAggs(std::int64_t *agg) const
{
    for (int i = 0; i < numAggs; ++i) {
        switch (aggKinds[i]) {
          case HwAgg::Min:
            agg[i] = std::numeric_limits<std::int64_t>::max();
            break;
          case HwAgg::Max:
            agg[i] = std::numeric_limits<std::int64_t>::min();
            break;
          default:
            agg[i] = 0;
            break;
        }
    }
}

void
GroupByAccelerator::applyRow(std::int64_t *agg,
                             std::span<const std::int64_t *const> val_cols,
                             std::int64_t r) const
{
    for (int i = 0; i < numAggs; ++i) {
        switch (aggKinds[i]) {
          case HwAgg::Sum: agg[i] += val_cols[i][r]; break;
          case HwAgg::Min: agg[i] = std::min(agg[i], val_cols[i][r]); break;
          case HwAgg::Max: agg[i] = std::max(agg[i], val_cols[i][r]); break;
          case HwAgg::Cnt: agg[i] += 1; break;
        }
    }
}

void
GroupByAccelerator::update(std::span<const std::int64_t *const> id_cols,
                           std::span<const std::int64_t *const> val_cols,
                           std::int64_t rows)
{
    AQ_ASSERT(static_cast<int>(id_cols.size()) == idWidth);
    AQ_ASSERT(static_cast<int>(val_cols.size()) == numAggs);
    for (int i = 0; i < numAggs; ++i) {
        AQ_ASSERT(aggKinds[i] == HwAgg::Cnt || val_cols[i] || rows == 0,
                  "aggregate slot ", i, " has no value column");
    }
    std::uint64_t hashes[kHashMorsel];
    for (std::int64_t base = 0; base < rows; base += kHashMorsel) {
        const std::int64_t n = std::min(kHashMorsel, rows - base);
        // Hashing is order-free, so it runs a column at a time; claims,
        // compares and spills below stay in row order.
        std::fill_n(hashes, n, kFnvBasis);
        for (const std::int64_t *col : id_cols) {
            for (std::int64_t i = 0; i < n; ++i)
                hashes[i] = fnvLane(hashes[i], col[base + i]);
        }
        for (std::int64_t i = 0; i < n; ++i)
            accumulate(id_cols, val_cols, base + i, hashes[i]);
    }
    runStats.rowsIn += rows;
}

void
GroupByAccelerator::update(const std::vector<std::int64_t> &group_id,
                           const std::vector<std::int64_t> &values)
{
    std::vector<const std::int64_t *> ids, vals;
    for (const std::int64_t &v : group_id)
        ids.push_back(&v);
    for (const std::int64_t &v : values)
        vals.push_back(&v);
    update(ids, vals, 1);
}

void
GroupByAccelerator::accumulate(std::span<const std::int64_t *const> id_cols,
                               std::span<const std::int64_t *const> val_cols,
                               std::int64_t r, std::uint64_t hash)
{
    const std::size_t b = hash % used.size();
    std::int64_t *id = sramIds.data() + b * idWidth;
    if (!used[b]) {
        used[b] = 1;
        copyId(id, id_cols, r);
        initAggs(sramAggs.data() + b * numAggs);
        ++runStats.groupsInSram;
    } else if (!sameId(id, id_cols, r)) {
        // Hash collision: this row belongs to a spill-over group the
        // x86 host accumulates (the device keeps streaming at line
        // rate).
        ++runStats.rowsSpilled;
        std::int64_t g = spillGroup(id_cols, r, hash);
        applyRow(spillAggs.data() + g * numAggs, val_cols, r);
        ++spillRows[g];
        return;
    }
    applyRow(sramAggs.data() + b * numAggs, val_cols, r);
    ++sramRows[b];
}

std::int64_t
GroupByAccelerator::spillGroup(std::span<const std::int64_t *const> id_cols,
                               std::int64_t r, std::uint64_t hash)
{
    const auto [g, fresh] = spill.insert(id_cols, r, hash);
    if (fresh) {
        spillAggs.resize(spillAggs.size() + numAggs);
        initAggs(spillAggs.data() + g * numAggs);
        spillRows.push_back(0);
        ++runStats.groupsSpilled;
    }
    return g;
}

GroupColumns
GroupByAccelerator::finish() const
{
    const std::int64_t total =
        runStats.groupsInSram + runStats.groupsSpilled;
    GroupColumns out;
    out.ids.resize(idWidth);
    out.aggregates.resize(numAggs);
    for (auto &c : out.ids)
        c.reserve(total);
    for (auto &c : out.aggregates)
        c.reserve(total);
    out.rows.reserve(total);
    auto emit = [&](const std::int64_t *id, const std::int64_t *agg,
                    std::int64_t rows) {
        for (int l = 0; l < idWidth; ++l)
            out.ids[l].push_back(id[l]);
        for (int i = 0; i < numAggs; ++i)
            out.aggregates[i].push_back(agg[i]);
        out.rows.push_back(rows);
    };
    for (std::size_t b = 0; b < used.size(); ++b) {
        if (used[b])
            emit(sramIds.data() + b * idWidth,
                 sramAggs.data() + b * numAggs, sramRows[b]);
    }
    out.sramGroups = runStats.groupsInSram;

    auto spill_id = [&](std::int32_t g) { return spill.key(g); };
    std::vector<std::int32_t> order(spill.size());
    std::iota(order.begin(), order.end(), 0);
    auto id_less = [&](std::int32_t a, std::int32_t b) {
        return std::lexicographical_compare(spill_id(a),
                                            spill_id(a) + idWidth,
                                            spill_id(b),
                                            spill_id(b) + idWidth);
    };
    // Spill groups are numbered in first-seen order, which is already
    // ascending for clustered keys (q18's lineitem by orderkey); the
    // check is one pass, a sort of sorted input is several.
    if (!std::is_sorted(order.begin(), order.end(), id_less))
        std::sort(order.begin(), order.end(), id_less);
    for (std::int32_t g : order)
        emit(spill_id(g), spillAggs.data() + std::int64_t{g} * numAggs,
             spillRows[g]);
    return out;
}

} // namespace aquoman
