/**
 * @file
 * Flat open-addressing table over keys of int64 lanes: the hash table
 * behind the host engine's hash joins and group-bys and the Swissknife
 * Group-By's host spill. It numbers distinct keys 0, 1, 2, ... in
 * first-seen order; callers keep whatever they attach to a key (a join
 * chain head, a group's accumulators) in arrays indexed by that id.
 *
 * A key is read from row r of one column per lane, and callers supply
 * its 64-bit hash. The slot array holds ids plus 32 hash bits and
 * doubles whenever it would pass half full, so probe runs stay short;
 * keys and full hashes are stored once per id, in id order.
 */

#ifndef AQUOMAN_COMMON_KEY_TABLE_HH
#define AQUOMAN_COMMON_KEY_TABLE_HH

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <span>
#include <utility>
#include <vector>

#include "common/logging.hh"

namespace aquoman {

/** Lane columns of a key: lane l of row r is cols[l][r]. */
using KeyLanes = std::span<const std::int64_t *const>;

/** Open-addressing table giving keys of int64 lanes first-seen ids. */
class KeyTable
{
  public:
    /** A table over keys of @p lanes lanes (0 lanes: one empty key). */
    explicit KeyTable(int lanes) : numLanes(lanes)
    {
        AQ_ASSERT(lanes >= 0);
    }

    /** Distinct keys held; their ids are 0 .. size() - 1. */
    std::int64_t
    size() const
    {
        return static_cast<std::int64_t>(hashes.size());
    }

    /** The numLanes lanes of key @p id. */
    const std::int64_t *
    key(std::int64_t id) const
    {
        return keys.data() + id * numLanes;
    }

    /**
     * Id of the key at row @p r of @p cols, whose hash is @p hash, and
     * whether it is new. A new key gets id size().
     */
    std::pair<std::int64_t, bool>
    insert(KeyLanes cols, std::int64_t r, std::uint64_t hash)
    {
        if (2 * (hashes.size() + 1) > slots.size())
            grow();
        const std::size_t mask = slots.size() - 1;
        const auto tag = static_cast<std::uint32_t>(hash >> 32);
        std::size_t p = homeSlot(hash);
        for (;; p = (p + 1) & mask) {
            const Slot s = slots[p];
            if (s.id < 0)
                break;
            if (s.tag == tag && sameKey(s.id, cols, r))
                return {s.id, false};
        }
        const std::int64_t id = size();
        AQ_ASSERT(id < std::numeric_limits<std::int32_t>::max(),
                  "key table exceeds int32 ids");
        slots[p] = {static_cast<std::int32_t>(id), tag};
        hashes.push_back(hash);
        for (int l = 0; l < numLanes; ++l)
            keys.push_back(cols[l][r]);
        return {id, true};
    }

    /**
     * Id of the key at row @p r of @p cols (hash @p hash), or -1 when
     * the table does not hold it. Read-only, so any number of threads
     * may probe while no one inserts.
     */
    std::int64_t
    find(KeyLanes cols, std::int64_t r, std::uint64_t hash) const
    {
        if (slots.empty())
            return -1;
        const std::size_t mask = slots.size() - 1;
        const auto tag = static_cast<std::uint32_t>(hash >> 32);
        for (std::size_t p = homeSlot(hash);; p = (p + 1) & mask) {
            const Slot s = slots[p];
            if (s.id < 0)
                return -1;
            if (s.tag == tag && sameKey(s.id, cols, r))
                return s.id;
        }
    }

  private:
    struct Slot
    {
        std::int32_t id = -1; ///< key id, -1 when empty
        std::uint32_t tag = 0; ///< high 32 bits of the key's hash
    };

    /**
     * The top bits of hash * 2^64/phi (Fibonacci hashing): every hash
     * bit reaches the slot index, so callers whose low bits already
     * chose something else (the Swissknife's SRAM bucket) still spread.
     */
    std::size_t
    homeSlot(std::uint64_t hash) const
    {
        return (hash * 0x9e3779b97f4a7c15ull) >> shift;
    }

    bool
    sameKey(std::int64_t id, KeyLanes cols, std::int64_t r) const
    {
        const std::int64_t *k = key(id);
        for (int l = 0; l < numLanes; ++l) {
            if (k[l] != cols[l][r])
                return false;
        }
        return true;
    }

    void
    grow()
    {
        const std::size_t cap = std::max<std::size_t>(64, 2 * slots.size());
        slots.assign(cap, Slot{});
        shift = 64 - std::countr_zero(cap);
        const std::size_t mask = cap - 1;
        for (std::size_t id = 0; id < hashes.size(); ++id) {
            std::size_t p = homeSlot(hashes[id]);
            while (slots[p].id >= 0)
                p = (p + 1) & mask;
            slots[p] = {static_cast<std::int32_t>(id),
                        static_cast<std::uint32_t>(hashes[id] >> 32)};
        }
    }

    int numLanes;
    std::vector<Slot> slots;          ///< power-of-two size, or empty
    int shift = 64;                   ///< 64 - log2(slots.size())
    std::vector<std::uint64_t> hashes; ///< per id
    std::vector<std::int64_t> keys;    ///< numLanes per id
};

} // namespace aquoman

#endif // AQUOMAN_COMMON_KEY_TABLE_HH
