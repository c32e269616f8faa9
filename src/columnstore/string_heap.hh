/**
 * @file
 * String heap backing varchar columns, in the style of MonetDB's string
 * BATs: the column file stores fixed-width offsets into a shared heap of
 * NUL-terminated strings, and repeated strings are interned so that
 * small-domain columns (e.g. country names) have a small heap. The heap
 * size is what decides whether regular-expression filtering can run in
 * AQUOMAN's 1MB regex-accelerator cache (Sec. VI-B / VI-E).
 */

#ifndef AQUOMAN_COLUMNSTORE_STRING_HEAP_HH
#define AQUOMAN_COLUMNSTORE_STRING_HEAP_HH

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <functional>
#include <string_view>
#include <vector>

#include "common/logging.hh"

namespace aquoman {

/**
 * Longest run of literal (non-wildcard) characters in a LIKE pattern.
 * Every string matching the pattern must contain this run as a
 * substring, so it is a *necessary* condition usable as a cheap byte
 * prefilter before the full wildcard match — rejecting on its absence
 * can never drop a true match. Empty for all-wildcard patterns.
 */
inline std::string_view
likeLiteralRun(std::string_view pattern)
{
    std::size_t best = 0, best_len = 0, i = 0;
    while (i < pattern.size()) {
        if (pattern[i] == '%' || pattern[i] == '_') {
            ++i;
            continue;
        }
        std::size_t start = i;
        while (i < pattern.size() && pattern[i] != '%'
               && pattern[i] != '_')
            ++i;
        if (i - start > best_len) {
            best = start;
            best_len = i - start;
        }
    }
    return pattern.substr(best, best_len);
}

/**
 * Interning heap of NUL-terminated strings addressed by byte offset.
 * Lookups go through a flat open-addressing table whose slots hold a
 * heap offset and the string's cached hash, so the heap bytes are the
 * only copy of each string and a lookup allocates nothing. The table
 * doubles at half load; offsets come out in first-seen order.
 */
class StringHeap
{
  public:
    /**
     * Intern @p s, returning its heap offset. Identical strings share
     * one heap entry. @p s holds no NUL: that byte ends a heap entry.
     */
    std::int64_t
    intern(std::string_view s)
    {
        std::uint64_t h = hashOf(s);
        std::size_t i = 0;
        if (!slots.empty()) {
            i = probe(s, h);
            if (slots[i].off >= 0)
                return slots[i].off;
        }
        if ((used + 1) * 2 > slots.size()) {
            grow();
            i = probe(s, h);
        }
        Slot &slot = slots[i];
        slot.off = static_cast<std::int64_t>(bytes.size());
        slot.hash = h;
        ++used;
        bytes.insert(bytes.end(), s.begin(), s.end());
        bytes.push_back('\0');
        return slot.off;
    }

    /**
     * Offset of @p s if it is already interned, -1 otherwise (used to
     * resolve string constants to dictionary offsets without mutating
     * the heap).
     */
    std::int64_t
    find(std::string_view s) const
    {
        if (slots.empty())
            return -1;
        return slots[probe(s, hashOf(s))].off;
    }

    /** Read the string at heap offset @p off. */
    std::string_view
    get(std::int64_t off) const
    {
        AQ_ASSERT(off >= 0 && off < static_cast<std::int64_t>(bytes.size()));
        return std::string_view(bytes.data() + off);
    }

    /** Total heap size in bytes (== unique-string bytes). */
    std::int64_t sizeBytes() const
    {
        return static_cast<std::int64_t>(bytes.size());
    }

    /** Number of distinct strings interned. */
    std::int64_t numStrings() const
    {
        return static_cast<std::int64_t>(used);
    }

    /** Raw heap bytes (for flash persistence). */
    const std::vector<char> &raw() const { return bytes; }

    /**
     * Could any interned string contain @p lit as a substring? One
     * memchr/memcmp scan over the contiguous heap bytes; since @p lit
     * cannot contain the NUL separator, a hit can never straddle two
     * strings, so a miss proves no string contains the run and a whole
     * LIKE morsel can be rejected without running the wildcard
     * matcher. False for an empty heap; true for an empty @p lit.
     */
    bool
    mayContain(std::string_view lit) const
    {
        if (lit.empty())
            return !bytes.empty();
        const char *p = bytes.data();
        const char *end = p + bytes.size();
        while (static_cast<std::size_t>(end - p) >= lit.size()) {
            const char *hit = static_cast<const char *>(
                std::memchr(p, lit.front(),
                            static_cast<std::size_t>(end - p)
                                - lit.size() + 1));
            if (hit == nullptr)
                return false;
            if (std::memcmp(hit, lit.data(), lit.size()) == 0)
                return true;
            p = hit + 1;
        }
        return false;
    }

  private:
    /** One table slot; off < 0 marks it empty. */
    struct Slot
    {
        std::int64_t off = -1;
        std::uint64_t hash = 0;
    };

    static std::uint64_t
    hashOf(std::string_view s)
    {
        return std::hash<std::string_view>{}(s);
    }

    /** Slot holding @p s (hash @p h), or the empty slot ending its probe. */
    std::size_t
    probe(std::string_view s, std::uint64_t h) const
    {
        std::size_t mask = slots.size() - 1;
        std::size_t i = static_cast<std::size_t>(h) & mask;
        while (slots[i].off >= 0
               && (slots[i].hash != h || get(slots[i].off) != s))
            i = (i + 1) & mask;
        return i;
    }

    /** Double the table (16 slots at first), re-placing by cached hash. */
    void
    grow()
    {
        std::vector<Slot> old(std::max<std::size_t>(16, 2 * slots.size()));
        old.swap(slots);
        std::size_t mask = slots.size() - 1;
        for (const Slot &o : old) {
            if (o.off < 0)
                continue;
            std::size_t i = static_cast<std::size_t>(o.hash) & mask;
            while (slots[i].off >= 0)
                i = (i + 1) & mask;
            slots[i] = o;
        }
    }

    std::vector<char> bytes;
    std::vector<Slot> slots; ///< power-of-two size, at most half full
    std::size_t used = 0;    ///< occupied slots == distinct strings
};

} // namespace aquoman

#endif // AQUOMAN_COLUMNSTORE_STRING_HEAP_HH
