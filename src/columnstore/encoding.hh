/**
 * @file
 * Lightweight column encodings for the on-flash layout: RLE,
 * per-page sorted dictionary, frame-of-reference (FOR), and a raw
 * fallback. A column is cut into page blocks, each independently
 * decodable and sized to fit one flash page (kFlashPageBytes), with a
 * greedy variable rows-per-page fill: runs of near-constant values
 * pack tens of thousands of rows into a single 8KB page, random data
 * degrades gracefully to raw.
 *
 * Null handling: the encoder treats the engine's null sentinel
 * (INT64_MIN, relalg's kNullValue) as NULL. Null positions are
 * recorded in a bit-packed bitmap ahead of the payload and excluded
 * from the codec domains, which keeps FOR ranges finite and
 * makes the round trip exact for every int64 input.
 *
 * Page block layout (little-endian):
 *   [0]  u8  codec            (ColumnCodec)
 *   [1]  u8  bits             code/delta width; raw value width in bits
 *   [2]  u8  hasNulls         0/1
 *   [3]  u8  reserved
 *   [4]  u32 rows
 *   [8]  i64 param            FOR base / dict size / RLE run count
 *   [16] optional null bitmap, ceil(rows/8) bytes
 *   then the codec payload.
 */

#ifndef AQUOMAN_COLUMNSTORE_ENCODING_HH
#define AQUOMAN_COLUMNSTORE_ENCODING_HH

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <limits>
#include <unordered_set>
#include <vector>

#include "common/logging.hh"
#include "flash/flash_config.hh"

namespace aquoman {

/** Per-page storage codec. */
enum class ColumnCodec : std::uint8_t
{
    Raw = 0,  ///< values at their on-flash width
    Rle = 1,  ///< (value, count) runs
    Dict = 2, ///< per-page sorted dictionary + bit-packed codes
    For = 3,  ///< frame of reference: base + bit-packed deltas
};

inline const char *
columnCodecName(ColumnCodec c)
{
    switch (c) {
      case ColumnCodec::Raw: return "raw";
      case ColumnCodec::Rle: return "rle";
      case ColumnCodec::Dict: return "dict";
      case ColumnCodec::For: return "for";
    }
    return "?";
}

/** The null sentinel the encoder recognises (relalg kNullValue). */
inline constexpr std::int64_t kEncodedNull =
    std::numeric_limits<std::int64_t>::min();

/** One encoded page block plus its metadata. */
struct EncodedPage
{
    ColumnCodec codec = ColumnCodec::Raw;
    std::int64_t firstRow = 0;
    std::int64_t rows = 0;
    std::vector<std::uint8_t> bytes; ///< self-describing block
};

/** A whole column cut into page blocks. */
struct ColumnEncoding
{
    std::int64_t rows = 0;
    std::int64_t encodedBytes = 0; ///< sum of page block sizes
    std::vector<EncodedPage> pages; ///< firstRow ascending

    std::int64_t numPages() const
    {
        return static_cast<std::int64_t>(pages.size());
    }
};

/**
 * Append @p n values to @p out at on-flash width @p width (4 or 8
 * bytes, little-endian): the raw column layout and the Raw codec's
 * payload.
 */
inline void
appendRawValues(std::vector<std::uint8_t> &out, const std::int64_t *v,
                std::int64_t n, int width)
{
    std::size_t at = out.size();
    out.resize(at + static_cast<std::size_t>(n * width));
    std::uint8_t *dst = out.data() + at;
    if (width == 4) {
        for (std::int64_t i = 0; i < n; ++i) {
            auto x = static_cast<std::int32_t>(v[i]);
            std::memcpy(dst + i * 4, &x, 4);
        }
    } else if (n > 0) {
        std::memcpy(dst, v, static_cast<std::size_t>(n * 8));
    }
}

/** Read @p n values of on-flash width @p width from @p src into @p dst
 *  (the inverse of appendRawValues; 4-byte values sign-extend). */
inline void
readRawValues(const std::uint8_t *src, std::int64_t n, int width,
              std::int64_t *dst)
{
    if (width == 4) {
        for (std::int64_t i = 0; i < n; ++i) {
            std::int32_t x;
            std::memcpy(&x, src + i * 4, 4);
            dst[i] = x;
        }
    } else if (n > 0) {
        std::memcpy(dst, src, static_cast<std::size_t>(n * 8));
    }
}

namespace enc_detail {

inline constexpr std::int64_t kHeaderBytes = 16;
/// Granularity of the greedy page fill; one group always fits a page.
inline constexpr std::int64_t kGroupRows = 512;
/// Rows-per-page cap: bounds page granularity (and the u32 rows
/// field) even for perfectly compressible columns.
inline constexpr std::int64_t kMaxRowsPerPage = 1 << 16;
/// Dictionary candidates stop tracking past this many distinct values.
inline constexpr std::int64_t kMaxDictValues = 4096;

inline int
bitsForCount(std::uint64_t n) // codes 0..n-1
{
    int b = 1;
    while (n > (1ull << b))
        ++b;
    return b;
}

inline int
bitsForRange(std::uint64_t range) // deltas 0..range
{
    if (range == 0)
        return 1;
    int b = 0;
    while (b < 64 && range >> b)
        ++b;
    return b;
}

inline std::int64_t
packedBytes(std::int64_t rows, int bits)
{
    return (rows * bits + 7) / 8;
}

/**
 * Word-wise writer of a LSB-first bit stream into a buffer sized
 * beforehand to packedBytes(n, bits): the write-side twin of
 * getBitsFast. Fields collect in a 64-bit accumulator that is stored
 * whole each time it fills, so every store lands inside the packed
 * bytes of the fields put so far. finish() stores the partial last
 * word byte by byte. Fields are at most 63 bits wide.
 */
class BitPacker
{
  public:
    explicit BitPacker(std::uint8_t *dst) : out(dst) {}

    /** Append the low @p bits bits of @p v (higher bits must be 0). */
    void
    put(std::uint64_t v, int bits)
    {
        acc |= v << fill;
        fill += bits;
        if (fill >= 64) {
            std::memcpy(out, &acc, 8);
            out += 8;
            fill -= 64;
            acc = v >> (bits - fill); // the bits of v that did not fit
        }
    }

    /** Store the bytes of the last, partial word. */
    void
    finish()
    {
        for (; fill > 0; fill -= 8, acc >>= 8)
            *out++ = static_cast<std::uint8_t>(acc);
    }

  private:
    std::uint8_t *out;
    std::uint64_t acc = 0;
    int fill = 0; ///< bits held in acc, always < 64 between puts
};

inline std::uint64_t
getBits(const std::uint8_t *p, std::int64_t bitpos, int bits)
{
    std::uint64_t v = 0;
    for (int i = 0; i < bits; ++i, ++bitpos) {
        if ((p[bitpos >> 3] >> (bitpos & 7)) & 1)
            v |= 1ull << i;
    }
    return v;
}

/**
 * Word-wise getBits. Bit-identical to getBits on little-endian hosts
 * (the stream is LSB-first, so a 64-bit load sees bit `bitpos & 7`
 * of the field at shift position 0). Only legal when the 8 bytes at
 * `p + (bitpos >> 3)` are in bounds and bits <= 57 (field + intra-byte
 * shift must fit one load); callers gate with fastUnpackCount.
 */
inline std::uint64_t
getBitsFast(const std::uint8_t *p, std::int64_t bitpos, int bits)
{
    std::uint64_t w;
    std::memcpy(&w, p + (bitpos >> 3), 8);
    w >>= (bitpos & 7);
    return w & ((1ull << bits) - 1);
}

/**
 * How many leading fields of a packed stream of @p n fields of
 * @p bits bits each can be read with getBitsFast given @p avail bytes
 * of stream. The remainder must fall back to getBits.
 */
inline std::int64_t
fastUnpackCount(std::int64_t n, int bits, std::int64_t avail)
{
    if (bits <= 0 || bits > 57 || avail < 9)
        return 0;
    return std::min<std::int64_t>(n, 8 * (avail - 8) / bits);
}

template <typename T>
inline void
putScalar(std::vector<std::uint8_t> &out, T v)
{
    std::size_t at = out.size();
    out.resize(at + sizeof(T));
    std::memcpy(out.data() + at, &v, sizeof(T));
}

template <typename T>
inline T
getScalar(const std::uint8_t *p)
{
    T v;
    std::memcpy(&v, p, sizeof(T));
    return v;
}

/** Incremental per-page statistics driving the codec choice. */
struct PageStats
{
    std::int64_t rows = 0;
    std::int64_t nulls = 0;
    std::int64_t runs = 0; ///< over all rows, nulls included
    bool havePrev = false;
    std::int64_t prev = 0;
    /// Range of the non-null values (min > max when all null).
    std::int64_t min = std::numeric_limits<std::int64_t>::max();
    std::int64_t max = std::numeric_limits<std::int64_t>::min();
    std::unordered_set<std::int64_t> distinct; ///< non-null values
    bool dictOverflow = false;

    void
    add(std::int64_t v)
    {
        if (!havePrev || v != prev)
            ++runs;
        havePrev = true;
        prev = v;
        ++rows;
        if (v == kEncodedNull) {
            ++nulls;
            return;
        }
        min = std::min(min, v);
        max = std::max(max, v);
        if (!dictOverflow) {
            distinct.insert(v);
            if (static_cast<std::int64_t>(distinct.size())
                > kMaxDictValues)
                dictOverflow = true;
        }
    }

    bool hasNulls() const { return nulls > 0; }

    std::int64_t
    bitmapBytes() const
    {
        return hasNulls() ? (rows + 7) / 8 : 0;
    }

    std::int64_t
    rawSize(int width) const
    {
        return kHeaderBytes + bitmapBytes() + rows * width;
    }

    std::int64_t
    rleSize() const
    {
        return kHeaderBytes + bitmapBytes() + runs * 12;
    }

    /// Negative when the codec is not applicable.
    std::int64_t
    dictSize() const
    {
        if (dictOverflow)
            return -1;
        auto nd = static_cast<std::int64_t>(distinct.size());
        if (nd == 0)
            nd = 1; // all-null page: one-entry placeholder dict
        int bits = bitsForCount(static_cast<std::uint64_t>(nd));
        return kHeaderBytes + bitmapBytes() + nd * 8
            + packedBytes(rows, bits);
    }

    std::int64_t
    forSize() const
    {
        if (min > max) // all null
            return kHeaderBytes + bitmapBytes() + packedBytes(rows, 1);
        std::uint64_t range = static_cast<std::uint64_t>(max)
            - static_cast<std::uint64_t>(min);
        int bits = bitsForRange(range);
        if (bits >= 64)
            return -1; // range needs full width: raw is never worse
        return kHeaderBytes + bitmapBytes() + packedBytes(rows, bits);
    }

    /** Block size under @p codec (negative when not applicable). */
    std::int64_t
    bytesFor(ColumnCodec codec, int width) const
    {
        switch (codec) {
          case ColumnCodec::Raw: return rawSize(width);
          case ColumnCodec::Rle: return rleSize();
          case ColumnCodec::Dict: return dictSize();
          case ColumnCodec::For: return forSize();
        }
        return -1;
    }

    /**
     * Smallest applicable codec and its size. Deterministic tie
     * order: For, Dict, Rle, Raw (cheapest decode among equals).
     */
    std::pair<ColumnCodec, std::int64_t>
    best(int width) const
    {
        ColumnCodec codec = ColumnCodec::For;
        std::int64_t size = forSize();
        for (ColumnCodec c :
             {ColumnCodec::Dict, ColumnCodec::Rle, ColumnCodec::Raw}) {
            std::int64_t s = bytesFor(c, width);
            if (s >= 0 && (size < 0 || s < size)) {
                codec = c;
                size = s;
            }
        }
        return {codec, size};
    }
};

/** Encode rows [r0, r0+stats.rows) of @p vals with @p codec. */
inline EncodedPage
encodePage(const std::int64_t *vals, std::int64_t first_row,
           const PageStats &stats, ColumnCodec codec, int width)
{
    const std::int64_t n = stats.rows;
    const std::int64_t *v = vals + first_row;
    EncodedPage page;
    page.codec = codec;
    page.firstRow = first_row;
    page.rows = n;

    std::vector<std::uint8_t> &out = page.bytes;
    out.reserve(static_cast<std::size_t>(
        std::max<std::int64_t>(0, stats.bytesFor(codec, width))));
    std::uint8_t bits = 0;
    std::int64_t param = 0;
    std::vector<std::int64_t> dict;
    switch (codec) {
      case ColumnCodec::Raw:
        bits = static_cast<std::uint8_t>(width * 8);
        break;
      case ColumnCodec::Rle:
        param = stats.runs;
        break;
      case ColumnCodec::Dict: {
        dict.assign(stats.distinct.begin(), stats.distinct.end());
        std::sort(dict.begin(), dict.end());
        if (dict.empty())
            dict.push_back(0); // all-null placeholder
        param = static_cast<std::int64_t>(dict.size());
        bits = static_cast<std::uint8_t>(
            bitsForCount(static_cast<std::uint64_t>(dict.size())));
        break;
      }
      case ColumnCodec::For: {
        param = stats.min > stats.max ? 0 : stats.min;
        std::uint64_t range = stats.min > stats.max
            ? 0
            : static_cast<std::uint64_t>(stats.max)
                - static_cast<std::uint64_t>(stats.min);
        bits = static_cast<std::uint8_t>(bitsForRange(range));
        break;
      }
    }

    out.push_back(static_cast<std::uint8_t>(codec));
    out.push_back(bits);
    out.push_back(stats.hasNulls() ? 1 : 0);
    out.push_back(0);
    putScalar<std::uint32_t>(out, static_cast<std::uint32_t>(n));
    putScalar<std::int64_t>(out, param);

    if (stats.hasNulls()) {
        std::size_t at = out.size();
        out.resize(at + stats.bitmapBytes(), 0);
        for (std::int64_t i = 0; i < n; ++i) {
            if (v[i] == kEncodedNull)
                out[at + (i >> 3)] |= static_cast<std::uint8_t>(
                    1u << (i & 7));
        }
    }

    switch (codec) {
      case ColumnCodec::Raw:
        appendRawValues(out, v, n, width);
        break;
      case ColumnCodec::Rle: {
        std::int64_t i = 0;
        while (i < n) {
            std::int64_t j = i + 1;
            while (j < n && v[j] == v[i])
                ++j;
            putScalar<std::int64_t>(out, v[i]);
            putScalar<std::uint32_t>(
                out, static_cast<std::uint32_t>(j - i));
            i = j;
        }
        break;
      }
      case ColumnCodec::Dict: {
        for (std::int64_t d : dict)
            putScalar<std::int64_t>(out, d);
        std::size_t at = out.size();
        out.resize(at + packedBytes(n, bits));
        BitPacker packer(out.data() + at);
        for (std::int64_t i = 0; i < n; ++i) {
            std::uint64_t code = 0;
            if (v[i] != kEncodedNull) {
                code = static_cast<std::uint64_t>(
                    std::lower_bound(dict.begin(), dict.end(), v[i])
                    - dict.begin());
            }
            packer.put(code, bits);
        }
        packer.finish();
        break;
      }
      case ColumnCodec::For: {
        std::size_t at = out.size();
        out.resize(at + packedBytes(n, bits));
        BitPacker packer(out.data() + at);
        for (std::int64_t i = 0; i < n; ++i) {
            std::uint64_t delta = 0;
            if (v[i] != kEncodedNull) {
                delta = static_cast<std::uint64_t>(v[i])
                    - static_cast<std::uint64_t>(param);
            }
            packer.put(delta, bits);
        }
        packer.finish();
        break;
      }
    }
    AQ_ASSERT(static_cast<std::int64_t>(out.size())
                  <= kFlashPageBytes,
              "encoded page block exceeds the flash page size");
    return page;
}

} // namespace enc_detail

/**
 * Encode @p n values (on-flash width @p width, 4 or 8) into page
 * blocks with a greedy variable rows-per-page fill. Row numbers in the
 * page metadata start at @p first_row.
 */
inline ColumnEncoding
encodeValues(const std::int64_t *vals, std::int64_t n, int width,
             std::int64_t first_row = 0)
{
    using namespace enc_detail;
    ColumnEncoding enc;
    enc.rows = n;
    std::int64_t at = 0;
    while (at < n) {
        PageStats sealed; // stats of the page accepted so far
        PageStats trial;
        std::int64_t taken = 0;
        while (at + taken < n && taken < kMaxRowsPerPage) {
            std::int64_t group = std::min<std::int64_t>(
                {kGroupRows, n - at - taken, kMaxRowsPerPage - taken});
            for (std::int64_t i = 0; i < group; ++i)
                trial.add(vals[at + taken + i]);
            if (taken > 0
                && trial.best(width).second > kFlashPageBytes)
                break; // the new group would overflow the page
            sealed = trial;
            taken += group;
        }
        AQ_ASSERT(taken > 0, "page fill made no progress");
        auto [codec, size] = sealed.best(width);
        (void)size;
        EncodedPage page = encodePage(vals, at, sealed, codec, width);
        page.firstRow = first_row + at;
        enc.encodedBytes += static_cast<std::int64_t>(
            page.bytes.size());
        enc.pages.push_back(std::move(page));
        at += taken;
    }
    return enc;
}

/**
 * Decode one page block produced by encodeValues back into int64
 * values (appended to @p out). Exact inverse of the encoder for every
 * input, nulls (kEncodedNull) included.
 */
inline void
decodePage(const std::uint8_t *p, std::size_t len,
           std::vector<std::int64_t> &out)
{
    using namespace enc_detail;
    AQ_ASSERT(len >= static_cast<std::size_t>(kHeaderBytes),
              "page block shorter than its header");
    auto codec = static_cast<ColumnCodec>(p[0]);
    int bits = p[1];
    bool has_nulls = p[2] != 0;
    std::int64_t n = getScalar<std::uint32_t>(p + 4);
    std::int64_t param = getScalar<std::int64_t>(p + 8);
    const std::uint8_t *cursor = p + kHeaderBytes;
    const std::uint8_t *bitmap = nullptr;
    if (has_nulls) {
        bitmap = cursor;
        cursor += (n + 7) / 8;
    }
    auto is_null = [&](std::int64_t i) {
        return bitmap && ((bitmap[i >> 3] >> (i & 7)) & 1);
    };
    std::size_t base_out = out.size();
    out.resize(base_out + n);
    std::int64_t *dst = out.data() + base_out;

    switch (codec) {
      case ColumnCodec::Raw:
        readRawValues(cursor, n, bits / 8, dst);
        break;
      case ColumnCodec::Rle: {
        std::int64_t i = 0;
        for (std::int64_t r = 0; r < param; ++r) {
            auto v = getScalar<std::int64_t>(cursor);
            auto cnt = getScalar<std::uint32_t>(cursor + 8);
            cursor += 12;
            for (std::uint32_t k = 0; k < cnt; ++k)
                dst[i++] = v;
        }
        AQ_ASSERT(i == n, "RLE run counts disagree with page rows");
        break;
      }
      case ColumnCodec::Dict: {
        const std::uint8_t *dict = cursor;
        const std::uint8_t *codes = cursor + param * 8;
        std::int64_t fast = fastUnpackCount(
            n, bits, static_cast<std::int64_t>(len) - (codes - p));
        std::int64_t bitpos = 0;
        for (std::int64_t i = 0; i < fast; ++i, bitpos += bits) {
            auto code = getBitsFast(codes, bitpos, bits);
            dst[i] = getScalar<std::int64_t>(
                dict + static_cast<std::int64_t>(code) * 8);
        }
        for (std::int64_t i = fast; i < n; ++i, bitpos += bits) {
            auto code = getBits(codes, bitpos, bits);
            dst[i] = getScalar<std::int64_t>(
                dict + static_cast<std::int64_t>(code) * 8);
        }
        break;
      }
      case ColumnCodec::For: {
        std::int64_t fast = fastUnpackCount(
            n, bits, static_cast<std::int64_t>(len) - (cursor - p));
        std::int64_t bitpos = 0;
        for (std::int64_t i = 0; i < fast; ++i, bitpos += bits) {
            dst[i] = static_cast<std::int64_t>(
                static_cast<std::uint64_t>(param)
                + getBitsFast(cursor, bitpos, bits));
        }
        for (std::int64_t i = fast; i < n; ++i, bitpos += bits) {
            dst[i] = static_cast<std::int64_t>(
                static_cast<std::uint64_t>(param)
                + getBits(cursor, bitpos, bits));
        }
        break;
      }
    }
    if (bitmap) {
        for (std::int64_t i = 0; i < n; ++i) {
            if (is_null(i))
                dst[i] = kEncodedNull;
        }
    }
}

} // namespace aquoman

#endif // AQUOMAN_COLUMNSTORE_ENCODING_HH
