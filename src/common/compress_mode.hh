/**
 * @file
 * Runtime toggle for persisted column compression. When enabled
 * (the default), flash pages hold encoded column bytes (dictionary,
 * RLE, frame-of-reference), and the device prices flash reads on
 * compressed size. AQUOMAN_COMPRESS=0 restores
 * the uncompressed oracle: raw on-flash layout, the pre-compression
 * cost model, bit-identical results, modelled seconds and traces —
 * the storage analogue of the AQUOMAN_BATCH=0 scalar-execution
 * contract.
 *
 * The flag is resolved once and must not change between persisting a
 * table and reading it back (the on-flash layout is part of the data
 * definition); tests that flip it via setCompressionEnabled() rebuild
 * their fixtures.
 */

#ifndef AQUOMAN_COMMON_COMPRESS_MODE_HH
#define AQUOMAN_COMMON_COMPRESS_MODE_HH

#include <atomic>
#include <cstdlib>
#include <string_view>

namespace aquoman {

namespace detail {
/// -1 = unresolved, 0 = uncompressed oracle, 1 = compressed.
inline std::atomic<int> g_compress_mode{-1};
} // namespace detail

/** Compression on? Defaults to on; env AQUOMAN_COMPRESS=0 disables. */
inline bool
compressionEnabled()
{
    int v = detail::g_compress_mode.load(std::memory_order_relaxed);
    if (v < 0) {
        const char *e = std::getenv("AQUOMAN_COMPRESS");
        v = (e != nullptr && std::string_view(e) == "0") ? 0 : 1;
        detail::g_compress_mode.store(v, std::memory_order_relaxed);
    }
    return v == 1;
}

/** Test hook: force compressed (true) or raw-oracle (false) layout. */
inline void
setCompressionEnabled(bool on)
{
    detail::g_compress_mode.store(on ? 1 : 0,
                                  std::memory_order_relaxed);
}

} // namespace aquoman

#endif // AQUOMAN_COMMON_COMPRESS_MODE_HH
