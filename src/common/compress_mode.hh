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

#include "common/env_options.hh"

namespace aquoman {

namespace detail {
inline constinit LazySwitch g_compress_mode{[] { return env::compress(); }};
} // namespace detail

/** Compression on? Defaults to on; env AQUOMAN_COMPRESS=0 disables. */
inline bool
compressionEnabled()
{
    return detail::g_compress_mode.get();
}

/** Test hook: force compressed (true) or raw-oracle (false) layout. */
inline void
setCompressionEnabled(bool on)
{
    detail::g_compress_mode.set(on);
}

} // namespace aquoman

#endif // AQUOMAN_COMMON_COMPRESS_MODE_HH
