/**
 * @file
 * Runtime CPU-feature dispatch for the specialized batch kernels. The
 * binaries are built for generic x86-64 (SSE2 baseline), so AVX2
 * variants of the hot kernels are compiled with per-function target
 * attributes and selected once per compiled kernel behind a CPUID
 * check. The check is cached; AQUOMAN_AVX2=0 (or the test hook) forces
 * the generic path so the two variants can be diffed for bit-identical
 * output on the same host.
 */

#ifndef AQUOMAN_COMMON_SIMD_HH
#define AQUOMAN_COMMON_SIMD_HH

#include "common/env_options.hh"

namespace aquoman {

namespace detail {
inline constinit LazySwitch g_avx2_mode{[] {
    // Read the variable first so a malformed value fails on every CPU.
    bool allowed = env::avx2();
#if defined(__x86_64__) && defined(__GNUC__)
    return allowed && __builtin_cpu_supports("avx2");
#else
    (void)allowed;
    return false;
#endif
}};
} // namespace detail

/**
 * Should kernel dispatch pick the AVX2 variants? True only when the
 * CPU reports AVX2 and neither AQUOMAN_AVX2=0 nor the test hook has
 * forced the generic path.
 */
inline bool
avx2Available()
{
    return detail::g_avx2_mode.get();
}

/**
 * Test hook: force AVX2 (true) or generic (false) kernel selection.
 * Forcing true on a CPU without AVX2 would SIGILL; tests must only
 * force true when a prior avx2Available() probe returned true.
 */
inline void
setAvx2Enabled(bool on)
{
    detail::g_avx2_mode.set(on);
}

} // namespace aquoman

#endif // AQUOMAN_COMMON_SIMD_HH
