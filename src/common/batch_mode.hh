/**
 * @file
 * Runtime toggle for the vectorized batch execution engine. The batch
 * paths (PeBatchKernel, selection-vector filters) are bit-identical to
 * the scalar interpreter by contract; the flag exists so differential
 * tests can run both strategies against each other and so a regression
 * can be bisected in the field (AQUOMAN_BATCH=0 restores the scalar
 * oracle). Modelled seconds and traces are unaffected either way —
 * only simulator wall-clock changes.
 */

#ifndef AQUOMAN_COMMON_BATCH_MODE_HH
#define AQUOMAN_COMMON_BATCH_MODE_HH

#include "common/env_options.hh"

namespace aquoman {

namespace detail {
inline constinit LazySwitch g_batch_mode{[] { return env::batch(); }};
} // namespace detail

/** Batch engine on? Defaults to on; env AQUOMAN_BATCH=0 disables. */
inline bool
batchExecutionEnabled()
{
    return detail::g_batch_mode.get();
}

/** Test hook: force batch (true) or scalar-oracle (false) execution. */
inline void
setBatchExecutionEnabled(bool on)
{
    detail::g_batch_mode.set(on);
}

} // namespace aquoman

#endif // AQUOMAN_COMMON_BATCH_MODE_HH
