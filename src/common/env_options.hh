/**
 * @file
 * The one reader of the AQUOMAN_* environment variables (README,
 * "Environment variables"). Each accessor reads its variable when
 * called and parses it strictly: a malformed value throws FatalError
 * naming the variable and the value. Unset or empty means the default.
 * Nothing reads the environment during static initialisation.
 */

#ifndef AQUOMAN_COMMON_ENV_OPTIONS_HH
#define AQUOMAN_COMMON_ENV_OPTIONS_HH

#include <atomic>
#include <cstddef>
#include <optional>
#include <string>

namespace aquoman {

namespace env {

bool batch();    ///< AQUOMAN_BATCH: 0 or 1, default 1
bool compress(); ///< AQUOMAN_COMPRESS: 0 or 1, default 1
bool avx2();     ///< AQUOMAN_AVX2: 0 or 1, default 1
std::optional<int> threads();              ///< AQUOMAN_THREADS: 1..1024
std::optional<std::size_t> flightEvents(); ///< AQUOMAN_FLIGHT_EVENTS: >= 1
double scaleFactor(); ///< AQUOMAN_SF: positive, finite, default 0.02
std::string tracePath();             ///< AQUOMAN_TRACE: "" when unset

} // namespace env

/**
 * A process-wide on/off switch resolved by @p resolve at its first
 * read; after that a read is one relaxed atomic load, cheap enough for
 * kernel dispatch. set() is the test hook that forces it either way.
 */
class LazySwitch
{
  public:
    constexpr explicit LazySwitch(bool (*resolve)()) : resolve(resolve) {}

    bool
    get()
    {
        int v = state.load(std::memory_order_relaxed);
        if (v < 0) {
            v = resolve() ? 1 : 0;
            state.store(v, std::memory_order_relaxed);
        }
        return v == 1;
    }

    void set(bool on) { state.store(on ? 1 : 0, std::memory_order_relaxed); }

  private:
    std::atomic<int> state{-1}; ///< -1 = unresolved, 0 = off, 1 = on
    bool (*resolve)();
};

} // namespace aquoman

#endif // AQUOMAN_COMMON_ENV_OPTIONS_HH
