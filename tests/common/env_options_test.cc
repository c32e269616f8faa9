/** @file
 * The AQUOMAN_* environment parser: every variable accepts its valid
 * values, treats unset and empty as the default, and rejects a
 * malformed value with a FatalError naming the variable and the value.
 * The lazily resolved switches (batch, compress, AVX2) read the
 * variable at their first use, not at static initialisation.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "common/env_options.hh"
#include "common/logging.hh"

namespace aquoman {
namespace {

/** Sets a variable for one scope and restores its old value after. */
class ScopedEnv
{
  public:
    ScopedEnv(const char *var, const char *value) : var(var)
    {
        if (const char *old = std::getenv(var))
            saved = old;
        if (value)
            setenv(var, value, 1);
        else
            unsetenv(var);
    }

    ~ScopedEnv()
    {
        if (saved)
            setenv(var, saved->c_str(), 1);
        else
            unsetenv(var);
    }

  private:
    const char *var;
    std::optional<std::string> saved;
};

/** @p read must throw a FatalError naming @p var and @p value. */
void
expectRejected(const char *var, const char *value,
               const std::function<void()> &read)
{
    ScopedEnv env(var, value);
    try {
        read();
        ADD_FAILURE() << var << "='" << value << "' was accepted";
    } catch (const FatalError &e) {
        std::string msg = e.what();
        EXPECT_NE(msg.find(var), std::string::npos) << msg;
        EXPECT_NE(msg.find(std::string("'") + value + "'"),
                  std::string::npos)
            << msg;
    }
}

const std::vector<const char *> kMalformed = {
    "4x", "abc", "-5", "true", "1e400", " 1", "0x10", "nan", "inf"};

TEST(EnvOptions, SwitchesAcceptZeroOrOne)
{
    struct Switch
    {
        const char *var;
        bool (*read)();
    };
    for (const Switch &s : {Switch{"AQUOMAN_BATCH", env::batch},
                            Switch{"AQUOMAN_COMPRESS", env::compress},
                            Switch{"AQUOMAN_AVX2", env::avx2}}) {
        {
            ScopedEnv unset(s.var, nullptr);
            EXPECT_TRUE(s.read()) << s.var;
        }
        {
            ScopedEnv empty(s.var, "");
            EXPECT_TRUE(s.read()) << s.var;
        }
        {
            ScopedEnv on(s.var, "1");
            EXPECT_TRUE(s.read()) << s.var;
        }
        {
            ScopedEnv off(s.var, "0");
            EXPECT_FALSE(s.read()) << s.var;
        }
        for (const char *bad : kMalformed)
            expectRejected(s.var, bad, [&] { s.read(); });
        for (const char *bad : {"2", "00", "yes", "off"})
            expectRejected(s.var, bad, [&] { s.read(); });
    }
}

TEST(EnvOptions, ThreadsAcceptOneTo1024)
{
    const char *var = "AQUOMAN_THREADS";
    {
        ScopedEnv unset(var, nullptr);
        EXPECT_EQ(env::threads(), std::nullopt);
    }
    {
        ScopedEnv empty(var, "");
        EXPECT_EQ(env::threads(), std::nullopt);
    }
    for (int n : {1, 4, 1024}) {
        ScopedEnv set(var, std::to_string(n).c_str());
        EXPECT_EQ(env::threads(), n);
    }
    for (const char *bad : kMalformed)
        expectRejected(var, bad, [] { env::threads(); });
    for (const char *bad : {"0", "1025", "4.0"})
        expectRejected(var, bad, [] { env::threads(); });
}

TEST(EnvOptions, FlightEventsAcceptPositiveIntegers)
{
    const char *var = "AQUOMAN_FLIGHT_EVENTS";
    {
        ScopedEnv unset(var, nullptr);
        EXPECT_EQ(env::flightEvents(), std::nullopt);
    }
    {
        ScopedEnv empty(var, "");
        EXPECT_EQ(env::flightEvents(), std::nullopt);
    }
    for (std::size_t n : {std::size_t{1}, std::size_t{4096}}) {
        ScopedEnv set(var, std::to_string(n).c_str());
        EXPECT_EQ(env::flightEvents(), n);
    }
    for (const char *bad : kMalformed)
        expectRejected(var, bad, [] { env::flightEvents(); });
    for (const char *bad : {"0", "12x", "99999999999999999999"})
        expectRejected(var, bad, [] { env::flightEvents(); });
}

TEST(EnvOptions, ScaleFactorAcceptsPositiveFiniteNumbers)
{
    const char *var = "AQUOMAN_SF";
    {
        ScopedEnv unset(var, nullptr);
        EXPECT_EQ(env::scaleFactor(), 0.02);
    }
    {
        ScopedEnv empty(var, "");
        EXPECT_EQ(env::scaleFactor(), 0.02);
    }
    for (auto [text, value] : {std::pair{"0.01", 0.01},
                               std::pair{"1", 1.0},
                               std::pair{"2.5e-1", 0.25}}) {
        ScopedEnv set(var, text);
        EXPECT_EQ(env::scaleFactor(), value) << text;
    }
    for (const char *bad : kMalformed)
        expectRejected(var, bad, [] { env::scaleFactor(); });
    for (const char *bad : {"0", "-0.5", "0.01x"})
        expectRejected(var, bad, [] { env::scaleFactor(); });
}

TEST(EnvOptions, TraceIsAnyPath)
{
    const char *var = "AQUOMAN_TRACE";
    {
        ScopedEnv unset(var, nullptr);
        EXPECT_EQ(env::tracePath(), "");
    }
    {
        ScopedEnv set(var, "out dir/trace 1.json");
        EXPECT_EQ(env::tracePath(), "out dir/trace 1.json");
    }
}

bool g_resolved = false;

TEST(LazySwitch, ResolvesOnceAtFirstReadThenHonoursTheHook)
{
    static LazySwitch sw{[] {
        g_resolved = true;
        return env::batch();
    }};
    EXPECT_FALSE(g_resolved);
    {
        ScopedEnv off("AQUOMAN_BATCH", "0");
        EXPECT_FALSE(sw.get());
    }
    EXPECT_TRUE(g_resolved);
    // Resolved once: a later environment change does not move it.
    {
        ScopedEnv on("AQUOMAN_BATCH", "1");
        EXPECT_FALSE(sw.get());
    }
    sw.set(true);
    EXPECT_TRUE(sw.get());
    sw.set(false);
    EXPECT_FALSE(sw.get());
}

TEST(LazySwitch, MalformedValueFailsAtEveryReadUntilResolved)
{
    static LazySwitch sw{[] { return env::compress(); }};
    {
        ScopedEnv bad("AQUOMAN_COMPRESS", "yes");
        EXPECT_THROW(sw.get(), FatalError);
        EXPECT_THROW(sw.get(), FatalError);
    }
    ScopedEnv unset("AQUOMAN_COMPRESS", nullptr);
    EXPECT_TRUE(sw.get());
}

} // namespace
} // namespace aquoman
