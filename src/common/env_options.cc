#include "common/env_options.hh"

#include <charconv>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <string_view>

#include "common/logging.hh"

namespace aquoman::env {

namespace {

/** The variable's value, or nullopt when it is unset or empty. */
std::optional<std::string_view>
read(const char *var)
{
    const char *v = std::getenv(var);
    if (v == nullptr || v[0] == '\0')
        return std::nullopt;
    return std::string_view(v);
}

/** The variable parsed by std::from_chars as a T, all of it. */
template <typename T>
std::optional<T>
parse(const char *var, bool (*ok)(T), const char *rule)
{
    std::optional<std::string_view> v = read(var);
    if (!v)
        return std::nullopt;
    T x{};
    auto [end, ec] = std::from_chars(v->data(), v->data() + v->size(), x);
    if (ec != std::errc() || end != v->data() + v->size() || !ok(x))
        fatal(var, " must be ", rule, ", got '", *v, "'");
    return x;
}

/** "0" or "1", default on. */
bool
readSwitch(const char *var)
{
    std::optional<std::string_view> v = read(var);
    if (v && *v != "0" && *v != "1")
        fatal(var, " must be 0 or 1, got '", *v, "'");
    return !v || *v == "1";
}

} // namespace

bool batch() { return readSwitch("AQUOMAN_BATCH"); }
bool compress() { return readSwitch("AQUOMAN_COMPRESS"); }
bool avx2() { return readSwitch("AQUOMAN_AVX2"); }

std::optional<int>
threads()
{
    return parse<int>("AQUOMAN_THREADS",
                      [](int n) { return n >= 1 && n <= 1024; },
                      "an integer from 1 to 1024");
}

std::optional<std::size_t>
flightEvents()
{
    return parse<long long>("AQUOMAN_FLIGHT_EVENTS",
                            [](long long n) { return n >= 1; },
                            "a positive integer");
}

double
scaleFactor()
{
    return parse<double>("AQUOMAN_SF",
                         [](double x) { return std::isfinite(x) && x > 0; },
                         "a positive finite number")
        .value_or(0.02);
}

std::string
tracePath()
{
    return std::string(read("AQUOMAN_TRACE").value_or(""));
}

} // namespace aquoman::env
