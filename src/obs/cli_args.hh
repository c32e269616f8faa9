/**
 * @file
 * The one command-line parser of the report-writing benches and of
 * aqreport. A command declares its value flags, its switches and how
 * many positional paths it takes; anything else fails loudly: an
 * unknown flag, a value flag given last, a number that is not a JSON
 * number ("inf", "0x10"), an integer that is fractional, negative or
 * trailed by junk ("4x"). Args::error holds the first fault.
 */

#ifndef AQUOMAN_OBS_CLI_ARGS_HH
#define AQUOMAN_OBS_CLI_ARGS_HH

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <initializer_list>
#include <map>
#include <string>
#include <vector>

#include "obs/json.hh"

namespace aquoman::obs {

/** One command line: paths, flag values (switches map to ""), error. */
struct Args
{
    std::vector<std::string> paths;
    std::map<std::string, std::string> values;
    std::string error;

    bool has(const std::string &flag) const { return values.count(flag); }

    /** Value of @p flag, or "" when it was not given. */
    std::string
    value(const std::string &flag) const
    {
        return has(flag) ? values.at(flag) : std::string();
    }

    /** @p flag as a number, which must parse completely. */
    double
    number(const std::string &flag, double fallback)
    {
        double v = fallback;
        if (has(flag) && !parseJsonNumber(values[flag], &v) && error.empty())
            error = flag + " expects a number, got '" + values[flag] + "'";
        return v;
    }

    /** @p flag as a non-negative decimal integer. */
    std::uint64_t
    integer(const std::string &flag, std::uint64_t fallback)
    {
        std::string s = value(flag);
        std::uint64_t v = fallback;
        auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
        if (has(flag) && (ec != std::errc() || end != s.data() + s.size())
            && error.empty())
            error = flag + " expects a non-negative integer, got '" + s + "'";
        return v;
    }
};

/**
 * Split argv[first..] into paths, switches and flag values. Each of
 * @p valueFlags takes the next argument; each of @p switchFlags stands
 * alone; any other "--" argument is unknown. Exactly @p npaths paths
 * must remain.
 */
inline Args
parseArgs(int argc, char **argv, int first,
          std::initializer_list<std::string> valueFlags,
          std::initializer_list<std::string> switchFlags, std::size_t npaths)
{
    auto listed = [](std::initializer_list<std::string> flags,
                     const std::string &s) {
        return std::find(flags.begin(), flags.end(), s) != flags.end();
    };
    Args a;
    for (int i = first; i < argc && a.error.empty(); ++i) {
        std::string s = argv[i];
        if (s.rfind("--", 0) != 0)
            a.paths.push_back(s);
        else if (listed(switchFlags, s))
            a.values[s] = "";
        else if (!listed(valueFlags, s))
            a.error = "unknown flag " + s;
        else if (i + 1 == argc)
            a.error = s + " needs a value";
        else
            a.values[s] = argv[++i];
    }
    if (a.error.empty() && a.paths.size() != npaths)
        a.error = "expected " + std::to_string(npaths)
            + " file argument(s), got " + std::to_string(a.paths.size());
    return a;
}

} // namespace aquoman::obs

#endif // AQUOMAN_OBS_CLI_ARGS_HH
