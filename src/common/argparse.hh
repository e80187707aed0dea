/**
 * @file
 * Strict numeric parsing for command-line flags and environment
 * variables. The seed CLI fed user text straight into std::stoul,
 * which terminates the process with an uncaught std::invalid_argument
 * on garbage; these helpers return std::nullopt instead so front ends
 * can print the offending flag and exit cleanly.
 */

#ifndef MSSR_COMMON_ARGPARSE_HH
#define MSSR_COMMON_ARGPARSE_HH

#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <initializer_list>
#include <limits>
#include <optional>
#include <string>
#include <utility>

#include "common/log.hh"

namespace mssr
{

/**
 * Parses the whole of @p s as a base-10 unsigned integer. Rejects
 * empty strings, signs, leading whitespace, trailing junk ("4x") and
 * values that overflow 64 bits.
 */
inline std::optional<std::uint64_t>
parseU64(const std::string &s)
{
    if (s.empty() || s[0] < '0' || s[0] > '9')
        return std::nullopt;
    errno = 0;
    char *end = nullptr;
    const unsigned long long v = std::strtoull(s.c_str(), &end, 10);
    if (end != s.c_str() + s.size() || errno == ERANGE)
        return std::nullopt;
    return static_cast<std::uint64_t>(v);
}

/**
 * Parses flag text @p s as an integer in [@p min, @p max]. On failure
 * returns nullopt and sets @p why to the reason ("expected an unsigned
 * integer", "must be >= N", "out of range"), the tail of a front end's
 * "invalid value 'V' for FLAG (why)" diagnostic.
 */
inline std::optional<std::uint64_t>
parseFlagU64(const std::string &s, std::uint64_t min, std::uint64_t max,
             std::string &why)
{
    const auto v = parseU64(s);
    if (!v)
        why = "expected an unsigned integer";
    else if (*v < min)
        why = "must be >= " + std::to_string(min);
    else if (*v > max)
        why = "out of range";
    else
        return v;
    return std::nullopt;
}

/**
 * Environment knob with the strict warn-and-fallback contract: an
 * unset variable silently yields @p fallback; a set-but-invalid value
 * (garbage, out of [min, max]) warns once with the offending text and
 * yields @p fallback rather than being half-parsed. This is the
 * MSSR_JOBS contract, shared by every numeric MSSR_* knob.
 */
inline std::uint64_t
envU64(const char *name, std::uint64_t fallback, std::uint64_t min = 0,
       std::uint64_t max = std::numeric_limits<std::uint64_t>::max())
{
    const char *raw = std::getenv(name);
    if (!raw)
        return fallback;
    const auto v = parseU64(raw);
    if (v && *v >= min && *v <= max)
        return *v;
    warn("ignoring invalid ", name, "='", raw, "' (want integer in [", min,
         ", ", max, "]); using ", fallback);
    return fallback;
}

/**
 * Boolean environment knob: "1"/"true"/"yes"/"on" enable,
 * "0"/"false"/"no"/"off"/"" (and unset) disable, anything else warns
 * and falls back to disabled.
 */
inline bool
envFlag(const char *name)
{
    const char *raw = std::getenv(name);
    if (!raw)
        return false;
    const std::string s(raw);
    if (s == "1" || s == "true" || s == "yes" || s == "on")
        return true;
    if (s == "0" || s == "false" || s == "no" || s == "off" || s.empty())
        return false;
    warn("ignoring invalid ", name, "='", s,
         "' (want 0/1/true/false); treating as unset");
    return false;
}

/** One output-path flag for findDuplicateOutputPath(). */
struct OutputPathFlag
{
    const char *flag;         //!< e.g. "--stats-out"
    const std::string *path;  //!< empty string = flag not given
};

/**
 * Finds the first pair of output flags pointing at the same non-empty
 * path. Every front end with more than one output flag must run its
 * full flag set through this before opening anything: the last writer
 * would silently clobber the other's content otherwise, and each tool
 * growing its own pairwise loop is how --metrics-out/--log-out
 * collisions went unchecked. Returns the colliding pair of flag names
 * (in the order given) or nullopt.
 */
inline std::optional<std::pair<const char *, const char *>>
findDuplicateOutputPath(std::initializer_list<OutputPathFlag> outs)
{
    for (auto a = outs.begin(); a != outs.end(); ++a) {
        if (a->path->empty())
            continue;
        for (auto b = a + 1; b != outs.end(); ++b)
            if (*a->path == *b->path)
                return std::make_pair(a->flag, b->flag);
    }
    return std::nullopt;
}

} // namespace mssr

#endif // MSSR_COMMON_ARGPARSE_HH
