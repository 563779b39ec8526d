/**
 * @file
 * Strict parsing of command-line flags, config values and environment
 * variables. std::strtoul accepts a sign, blanks and trailing junk
 * ("-1" wraps to 2^64-1, "1x" reads as 1); std::from_chars with a
 * full-length check accepts none of them. Errors are
 * std::invalid_argument naming the flag or variable, which the tools
 * map to exit status 2.
 */

#ifndef TEMPO_COMMON_PARSE_HH
#define TEMPO_COMMON_PARSE_HH

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

namespace tempo {

/** A decimal integer of digits only, at most @p max. */
inline std::uint64_t
parseU64(const std::string &name, const std::string &value,
         std::uint64_t max = std::numeric_limits<std::uint64_t>::max())
{
    std::uint64_t parsed = 0;
    const char *end = value.data() + value.size();
    const auto [ptr, ec] = std::from_chars(value.data(), end, parsed);
    const bool tooBig = ec == std::errc::result_out_of_range;
    if (ptr != end || (ec != std::errc() && !tooBig))
        throw std::invalid_argument(name + " expects a non-negative "
                                    "integer, got '" + value + "'");
    if (tooBig || parsed > max)
        throw std::invalid_argument(name + " must be at most "
                                    + std::to_string(max) + ", got '"
                                    + value + "'");
    return parsed;
}

/** parseU64() for an `unsigned` field. */
inline unsigned
parseUnsigned(const std::string &name, const std::string &value)
{
    return static_cast<unsigned>(
        parseU64(name, value, std::numeric_limits<unsigned>::max()));
}

/** A finite decimal number such as "2.5", "-1" or "1e3". */
inline double
parseDouble(const std::string &name, const std::string &value)
{
    double parsed = 0;
    const char *end = value.data() + value.size();
    const auto [ptr, ec] = std::from_chars(value.data(), end, parsed);
    if (ec != std::errc() || ptr != end || !std::isfinite(parsed))
        throw std::invalid_argument(name + " expects a number, got '"
                                    + value + "'");
    return parsed;
}

/** parseDouble() for a duration in seconds, which must be >= 0. */
inline double
parseSeconds(const std::string &name, const std::string &value)
{
    const double seconds = parseDouble(name, value);
    if (seconds < 0)
        throw std::invalid_argument(name + " must be >= 0, got '" + value
                                    + "'");
    return seconds;
}

/** @p s without leading and trailing ASCII whitespace. */
inline std::string
trim(const std::string &s)
{
    const char *ws = " \t\r\n";
    const std::size_t begin = s.find_first_not_of(ws);
    if (begin == std::string::npos)
        return {};
    return s.substr(begin, s.find_last_not_of(ws) - begin + 1);
}

/** A comma-separated list as trimmed values.
 * @throws std::invalid_argument when the list is empty or any value
 *         is empty ("a,,b", trailing comma, lone whitespace). */
inline std::vector<std::string>
splitCommas(const std::string &s)
{
    std::vector<std::string> out;
    for (std::size_t begin = 0; begin <= s.size();) {
        const std::size_t comma = std::min(s.find(',', begin), s.size());
        out.push_back(trim(s.substr(begin, comma - begin)));
        if (out.back().empty())
            throw std::invalid_argument(
                "empty value in comma-separated list '" + s + "'");
        begin = comma + 1;
    }
    return out;
}

/** Environment variable @p name, or nullptr when unset or empty (an
 * empty value keeps the default). */
inline const char *
envValue(const char *name)
{
    const char *value = std::getenv(name);
    return value && value[0] != '\0' ? value : nullptr;
}

} // namespace tempo

#endif // TEMPO_COMMON_PARSE_HH
