/**
 * @file
 * Small string parsing helpers shared by the CLI tools, so each tool
 * does not grow its own subtly-different copy.
 */

#ifndef TEMPO_CLI_STRINGS_HH
#define TEMPO_CLI_STRINGS_HH

#include <string>
#include <vector>

namespace tempo::cli {

/** Strip leading/trailing ASCII whitespace. */
std::string trim(const std::string &s);

/**
 * Split a comma-separated list into trimmed values.
 * @throws std::invalid_argument when the list is empty or any value
 *         is empty ("a,,b", trailing comma, lone whitespace).
 */
std::vector<std::string> splitCommas(const std::string &s);

} // namespace tempo::cli

#endif // TEMPO_CLI_STRINGS_HH
