#include "cli/strings.hh"

#include <stdexcept>

namespace tempo::cli {

std::string
trim(const std::string &s)
{
    const char *ws = " \t\r\n";
    const std::size_t begin = s.find_first_not_of(ws);
    if (begin == std::string::npos)
        return {};
    const std::size_t end = s.find_last_not_of(ws);
    return s.substr(begin, end - begin + 1);
}

std::vector<std::string>
splitCommas(const std::string &s)
{
    std::vector<std::string> out;
    std::size_t begin = 0;
    for (;;) {
        const std::size_t comma = s.find(',', begin);
        const std::string raw = comma == std::string::npos
            ? s.substr(begin)
            : s.substr(begin, comma - begin);
        const std::string value = trim(raw);
        if (value.empty())
            throw std::invalid_argument(
                "empty value in comma-separated list '" + s + "'");
        out.push_back(value);
        if (comma == std::string::npos)
            break;
        begin = comma + 1;
    }
    return out;
}

} // namespace tempo::cli
