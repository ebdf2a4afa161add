#include "util/string_utils.hh"

#include <cctype>
#include <cmath>
#include <cstdlib>
#include <limits>

#include "util/logging.hh"

namespace accel {

std::string
trim(std::string_view s)
{
    size_t begin = 0;
    size_t end = s.size();
    while (begin < end && std::isspace(static_cast<unsigned char>(s[begin])))
        ++begin;
    while (end > begin &&
           std::isspace(static_cast<unsigned char>(s[end - 1])))
        --end;
    return std::string(s.substr(begin, end - begin));
}

std::vector<std::string>
split(std::string_view s, char delim)
{
    std::vector<std::string> out;
    size_t start = 0;
    while (true) {
        size_t pos = s.find(delim, start);
        if (pos == std::string_view::npos) {
            out.emplace_back(s.substr(start));
            break;
        }
        out.emplace_back(s.substr(start, pos - start));
        start = pos + 1;
    }
    return out;
}

std::string
toLower(std::string_view s)
{
    std::string out(s);
    for (char &c : out)
        c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    return out;
}

bool
startsWith(std::string_view s, std::string_view prefix)
{
    return s.size() >= prefix.size() &&
           s.substr(0, prefix.size()) == prefix;
}

bool
endsWith(std::string_view s, std::string_view suffix)
{
    return s.size() >= suffix.size() &&
           s.substr(s.size() - suffix.size()) == suffix;
}

std::string
join(const std::vector<std::string> &parts, std::string_view sep)
{
    std::string out;
    for (size_t i = 0; i < parts.size(); ++i) {
        if (i > 0)
            out += sep;
        out += parts[i];
    }
    return out;
}

double
parseDouble(std::string_view s)
{
    std::string t = trim(s);
    if (t.empty())
        fatal("parseDouble: empty string");
    char *end = nullptr;
    errno = 0;
    double v = std::strtod(t.c_str(), &end);
    if (errno != 0 || end != t.c_str() + t.size())
        fatal("parseDouble: malformed number '" + t + "'");
    return v;
}

std::uint64_t
parseCount(std::string_view s)
{
    double v = parseDouble(s);
    // NaN compares false against every bound below and would reach the
    // float→integer cast, which is undefined for NaN; reject it first.
    if (!std::isfinite(v))
        fatal("parseCount: non-finite value '" + std::string(s) + "'");
    if (v < 0)
        fatal("parseCount: negative value '" + std::string(s) + "'");
    if (v > static_cast<double>(std::numeric_limits<std::uint64_t>::max()))
        fatal("parseCount: value out of range '" + std::string(s) + "'");
    double rounded = std::round(v);
    if (std::abs(v - rounded) > 1e-6 * std::max(1.0, std::abs(v)))
        fatal("parseCount: non-integral value '" + std::string(s) + "'");
    return static_cast<std::uint64_t>(rounded);
}

} // namespace accel
