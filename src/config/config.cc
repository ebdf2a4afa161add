#include "config/config.hh"

#include <fstream>
#include <sstream>

#include "util/logging.hh"
#include "util/string_utils.hh"

namespace accel {

namespace {

/** Strip an unquoted trailing comment beginning with '#' or ';'. */
std::string
stripComment(const std::string &line)
{
    size_t pos = line.find_first_of("#;");
    if (pos == std::string::npos)
        return line;
    return line.substr(0, pos);
}

} // namespace

Config
Config::fromString(const std::string &text)
{
    Config cfg;
    std::istringstream in(text);
    std::string raw;
    std::string section;
    int lineno = 0;
    while (std::getline(in, raw)) {
        ++lineno;
        std::string line = trim(stripComment(raw));
        if (line.empty())
            continue;
        if (line.front() == '[') {
            if (line.back() != ']')
                fatal("config line " + std::to_string(lineno) +
                      ": unterminated section header");
            section = trim(line.substr(1, line.size() - 2));
            if (section.empty())
                fatal("config line " + std::to_string(lineno) +
                      ": empty section name");
            continue;
        }
        size_t eq = line.find('=');
        if (eq == std::string::npos)
            fatal("config line " + std::to_string(lineno) +
                  ": expected 'key = value'");
        std::string key = trim(line.substr(0, eq));
        std::string value = trim(line.substr(eq + 1));
        if (key.empty())
            fatal("config line " + std::to_string(lineno) + ": empty key");
        if (cfg.has(section, key))
            warn("config: duplicate key '" + key + "' in section [" +
                 section + "]; last value wins");
        cfg.set(section, key, value);
    }
    // The parser's own duplicate-detection probes are not consumer
    // accesses: a fresh Config starts with every key unused.
    cfg.accessed_.clear();
    return cfg;
}

Config
Config::fromFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        fatal("config: cannot open file '" + path + "'");
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return fromString(buffer.str());
}

bool
Config::has(const std::string &section, const std::string &key) const
{
    noteAccess(section, key);
    auto it = sections_.find(section);
    return it != sections_.end() && it->second.values.count(key) > 0;
}

std::optional<std::string>
Config::get(const std::string &section, const std::string &key) const
{
    noteAccess(section, key);
    auto it = sections_.find(section);
    if (it == sections_.end())
        return std::nullopt;
    auto kv = it->second.values.find(key);
    if (kv == it->second.values.end())
        return std::nullopt;
    return kv->second;
}

std::string
Config::getString(const std::string &section, const std::string &key) const
{
    auto v = get(section, key);
    if (!v)
        fatal("config: missing key '" + key + "' in section [" + section +
              "]");
    return *v;
}

std::string
Config::getString(const std::string &section, const std::string &key,
                  const std::string &fallback) const
{
    auto v = get(section, key);
    return v ? *v : fallback;
}

double
Config::getDouble(const std::string &section, const std::string &key) const
{
    return parseDouble(getString(section, key));
}

double
Config::getDouble(const std::string &section, const std::string &key,
                  double fallback) const
{
    auto v = get(section, key);
    return v ? parseDouble(*v) : fallback;
}

std::vector<std::string>
Config::sections() const
{
    return sectionOrder_;
}

std::vector<std::string>
Config::keys(const std::string &section) const
{
    auto it = sections_.find(section);
    if (it == sections_.end())
        return {};
    return it->second.order;
}

void
Config::noteAccess(const std::string &section,
                   const std::string &key) const
{
    accessed_[section].insert(key);
}

std::vector<std::string>
Config::unusedKeys(const std::string &section) const
{
    std::vector<std::string> out;
    auto it = sections_.find(section);
    if (it == sections_.end())
        return out;
    auto acc = accessed_.find(section);
    for (const std::string &key : it->second.order) {
        if (acc == accessed_.end() || acc->second.count(key) == 0)
            out.push_back(key);
    }
    return out;
}

void
Config::set(const std::string &section, const std::string &key,
            const std::string &value)
{
    auto it = sections_.find(section);
    if (it == sections_.end()) {
        sectionOrder_.push_back(section);
        it = sections_.emplace(section, Section{}).first;
    }
    auto &sec = it->second;
    if (sec.values.count(key) == 0)
        sec.order.push_back(key);
    sec.values[key] = value;
}

} // namespace accel
