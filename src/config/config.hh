/**
 * @file
 * INI-style configuration files.
 *
 * The Accelerometer artifact drives the model from parameter configuration
 * files; this parser provides that front end. Grammar:
 *
 *     # comment            ; comment
 *     [section]
 *     key = value
 *
 * Keys outside any section land in the "" (global) section. Section and
 * key lookups are case-sensitive. Duplicate keys overwrite (last wins)
 * with a warning; duplicate sections merge.
 */

#pragma once

#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

namespace accel {

/** Parsed configuration with typed accessors. */
class Config
{
  public:
    Config() = default;

    /** Parse configuration text. @throws FatalError on syntax errors. */
    static Config fromString(const std::string &text);

    /** Load and parse a file. @throws FatalError if unreadable. */
    static Config fromFile(const std::string &path);

    /** True when the section/key pair exists. */
    bool has(const std::string &section, const std::string &key) const;

    /** Raw string value, or std::nullopt when absent. */
    std::optional<std::string> get(const std::string &section,
                                   const std::string &key) const;

    /**
     * Required string value.
     * @throws FatalError when the key is absent.
     */
    std::string getString(const std::string &section,
                          const std::string &key) const;

    /** String with default. */
    std::string getString(const std::string &section, const std::string &key,
                          const std::string &fallback) const;

    /** Required double. @throws FatalError when absent or malformed. */
    double getDouble(const std::string &section,
                     const std::string &key) const;

    /** Double with default. */
    double getDouble(const std::string &section, const std::string &key,
                     double fallback) const;

    /** All section names in insertion order (the global "" first if used). */
    std::vector<std::string> sections() const;

    /** All keys in a section, in insertion order. */
    std::vector<std::string> keys(const std::string &section) const;

    /** Insert or overwrite a value programmatically. */
    void set(const std::string &section, const std::string &key,
             const std::string &value);

    /**
     * Keys of @p section that no accessor has probed yet, in insertion
     * order. Every has()/get*() call records its (section, key) pair —
     * whether or not the key exists — so after a parser has walked a
     * section, anything left here is a key the parser does not
     * recognise (typically a typo like `tier_hege_delay`). Access
     * recording is not synchronised: parse a Config from one thread
     * before fanning work out.
     */
    std::vector<std::string> unusedKeys(const std::string &section) const;

  private:
    struct Section
    {
        std::vector<std::string> order;
        std::map<std::string, std::string> values;
    };

    void noteAccess(const std::string &section,
                    const std::string &key) const;

    std::vector<std::string> sectionOrder_;
    std::map<std::string, Section> sections_;
    /** Probed (section, key) pairs; mutable so const getters record. */
    mutable std::map<std::string, std::set<std::string>> accessed_;
};

} // namespace accel
