/**
 * @file
 * Status-message and error-reporting helpers.
 *
 * Follows the gem5 idiom: inform() for status, warn() for suspicious but
 * survivable conditions, fatal() for user errors (bad configuration,
 * invalid arguments), and panic() for internal invariant violations.
 * Unlike gem5 we raise typed exceptions instead of terminating the
 * process so library users and tests can observe and handle failures.
 */

#pragma once

#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace accel {

/** Error raised by fatal(): the caller supplied invalid input. */
class FatalError : public std::runtime_error
{
  public:
    explicit FatalError(const std::string &msg)
        : std::runtime_error("fatal: " + msg)
    {}
};

/**
 * Run one throwing check and, if it raises FatalError, append its
 * message (the "fatal: " prefix stripped) to @p out after @p where.
 * Validators use this to report every problem at once instead of
 * stopping at the first.
 */
template <typename Fn>
void
collectFatal(std::vector<std::string> &out, std::string_view where,
             Fn &&check)
{
    try {
        check();
    } catch (const FatalError &e) {
        std::string msg = e.what();
        const std::string prefix = "fatal: ";
        if (msg.rfind(prefix, 0) == 0)
            msg.erase(0, prefix.size());
        out.push_back(std::string(where) + msg);
    }
}

/** Error raised by panic(): an internal invariant was violated. */
class PanicError : public std::logic_error
{
  public:
    explicit PanicError(const std::string &msg)
        : std::logic_error("panic: " + msg)
    {}
};

/**
 * Verbosity control for inform()/warn(). Messages below the threshold are
 * suppressed; benches use this to keep figure output clean.
 */
enum class LogLevel { Silent = 0, Warn = 1, Inform = 2 };

/** Set the global log level; returns the previous level. */
LogLevel setLogLevel(LogLevel level);

/** Current global log level. */
LogLevel logLevel();

/** Print an informational status message to stderr. */
void inform(const std::string &msg);

/** Print a warning about a survivable but suspicious condition. */
void warn(const std::string &msg);

/**
 * Report an unrecoverable user error (bad config, invalid argument).
 * @throws FatalError always.
 */
[[noreturn]] void fatal(const std::string &msg);

/**
 * Report an internal invariant violation (a bug in this library).
 * @throws PanicError always.
 */
[[noreturn]] void panic(const std::string &msg);

/**
 * Check a user-facing precondition, raising FatalError on failure.
 *
 * The const char* overload keeps the success path allocation-free;
 * the message only becomes a std::string when the check fails. Hot
 * paths (the simulator's per-event checks, the allocator) rely on
 * this.
 *
 * @param ok    condition that must hold
 * @param msg   description of the violated requirement
 */
inline void
require(bool ok, const char *msg)
{
    if (!ok) [[unlikely]]
        fatal(msg);
}

/** require() for messages composed at the call site. */
inline void
require(bool ok, const std::string &msg)
{
    if (!ok) [[unlikely]]
        fatal(msg);
}

/** Check an internal invariant, raising PanicError on failure. */
inline void
ensure(bool ok, const char *msg)
{
    if (!ok) [[unlikely]]
        panic(msg);
}

/** ensure() for messages composed at the call site. */
inline void
ensure(bool ok, const std::string &msg)
{
    if (!ok) [[unlikely]]
        panic(msg);
}

/**
 * Count-based rate limiter for warn(): the first N occurrences print,
 * the rest are counted, and flushSummary() reports the suppressed
 * total. Count-based (not wall-clock-based) on purpose — fault storms
 * in the simulator must produce byte-identical logs for a given seed,
 * and the determinism lint bans clock reads in simulation code.
 *
 * Typical use: one warner per failure class (e.g. offload timeouts),
 * warn() on every occurrence, flushSummary() at end of run.
 */
class RateLimitedWarner
{
  public:
    /**
     * @param label  failure-class name, prefixed to every message
     * @param firstN occurrences printed before suppression starts
     */
    explicit RateLimitedWarner(std::string label, std::uint64_t firstN = 5);

    /** Print (first N times) or count (afterwards) one occurrence. */
    void warn(const std::string &msg);

    /** Occurrences seen so far. */
    std::uint64_t occurrences() const { return occurrences_; }

    /** Occurrences swallowed since the last flushSummary(). */
    std::uint64_t suppressed() const { return suppressed_; }

    /**
     * Emit "<label>: suppressed K similar warning(s)" when any were
     * swallowed, then reset the suppressed counter (occurrences keep
     * accumulating). Quiet when nothing was suppressed.
     */
    void flushSummary();

  private:
    std::string label_;
    std::uint64_t firstN_;
    std::uint64_t occurrences_ = 0;
    std::uint64_t suppressed_ = 0;
};

} // namespace accel
