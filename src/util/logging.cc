#include "util/logging.hh"

#include <iostream>

namespace accel {

namespace {
LogLevel g_level = LogLevel::Inform;
} // namespace

LogLevel
setLogLevel(LogLevel level)
{
    LogLevel prev = g_level;
    g_level = level;
    return prev;
}

LogLevel
logLevel()
{
    return g_level;
}

void
inform(const std::string &msg)
{
    if (g_level >= LogLevel::Inform)
        std::cerr << "info: " << msg << "\n";
}

void
warn(const std::string &msg)
{
    if (g_level >= LogLevel::Warn)
        std::cerr << "warn: " << msg << "\n";
}

void
fatal(const std::string &msg)
{
    throw FatalError(msg);
}

void
panic(const std::string &msg)
{
    throw PanicError(msg);
}

RateLimitedWarner::RateLimitedWarner(std::string label,
                                     std::uint64_t firstN)
    : label_(std::move(label)), firstN_(firstN)
{}

bool
RateLimitedWarner::admit()
{
    ++occurrences_;
    if (occurrences_ <= firstN_)
        return true;
    ++suppressed_;
    return false;
}

void
RateLimitedWarner::emit(const std::string &msg)
{
    accel::warn(label_ + ": " + msg);
    if (occurrences_ == firstN_)
        accel::warn(label_ + ": further warnings suppressed");
}

void
RateLimitedWarner::flushSummary()
{
    if (suppressed_ == 0)
        return;
    accel::warn(label_ + ": suppressed " + std::to_string(suppressed_) +
                " similar warning(s)");
    suppressed_ = 0;
}

} // namespace accel
