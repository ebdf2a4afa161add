/** @file Tests for status-message and error-reporting helpers. */

#include "util/logging.hh"

#include <gtest/gtest.h>

namespace accel {
namespace {

TEST(Logging, FatalThrowsFatalError)
{
    EXPECT_THROW(fatal("bad config"), FatalError);
}

TEST(Logging, PanicThrowsPanicError)
{
    EXPECT_THROW(panic("broken invariant"), PanicError);
}

TEST(Logging, FatalMessageIsPrefixed)
{
    try {
        fatal("something the user did");
        FAIL() << "fatal returned";
    } catch (const FatalError &e) {
        EXPECT_STREQ(e.what(), "fatal: something the user did");
    }
}

TEST(Logging, PanicMessageIsPrefixed)
{
    try {
        panic("a bug");
        FAIL() << "panic returned";
    } catch (const PanicError &e) {
        EXPECT_STREQ(e.what(), "panic: a bug");
    }
}

TEST(Logging, RequirePassesOnTrue)
{
    EXPECT_NO_THROW(require(true, "unused"));
}

TEST(Logging, RequireThrowsOnFalse)
{
    EXPECT_THROW(require(false, "violated"), FatalError);
}

TEST(Logging, EnsurePassesOnTrue)
{
    EXPECT_NO_THROW(ensure(true, "unused"));
}

TEST(Logging, EnsureThrowsOnFalse)
{
    EXPECT_THROW(ensure(false, "violated"), PanicError);
}

TEST(Logging, FatalErrorIsRuntimeError)
{
    EXPECT_THROW(fatal("x"), std::runtime_error);
}

TEST(Logging, PanicErrorIsLogicError)
{
    EXPECT_THROW(panic("x"), std::logic_error);
}

TEST(Logging, SetLogLevelReturnsPrevious)
{
    LogLevel prev = setLogLevel(LogLevel::Silent);
    EXPECT_EQ(logLevel(), LogLevel::Silent);
    setLogLevel(prev);
    EXPECT_EQ(logLevel(), prev);
}

TEST(Logging, InformAndWarnDoNotThrowWhenSilenced)
{
    LogLevel prev = setLogLevel(LogLevel::Silent);
    EXPECT_NO_THROW(inform("status"));
    EXPECT_NO_THROW(warn("odd"));
    setLogLevel(prev);
}

TEST(Logging, RateLimitedWarnerPrintsFirstNThenSuppresses)
{
    RateLimitedWarner w("flaky device", /*firstN=*/2);
    testing::internal::CaptureStderr();
    for (int i = 0; i < 5; ++i)
        w.warn([i] { return "event " + std::to_string(i); });
    std::string err = testing::internal::GetCapturedStderr();
    EXPECT_NE(err.find("flaky device: event 0"), std::string::npos);
    EXPECT_NE(err.find("flaky device: event 1"), std::string::npos);
    EXPECT_EQ(err.find("event 2"), std::string::npos);
    EXPECT_NE(err.find("further warnings suppressed"),
              std::string::npos);
    EXPECT_EQ(w.occurrences(), 5u);
    EXPECT_EQ(w.suppressed(), 3u);
}

TEST(Logging, RateLimitedWarnerFlushReportsAndResetsSuppressed)
{
    RateLimitedWarner w("retry", /*firstN=*/1);
    testing::internal::CaptureStderr();
    for (int i = 0; i < 4; ++i)
        w.warn([] { return std::string("x"); });
    w.flushSummary();
    std::string err = testing::internal::GetCapturedStderr();
    EXPECT_NE(err.find("retry: suppressed 3 similar warning(s)"),
              std::string::npos);
    EXPECT_EQ(w.suppressed(), 0u); // flushed
    EXPECT_EQ(w.occurrences(), 4u);

    // A flush with nothing suppressed prints nothing.
    testing::internal::CaptureStderr();
    w.flushSummary();
    EXPECT_EQ(testing::internal::GetCapturedStderr(), "");
}

TEST(Logging, RateLimitedWarnerCountsEvenWhenSilenced)
{
    // Determinism requirement: suppression is count-based, so the
    // counters must not depend on whether stderr output is enabled.
    LogLevel prev = setLogLevel(LogLevel::Silent);
    RateLimitedWarner w("quiet", 3);
    for (int i = 0; i < 10; ++i)
        w.warn([] { return std::string("x"); });
    EXPECT_EQ(w.occurrences(), 10u);
    EXPECT_EQ(w.suppressed(), 7u);
    setLogLevel(prev);
}

} // namespace
} // namespace accel
