/** @file Tests for string helpers and numeric parsing. */

#include "util/string_utils.hh"

#include <gtest/gtest.h>

#include "util/logging.hh"

namespace accel {
namespace {

TEST(Trim, StripsBothEnds)
{
    EXPECT_EQ(trim("  hello \t"), "hello");
}

TEST(Trim, EmptyAndWhitespaceOnly)
{
    EXPECT_EQ(trim(""), "");
    EXPECT_EQ(trim(" \t\n "), "");
}

TEST(Trim, PreservesInteriorWhitespace)
{
    EXPECT_EQ(trim(" a b "), "a b");
}

TEST(Split, BasicFields)
{
    auto parts = split("a,b,c", ',');
    ASSERT_EQ(parts.size(), 3u);
    EXPECT_EQ(parts[0], "a");
    EXPECT_EQ(parts[2], "c");
}

TEST(Split, PreservesEmptyFields)
{
    auto parts = split("a,,c,", ',');
    ASSERT_EQ(parts.size(), 4u);
    EXPECT_EQ(parts[1], "");
    EXPECT_EQ(parts[3], "");
}

TEST(Split, NoDelimiterYieldsSingleField)
{
    auto parts = split("abc", ',');
    ASSERT_EQ(parts.size(), 1u);
    EXPECT_EQ(parts[0], "abc");
}

TEST(ToLower, MixedCase)
{
    EXPECT_EQ(toLower("AbC-123"), "abc-123");
}

TEST(StartsEndsWith, Basics)
{
    EXPECT_TRUE(startsWith("offload", "off"));
    EXPECT_FALSE(startsWith("off", "offload"));
    EXPECT_TRUE(endsWith("offload", "load"));
    EXPECT_FALSE(endsWith("load", "offload"));
}

TEST(Join, WithSeparator)
{
    EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
    EXPECT_EQ(join({}, ","), "");
    EXPECT_EQ(join({"only"}, ","), "only");
}

TEST(ParseDouble, ScientificNotation)
{
    EXPECT_DOUBLE_EQ(parseDouble("2.3e9"), 2.3e9);
    EXPECT_DOUBLE_EQ(parseDouble("  -1.5 "), -1.5);
}

TEST(ParseDouble, RejectsGarbage)
{
    EXPECT_THROW(parseDouble("12abc"), FatalError);
    EXPECT_THROW(parseDouble(""), FatalError);
    EXPECT_THROW(parseDouble("1.2.3"), FatalError);
}

TEST(ParseCount, IntegralScientific)
{
    EXPECT_EQ(parseCount("298951"), 298951u);
    EXPECT_EQ(parseCount("2.5e9"), 2500000000u);
}

TEST(ParseCount, RejectsNegativeAndFractional)
{
    EXPECT_THROW(parseCount("-5"), FatalError);
    EXPECT_THROW(parseCount("1.5"), FatalError);
}

TEST(ParseCount, RejectsOverflowAndNonFinite)
{
    // uint64 max is ~1.8e19; anything at or beyond must throw rather
    // than wrap, and non-finite values must never reach the
    // float→integer cast (undefined behaviour for NaN/inf).
    EXPECT_THROW(parseCount("2e19"), FatalError);
    EXPECT_THROW(parseCount("1e300"), FatalError);
    EXPECT_THROW(parseCount("inf"), FatalError);
    EXPECT_THROW(parseCount("nan"), FatalError);
    EXPECT_THROW(parseCount("-nan"), FatalError);
}

TEST(ParseCount, AcceptsLargeExactValues)
{
    EXPECT_EQ(parseCount("1e18"), 1000000000000000000u);
    EXPECT_EQ(parseCount("0"), 0u);
}

TEST(ParseDouble, OverflowToInfinityRejected)
{
    // strtod sets ERANGE for 1e400; the parser must surface that as
    // a parse failure, not return inf.
    EXPECT_THROW(parseDouble("1e400"), FatalError);
    EXPECT_THROW(parseDouble("-1e400"), FatalError);
}

TEST(ParseDouble, WhitespaceOnlyRejected)
{
    EXPECT_THROW(parseDouble("   \t  "), FatalError);
}

} // namespace
} // namespace accel
