/** @file Tests for the INI-style configuration parser. */

#include "config/config.hh"

#include <cstdio>
#include <fstream>

#include <gtest/gtest.h>

#include "util/logging.hh"

namespace accel {
namespace {

TEST(Config, ParsesSectionsAndKeys)
{
    Config cfg = Config::fromString(
        "[aes-ni]\n"
        "C = 2.0e9\n"
        "alpha = 0.165844\n"
        "[encryption]\n"
        "L = 2530\n");
    EXPECT_TRUE(cfg.has("aes-ni", "C"));
    EXPECT_DOUBLE_EQ(cfg.getDouble("aes-ni", "alpha"), 0.165844);
    EXPECT_DOUBLE_EQ(cfg.getDouble("encryption", "L"), 2530);
}

TEST(Config, GlobalSection)
{
    Config cfg = Config::fromString("top = 1\n[sec]\nk = 2\n");
    EXPECT_DOUBLE_EQ(cfg.getDouble("", "top"), 1.0);
    EXPECT_DOUBLE_EQ(cfg.getDouble("sec", "k"), 2.0);
}

TEST(Config, CommentsStripped)
{
    Config cfg = Config::fromString(
        "# leading comment\n"
        "a = 1 ; trailing\n"
        "b = 2 # trailing hash\n");
    EXPECT_DOUBLE_EQ(cfg.getDouble("", "a"), 1.0);
    EXPECT_DOUBLE_EQ(cfg.getDouble("", "b"), 2.0);
}

TEST(Config, WhitespaceTolerant)
{
    Config cfg = Config::fromString("  [ sec ]  \n  key =   value  \n");
    EXPECT_EQ(cfg.getString("sec", "key"), "value");
}

TEST(Config, MissingKeyThrows)
{
    Config cfg = Config::fromString("[s]\na = 1\n");
    EXPECT_THROW(cfg.getString("s", "b"), FatalError);
    EXPECT_THROW(cfg.getDouble("other", "a"), FatalError);
}

TEST(Config, DefaultsReturned)
{
    Config cfg = Config::fromString("[s]\na = 1\n");
    EXPECT_DOUBLE_EQ(cfg.getDouble("s", "missing", 3.5), 3.5);
    EXPECT_EQ(cfg.getString("s", "missing", "dflt"), "dflt");
}

TEST(Config, SyntaxErrors)
{
    EXPECT_THROW(Config::fromString("[unterminated\n"), FatalError);
    EXPECT_THROW(Config::fromString("[]\n"), FatalError);
    EXPECT_THROW(Config::fromString("novalue\n"), FatalError);
    EXPECT_THROW(Config::fromString("= bare\n"), FatalError);
}

TEST(Config, DuplicateKeyLastWins)
{
    LogLevel prev = setLogLevel(LogLevel::Silent);
    Config cfg = Config::fromString("a = 1\na = 2\n");
    setLogLevel(prev);
    EXPECT_DOUBLE_EQ(cfg.getDouble("", "a"), 2.0);
}

TEST(Config, SectionsAndKeysPreserveOrder)
{
    Config cfg = Config::fromString("[b]\nz=1\na=2\n[a]\nk=3\n");
    auto secs = cfg.sections();
    ASSERT_EQ(secs.size(), 2u);
    EXPECT_EQ(secs[0], "b");
    EXPECT_EQ(secs[1], "a");
    auto keys = cfg.keys("b");
    ASSERT_EQ(keys.size(), 2u);
    EXPECT_EQ(keys[0], "z");
    EXPECT_EQ(keys[1], "a");
}

TEST(Config, SetInsertsAndOverwrites)
{
    Config cfg;
    cfg.set("s", "k", "v1");
    cfg.set("s", "k", "v2");
    EXPECT_EQ(cfg.getString("s", "k"), "v2");
    EXPECT_EQ(cfg.keys("s").size(), 1u);
}

TEST(Config, FromFileRoundTrip)
{
    std::string path = testing::TempDir() + "/accel_config_test.ini";
    {
        std::ofstream out(path);
        out << "[case]\nC = 2.5e9\nthreading = sync-os\n";
    }
    Config cfg = Config::fromFile(path);
    EXPECT_DOUBLE_EQ(cfg.getDouble("case", "C"), 2.5e9);
    EXPECT_EQ(cfg.getString("case", "threading"), "sync-os");
    std::remove(path.c_str());
}

TEST(Config, FromFileMissingThrows)
{
    EXPECT_THROW(Config::fromFile("/nonexistent/path.ini"), FatalError);
}

TEST(Config, KeysOfUnknownSectionEmpty)
{
    Config cfg = Config::fromString("[s]\na=1\n");
    EXPECT_TRUE(cfg.keys("nope").empty());
}

TEST(Config, UnusedKeysTracksProbes)
{
    Config cfg = Config::fromString("[s]\na = 1\nb = 2\nc = 3\n");
    // Nothing probed yet: every key is unused, in insertion order.
    auto unused = cfg.unusedKeys("s");
    ASSERT_EQ(unused.size(), 3u);
    EXPECT_EQ(unused[0], "a");
    EXPECT_EQ(unused[1], "b");
    EXPECT_EQ(unused[2], "c");

    cfg.getDouble("s", "b"); // get() marks accessed
    cfg.has("s", "c");      // a bare existence probe counts too
    unused = cfg.unusedKeys("s");
    ASSERT_EQ(unused.size(), 1u);
    EXPECT_EQ(unused[0], "a");
}

TEST(Config, UnusedKeysIgnoresProbesForAbsentKeys)
{
    Config cfg = Config::fromString("[s]\na = 1\n");
    // Probing a key that is not there must not mark anything.
    EXPECT_FALSE(cfg.has("s", "zzz"));
    cfg.getDouble("s", "zzz", 7.0);
    auto unused = cfg.unusedKeys("s");
    ASSERT_EQ(unused.size(), 1u);
    EXPECT_EQ(unused[0], "a");
}

TEST(Config, UnusedKeysScopedToSection)
{
    Config cfg = Config::fromString("[x]\na = 1\n[y]\na = 2\n");
    cfg.getDouble("x", "a");
    EXPECT_TRUE(cfg.unusedKeys("x").empty());
    ASSERT_EQ(cfg.unusedKeys("y").size(), 1u);
    EXPECT_TRUE(cfg.unusedKeys("nope").empty());
}

TEST(Config, FromStringStartsWithNoAccesses)
{
    // The parser's own duplicate-detection probes must not leak into
    // the access record handed to unknown-key validation.
    LogLevel prev = setLogLevel(LogLevel::Silent);
    Config cfg = Config::fromString("[s]\na = 1\na = 2\nb = 3\n");
    setLogLevel(prev);
    EXPECT_EQ(cfg.unusedKeys("s").size(), 2u);
}

} // namespace
} // namespace accel
