/** @file Tests for the config-file model front end. */

#include "model/config_frontend.hh"

#include <cstdio>
#include <fstream>
#include <string>

#include <gtest/gtest.h>

#include "util/logging.hh"

namespace accel::model {
namespace {

const char *kAesConfig =
    "[aes-ni]\n"
    "C = 2.0e9\n"
    "alpha = 0.165844\n"
    "n = 298951\n"
    "o0 = 10\n"
    "L = 3\n"
    "A = 6\n"
    "strategy = on-chip\n"
    "threading = sync\n";

TEST(ConfigFrontend, ParsesTable6Row)
{
    Config cfg = Config::fromString(kAesConfig);
    Params p = paramsFromConfig(cfg, "aes-ni");
    EXPECT_DOUBLE_EQ(p.hostCycles, 2.0e9);
    EXPECT_DOUBLE_EQ(p.alpha, 0.165844);
    EXPECT_DOUBLE_EQ(p.offloads, 298951);
    EXPECT_EQ(p.strategy, Strategy::OnChip);
    Accelerometer m(p);
    EXPECT_NEAR(m.speedup(ThreadingDesign::Sync) - 1.0, 0.157, 0.002);
}

TEST(ConfigFrontend, DefaultsApplied)
{
    Config cfg = Config::fromString("[x]\nC=1e9\nalpha=0.1\nn=10\n");
    Params p = paramsFromConfig(cfg, "x");
    EXPECT_DOUBLE_EQ(p.setupCycles, 0);
    EXPECT_DOUBLE_EQ(p.accelFactor, 1);
    EXPECT_DOUBLE_EQ(p.offloadedFraction, 1);
    EXPECT_EQ(p.strategy, Strategy::OffChip);
    EXPECT_EQ(threadingFromConfig(cfg, "x"), ThreadingDesign::Sync);
}

TEST(ConfigFrontend, MissingRequiredKeyThrows)
{
    Config cfg = Config::fromString("[x]\nC=1e9\nn=10\n");
    EXPECT_THROW(paramsFromConfig(cfg, "x"), FatalError);
}

TEST(ConfigFrontend, OutOfDomainValueThrows)
{
    Config cfg =
        Config::fromString("[x]\nC=1e9\nalpha=1.2\nn=10\n");
    EXPECT_THROW(paramsFromConfig(cfg, "x"), FatalError);
}

TEST(ConfigFrontend, CasesPreserveSectionOrder)
{
    Config cfg = Config::fromString(
        "[b]\nC=1e9\nalpha=0.1\nn=1\n[a]\nC=1e9\nalpha=0.2\nn=2\n");
    auto cases = casesFromConfig(cfg);
    ASSERT_EQ(cases.size(), 2u);
    EXPECT_EQ(cases[0].name, "b");
    EXPECT_EQ(cases[1].name, "a");
}

TEST(ConfigFrontend, RunConfigFileRendersReports)
{
    std::string path = testing::TempDir() + "/accel_frontend_test.ini";
    {
        std::ofstream out(path);
        out << kAesConfig;
    }
    std::string report = runConfigFile(path);
    EXPECT_NE(report.find("aes-ni"), std::string::npos);
    EXPECT_NE(report.find("15.7"), std::string::npos);
    std::remove(path.c_str());
}

TEST(ConfigFrontend, EmptyConfigRejected)
{
    std::string path = testing::TempDir() + "/accel_empty_test.ini";
    {
        std::ofstream out(path);
        out << "# nothing here\n";
    }
    EXPECT_THROW(runConfigFile(path), FatalError);
    std::remove(path.c_str());
}


TEST(ConfigFrontend, GranularityLiteralParsed)
{
    BucketDist d = granularityFromConfig("0:64:12, 64:128:6, 128:256:2");
    EXPECT_EQ(d.bucketCount(), 3u);
    EXPECT_NEAR(d.bucket(0).mass, 0.6, 1e-9);
    EXPECT_THROW(granularityFromConfig(""), FatalError);
    EXPECT_THROW(granularityFromConfig("1:2"), FatalError);
    EXPECT_THROW(granularityFromConfig("8:4:1"), FatalError);
}

TEST(ConfigFrontend, PlannerModeDerivesNFromCdf)
{
    // Fig. 20 off-chip Sync compression, planner-style: n must come
    // out at ~9,629 of 15,008 and the speedup at ~9.1%.
    Config cfg = Config::fromString(
        "[comp]\n"
        "C = 2.3e9\nalpha = 0.15\nL = 2300\nA = 27\n"
        "threading = sync\ncb = 5.62\nn_total = 15008\n"
        "granularity_cdf = 0:64:12, 64:128:6, 128:256:8.02, "
        "256:512:14.88, 512:1024:18.7, 1024:2048:12, 2048:4096:9.5, "
        "4096:8192:8.8, 8192:16384:4.1, 16384:32768:3, 32768:65536:3\n");
    Params p = paramsFromConfig(cfg, "comp");
    EXPECT_NEAR(p.offloads, 9629, 100);
    EXPECT_NEAR(p.offloadedFraction, 0.6416, 0.005);
    Accelerometer m(p);
    EXPECT_NEAR(m.speedup(ThreadingDesign::Sync) - 1.0, 0.091, 0.003);
}

TEST(ConfigFrontend, PlannerModeBytesWeighting)
{
    Config cfg = Config::fromString(
        "[comp]\n"
        "C = 2.3e9\nalpha = 0.15\nL = 2300\nA = 27\n"
        "threading = sync\ncb = 5.62\nn_total = 15008\n"
        "weighting = bytes\n"
        "granularity_cdf = 0:64:50, 16384:65536:50\n");
    Params p = paramsFromConfig(cfg, "comp");
    // Half the offloads profit, but they carry nearly all the bytes.
    EXPECT_NEAR(p.offloads, 7504, 10);
    EXPECT_GT(p.offloadedFraction, 0.99);
}

TEST(ConfigFrontend, PlannerModeRejectsAmbiguity)
{
    // The planner derives n and offloaded_fraction, so giving either
    // one as well is an error naming it rather than a silent override.
    for (const std::string key : {"n", "offloaded_fraction"}) {
        Config cfg = Config::fromString(
            "[x]\nC=1e9\nalpha=0.1\ncb=2\nn_total=10\n" + key +
            " = 0.1\ngranularity_cdf = 0:64:1\n");
        try {
            paramsFromConfig(cfg, "x");
            FAIL() << key << " accepted in planner mode";
        } catch (const FatalError &e) {
            EXPECT_NE(std::string(e.what()).find("either " + key + " "),
                      std::string::npos)
                << e.what();
        }
    }
    Config bad = Config::fromString(
        "[x]\nC=1e9\nalpha=0.1\ncb=2\nn_total=10\n"
        "weighting = sideways\ngranularity_cdf = 0:64:1\n");
    EXPECT_THROW(paramsFromConfig(bad, "x"), FatalError);
}

TEST(ConfigFrontend, RejectsUnknownKeysByName)
{
    // Table 7's off-chip Sync row with offloaded_fraction misspelt.
    // Read silently, the typo keeps the default fraction of 1 and the
    // row projects +15.58 % instead of +9.06 %.
    Config cfg = Config::fromString(
        "[compression-off-chip-sync]\n"
        "C = 2.3e9\n"
        "alpha = 0.15\n"
        "n = 9629\n"
        "L = 2300\n"
        "A = 27\n"
        "offload_fraction = 0.6416\n"
        "strategy = off-chip\n"
        "threading = sync\n"
        "cores = 4\n");
    try {
        casesFromConfig(cfg);
        FAIL() << "typoed key accepted";
    } catch (const FatalError &e) {
        std::string msg = e.what();
        EXPECT_NE(msg.find("[compression-off-chip-sync]"),
                  std::string::npos) << msg;
        EXPECT_NE(msg.find("'offload_fraction'"), std::string::npos)
            << msg;
        EXPECT_NE(msg.find("'cores'"), std::string::npos) << msg;
    }
}

TEST(ConfigFrontend, ShippedConfigsReproduceThePaper)
{
    const std::string dir = ACCEL_CONFIGS_DIR;

    // Table 6: the three retrospective case studies.
    auto cases = casesFromConfig(Config::fromFile(dir + "/table6.ini"));
    ASSERT_EQ(cases.size(), 3u);
    const ThreadingDesign designs[] = {ThreadingDesign::Sync,
                                       ThreadingDesign::AsyncNoResponse,
                                       ThreadingDesign::AsyncDistinctThread};
    const double speedups[] = {0.1578, 0.0864, 0.7240};
    for (std::size_t i = 0; i < cases.size(); ++i) {
        EXPECT_EQ(cases[i].design, designs[i]) << cases[i].name;
        double got = Accelerometer(cases[i].params)
                         .speedup(cases[i].design) - 1.0;
        EXPECT_NEAR(got, speedups[i], 5e-5) << cases[i].name;
    }

    // Table 7: every row parses with no unknown key; the off-chip
    // Sync row carries its offloaded fraction.
    cases = casesFromConfig(Config::fromFile(dir + "/table7.ini"));
    ASSERT_EQ(cases.size(), 6u);
    EXPECT_EQ(cases[1].name, "compression-off-chip-sync");
    EXPECT_NEAR(Accelerometer(cases[1].params)
                        .speedup(cases[1].design) - 1.0,
                0.0906, 5e-5);
}

} // namespace
} // namespace accel::model
