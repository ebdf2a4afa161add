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

TEST(ConfigFrontend, FaultPlanAbsentWithoutFaultKeys)
{
    Config cfg = Config::fromString(kAesConfig);
    EXPECT_EQ(faultPlanFromConfig(cfg, "aes-ni"), nullptr);
}

TEST(ConfigFrontend, FaultPlanParsesAllKeys)
{
    Config cfg = Config::fromString(
        "[x]\n"
        "fault_seed = 42\n"
        "fault_drop_p = 0.05\n"
        "fault_late_p = 0.1\n"
        "fault_late_cycles = 2500\n"
        "fault_spike_p = 0.2\n"
        "fault_spike_factor = 8\n"
        "fault_stalls = 1e6:2e6, 5e6:6e6\n"
        "fault_fail_at = 3e6\n"
        "fault_recover_at = 4e6\n");
    auto plan = faultPlanFromConfig(cfg, "x");
    ASSERT_NE(plan, nullptr);
    EXPECT_TRUE(plan->active());
    EXPECT_EQ(plan->seed, 42u);
    EXPECT_DOUBLE_EQ(plan->dropProbability, 0.05);
    EXPECT_DOUBLE_EQ(plan->lateProbability, 0.1);
    EXPECT_DOUBLE_EQ(plan->lateDelayCycles, 2500);
    EXPECT_DOUBLE_EQ(plan->transferSpikeProbability, 0.2);
    EXPECT_DOUBLE_EQ(plan->transferSpikeFactor, 8);
    ASSERT_EQ(plan->stallWindows.size(), 2u);
    EXPECT_EQ(plan->stallWindows[0].begin, 1000000);
    EXPECT_EQ(plan->stallWindows[0].end, 2000000);
    EXPECT_EQ(plan->stallWindows[1].begin, 5000000);
    EXPECT_EQ(plan->stallWindows[1].end, 6000000);
    EXPECT_EQ(plan->deviceFailAtTick, 3000000);
    EXPECT_EQ(plan->deviceRecoverAtTick, 4000000);
}

TEST(ConfigFrontend, FaultPlanSingleKeyActivates)
{
    Config cfg = Config::fromString("[x]\nfault_drop_p = 0.5\n");
    auto plan = faultPlanFromConfig(cfg, "x");
    ASSERT_NE(plan, nullptr);
    EXPECT_TRUE(plan->active());
    EXPECT_DOUBLE_EQ(plan->dropProbability, 0.5);
    EXPECT_TRUE(plan->stallWindows.empty());
}

TEST(ConfigFrontend, FaultPlanRejectsMalformedStalls)
{
    Config bad1 = Config::fromString("[x]\nfault_stalls = 1e6\n");
    EXPECT_THROW(faultPlanFromConfig(bad1, "x"), FatalError);
    Config bad2 =
        Config::fromString("[x]\nfault_stalls = 1:2:3\n");
    EXPECT_THROW(faultPlanFromConfig(bad2, "x"), FatalError);
    Config bad3 = Config::fromString("[x]\nfault_stalls = ,\n");
    EXPECT_THROW(faultPlanFromConfig(bad3, "x"), FatalError);
}

TEST(ConfigFrontend, FaultPlanRejectsNonCountTicks)
{
    // Ticks and seeds parse as counts, with the edge window rules: no
    // negative, fractional or nan ends, and no empty list entries.
    for (const char *line :
         {"fault_stalls = -5:10", "fault_stalls = 5:10.5",
          "fault_stalls = 1:2,", "fault_fail_at = -1",
          "fault_recover_at = nan", "fault_seed = 2.5"}) {
        Config cfg =
            Config::fromString(std::string("[x]\n") + line + "\n");
        EXPECT_THROW(faultPlanFromConfig(cfg, "x"), FatalError) << line;
    }
}

TEST(ConfigFrontend, FaultPlanValidationPropagates)
{
    // Out-of-domain probability is rejected by FaultPlan::validate.
    Config bad = Config::fromString("[x]\nfault_drop_p = 1.5\n");
    EXPECT_THROW(faultPlanFromConfig(bad, "x"), FatalError);
    // Late delay without late probability is degenerate the other way:
    // lateProbability > 0 requires a positive delay.
    Config bad2 = Config::fromString("[x]\nfault_late_p = 0.1\n");
    EXPECT_THROW(faultPlanFromConfig(bad2, "x"), FatalError);
    // Recovery before failure is inconsistent.
    Config bad3 = Config::fromString(
        "[x]\nfault_fail_at = 5e6\nfault_recover_at = 1e6\n");
    EXPECT_THROW(faultPlanFromConfig(bad3, "x"), FatalError);
}

TEST(ConfigFrontend, PlannerModeRejectsAmbiguity)
{
    Config cfg = Config::fromString(
        "[x]\nC=1e9\nalpha=0.1\nn=5\ncb=2\nn_total=10\n"
        "granularity_cdf = 0:64:1\n");
    EXPECT_THROW(paramsFromConfig(cfg, "x"), FatalError);
    Config bad = Config::fromString(
        "[x]\nC=1e9\nalpha=0.1\ncb=2\nn_total=10\n"
        "weighting = sideways\ngranularity_cdf = 0:64:1\n");
    EXPECT_THROW(paramsFromConfig(bad, "x"), FatalError);
}

} // namespace
} // namespace accel::model
