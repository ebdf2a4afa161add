/**
 * @file
 * End-to-end profiling pipeline tests: sample traces for each service,
 * run them through the taggers and aggregator, and check that the
 * recovered breakdowns reproduce the encoded characterization. This is
 * the library's equivalent of validating the paper's measurement path.
 */

#include <gtest/gtest.h>

#include "profiling/breakdown_report.hh"
#include "profiling/sampler.hh"

namespace accel::profiling {
namespace {

using workload::CpuGen;
using workload::Functionality;
using workload::LeafCategory;
using workload::ServiceId;

/** Traces per recovery test; enough for sub-percent share bounds. */
constexpr size_t kRecoveryTraces = 1000000;

class PipelineTest : public testing::TestWithParam<ServiceId>
{
};

TEST_P(PipelineTest, RecoversLeafBreakdown)
{
    const auto &profile = workload::profile(GetParam());
    Aggregator agg =
        profileService(GetParam(), CpuGen::GenC, 42, kRecoveryTraces);
    auto recovered = agg.leafBreakdown();
    for (LeafCategory l : workload::allLeafCategories()) {
        double expected = profile.leafShare.at(l);
        double got = recovered.count(l) ? recovered[l] : 0.0;
        EXPECT_NEAR(got, expected, 0.75)
            << profile.name << " / " << toString(l);
    }
}

TEST_P(PipelineTest, RecoversFunctionalityBreakdown)
{
    const auto &profile = workload::profile(GetParam());
    Aggregator agg =
        profileService(GetParam(), CpuGen::GenC, 43, kRecoveryTraces);
    auto recovered = agg.functionalityBreakdown();
    for (Functionality f : workload::allFunctionalities()) {
        double expected = profile.functionalityShare.at(f);
        double got = recovered.count(f) ? recovered[f] : 0.0;
        EXPECT_NEAR(got, expected, 0.75)
            << profile.name << " / " << toString(f);
    }
}

TEST_P(PipelineTest, RecoversMemorySubBreakdown)
{
    const auto &profile = workload::profile(GetParam());
    Aggregator agg =
        profileService(GetParam(), CpuGen::GenC, 44, kRecoveryTraces);
    auto recovered = agg.memoryBreakdown();
    for (auto leaf : workload::allMemoryLeaves()) {
        double expected = profile.memoryShare.at(leaf);
        double got = recovered.count(leaf) ? recovered[leaf] : 0.0;
        EXPECT_NEAR(got, expected, 1.0)
            << profile.name << " / " << toString(leaf);
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllServices, PipelineTest,
    testing::ValuesIn(workload::characterizedServices()),
    [](const testing::TestParamInfo<ServiceId> &info) {
        return workload::toString(info.param);
    });

TEST(Pipeline, RecoveredIpcMatchesPlatformTables)
{
    Aggregator agg =
        profileService(ServiceId::Cache1, CpuGen::GenC, 45, 100000);
    const auto &totals = agg.leafTotals();
    for (LeafCategory l : workload::ipcReportedLeafCategories()) {
        auto it = totals.find(l);
        ASSERT_NE(it, totals.end()) << toString(l);
        EXPECT_NEAR(it->second.ipc(),
                    workload::leafIpc(CpuGen::GenC, l), 0.02)
            << toString(l);
    }
}

TEST(Pipeline, ComparisonBlockRendersDiffs)
{
    const auto &profile = workload::profile(ServiceId::Web);
    Aggregator agg = profileService(ServiceId::Web, CpuGen::GenC, 46,
                                    20000);
    std::string block = comparisonBlock("Web leaves", profile.leafShare,
                                        agg.leafBreakdown());
    EXPECT_NE(block.find("paper %"), std::string::npos);
    EXPECT_NE(block.find("recovered %"), std::string::npos);
    EXPECT_NE(block.find("Memory"), std::string::npos);
}

TEST(Pipeline, ShareBlockRendersBars)
{
    const auto &profile = workload::profile(ServiceId::Cache2);
    std::string block =
        shareBlock("Cache2", profile.functionalityShare);
    EXPECT_NE(block.find("Cache2"), std::string::npos);
    EXPECT_NE(block.find("#"), std::string::npos);
}

} // namespace
} // namespace accel::profiling
