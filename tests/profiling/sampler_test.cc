/** @file Tests for the IPF joint distribution and trace sampler. */

#include "profiling/sampler.hh"

#include <gtest/gtest.h>

namespace accel::profiling {
namespace {

using workload::Functionality;
using workload::LeafCategory;
using workload::ServiceId;

TEST(Joint, MassSumsToOne)
{
    JointDistribution joint(workload::profile(ServiceId::Cache1));
    double total = 0;
    for (Functionality f : workload::allFunctionalities())
        total += joint.functionalityMass(f);
    EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(Joint, IpfMatchesBothMarginals)
{
    for (ServiceId id : workload::characterizedServices()) {
        const auto &profile = workload::profile(id);
        JointDistribution joint(profile);
        for (Functionality f : workload::allFunctionalities()) {
            EXPECT_NEAR(joint.functionalityMass(f),
                        profile.functionalityShare.at(f) / 100.0, 0.02)
                << toString(id) << "/" << toString(f);
        }
        for (LeafCategory l : workload::allLeafCategories()) {
            EXPECT_NEAR(joint.leafMass(l),
                        profile.leafShare.at(l) / 100.0, 0.02)
                << toString(id) << "/" << toString(l);
        }
    }
}

TEST(Joint, ZeroMarginalsStayZero)
{
    // Web has no feature extraction and no math leaves.
    JointDistribution joint(workload::profile(ServiceId::Web));
    EXPECT_DOUBLE_EQ(
        joint.functionalityMass(Functionality::FeatureExtraction), 0.0);
    EXPECT_DOUBLE_EQ(joint.leafMass(LeafCategory::Math), 0.0);
}

TEST(Joint, AffinityConcentratesDomainPairs)
{
    // For Cache1, SSL leaves should live almost entirely under secure
    // I/O, and ZSTD under compression.
    JointDistribution joint(workload::profile(ServiceId::Cache1));
    double ssl_total = joint.leafMass(LeafCategory::Ssl);
    double ssl_in_io = joint.mass(Functionality::SecureInsecureIO,
                                  LeafCategory::Ssl);
    EXPECT_GT(ssl_in_io / ssl_total, 0.7);
    double zstd_total = joint.leafMass(LeafCategory::Zstd);
    double zstd_in_comp =
        joint.mass(Functionality::Compression, LeafCategory::Zstd);
    EXPECT_GT(zstd_in_comp / zstd_total, 0.6);
}

TEST(Joint, SampleFrequenciesMatchMass)
{
    JointDistribution joint(workload::profile(ServiceId::Feed1));
    Rng rng(5);
    std::map<int, int> counts;
    const int n = 200000;
    for (int i = 0; i < n; ++i) {
        auto [f, l] = joint.sample(rng);
        counts[static_cast<int>(f) * 100 + static_cast<int>(l)]++;
    }
    double pred_math = joint.mass(Functionality::PredictionRanking,
                                  LeafCategory::Math);
    int key = static_cast<int>(Functionality::PredictionRanking) * 100 +
              static_cast<int>(LeafCategory::Math);
    EXPECT_NEAR(static_cast<double>(counts[key]) / n, pred_math, 0.01);
}

TEST(Sampler, TracesAreWellFormed)
{
    TraceSampler sampler(workload::profile(ServiceId::Cache1),
                         workload::CpuGen::GenC, 1);
    for (int i = 0; i < 1000; ++i) {
        CallTrace t = sampler.sample();
        ASSERT_GE(t.frames.size(), 3u);
        EXPECT_EQ(symbolName(t.frames.front()), "start_thread");
        EXPECT_GT(t.cycles, 0);
        EXPECT_GT(t.instructions, 0);
        EXPECT_LT(t.ipc(), 4.0);
    }
}

TEST(Sampler, Deterministic)
{
    auto run = [] {
        TraceSampler s(workload::profile(ServiceId::Web),
                       workload::CpuGen::GenB, 99);
        std::string sig;
        for (int i = 0; i < 50; ++i)
            sig += symbolName(s.sample().leafFrame()) + ";";
        return sig;
    };
    EXPECT_EQ(run(), run());
}

TEST(Sampler, InstructionsFollowGenerationIpc)
{
    // The same seed on GenA vs GenC: GenC traces retire at least as
    // many instructions per cycle on average.
    auto mean_ipc = [](workload::CpuGen gen) {
        TraceSampler s(workload::profile(ServiceId::Cache1), gen, 7);
        double cycles = 0, instr = 0;
        for (int i = 0; i < 20000; ++i) {
            CallTrace t = s.sample();
            cycles += t.cycles;
            instr += t.instructions;
        }
        return instr / cycles;
    };
    EXPECT_GT(mean_ipc(workload::CpuGen::GenC),
              mean_ipc(workload::CpuGen::GenA));
}

TEST(Sampler, ManyConvenience)
{
    TraceSampler s(workload::profile(ServiceId::Ads1),
                   workload::CpuGen::GenC, 3);
    auto traces = s.sampleMany(128);
    EXPECT_EQ(traces.size(), 128u);
}

} // namespace
} // namespace accel::profiling
