/**
 * @file
 * ServiceSpec: the unified construction API. Covers the fluent
 * builder, all-at-once error aggregation, the relocated hedge+Sync
 * cross-check, fromConfig round-tripping against hand-built specs,
 * and fromConfig's rejection of keys it does not consume.
 */

#include <gtest/gtest.h>

#include "config/config.hh"
#include "microsim/service_sim.hh"
#include "microsim/service_spec.hh"
#include "util/logging.hh"

namespace accel::microsim {
namespace {

ServiceConfig
service()
{
    ServiceConfig cfg;
    cfg.cores = 2;
    cfg.threads = 2;
    cfg.design = model::ThreadingDesign::Sync;
    cfg.clockGHz = 1.0;
    cfg.offloadSetupCycles = 20;
    return cfg;
}

AcceleratorConfig
device()
{
    AcceleratorConfig dev;
    dev.speedupFactor = 8;
    dev.fixedLatencyCycles = 40;
    return dev;
}

WorkloadSpec
workload()
{
    WorkloadSpec w;
    w.nonKernelCyclesMean = 4000;
    w.kernelsPerRequest = 1;
    w.granularity = std::make_shared<const BucketDist>(
        std::vector<DistBucket>{{400, 600, 1.0}});
    w.cyclesPerByte = 2.0;
    return w;
}

TEST(ServiceSpec, FluentBuilderRoundTripsFields)
{
    ServiceSpec spec = ServiceSpec("web")
                           .service(service())
                           .accelerator(device())
                           .workload(workload())
                           .seed(7);
    EXPECT_EQ(spec.name(), "web");
    EXPECT_EQ(spec.service().cores, 2u);
    EXPECT_DOUBLE_EQ(spec.accelerator().speedupFactor, 8.0);
    EXPECT_EQ(spec.workload().kernelsPerRequest, 1u);
    EXPECT_EQ(spec.seed(), 7u);
    EXPECT_TRUE(spec.errors().empty());
    EXPECT_NO_THROW(spec.validate());
}

TEST(ServiceSpec, BuildSimRunsTheService)
{
    ServiceSim sim(ServiceSpec("unit")
                       .service(service())
                       .accelerator(device())
                       .workload(workload())
                       .seed(3));
    ServiceMetrics m = sim.run(0.02, 0.005);
    EXPECT_GT(m.requestsCompleted, 0u);
}

TEST(ServiceSpec, ErrorsCollectsEveryProblemAtOnce)
{
    // Three independent problems: a bad service shape, a bad device,
    // and a bad workload. The old constructor path stopped at the
    // first; the spec names all of them.
    ServiceConfig svc = service();
    svc.clockGHz = 0.0;
    AcceleratorConfig dev = device();
    dev.speedupFactor = 0.0;
    WorkloadSpec w = workload();
    w.nonKernelCyclesMean = -1.0;

    ServiceSpec spec = ServiceSpec("broken")
                           .service(svc)
                           .accelerator(dev)
                           .workload(w);
    std::vector<std::string> errs = spec.errors();
    ASSERT_EQ(errs.size(), 3u);
    EXPECT_NE(errs[0].find("clockGHz"), std::string::npos);
    EXPECT_NE(errs[1].find("speedupFactor"), std::string::npos);
    EXPECT_NE(errs[2].find("non-kernel cycles"), std::string::npos);

    // validate() reports the spec name and every entry in one throw.
    try {
        spec.validate();
        FAIL() << "validate() should have thrown";
    } catch (const FatalError &e) {
        std::string msg = e.what();
        EXPECT_NE(msg.find("broken"), std::string::npos);
        EXPECT_NE(msg.find("clockGHz"), std::string::npos);
        EXPECT_NE(msg.find("speedupFactor"), std::string::npos);
        EXPECT_NE(msg.find("non-kernel cycles"), std::string::npos);
    }
}

TEST(ServiceSpec, HedgeWithSyncDesignIsASpecError)
{
    // Moved out of the ServiceSim constructor: assembly-time callers
    // (ServiceGraph) collect it per node instead of dying on the first.
    TierConfig tier;
    tier.replicas = 2;
    tier.hedge.enabled = true;
    tier.hedge.delayCycles = 500;
    ServiceSpec spec = ServiceSpec("hedged")
                           .service(service())
                           .accelerator(device())
                           .tier(tier)
                           .workload(workload());
    std::vector<std::string> errs = spec.errors();
    ASSERT_EQ(errs.size(), 1u);
    EXPECT_NE(errs.front().find("hedge"), std::string::npos);
    EXPECT_NE(errs.front().find("Sync"), std::string::npos);
}

TEST(ServiceSpec, SharedTierExcludesOwnTierAndAutoscaler)
{
    TierConfig tier;
    tier.replicas = 3;
    ServiceConfig svc = service();
    svc.openArrivalsPerSec = 50000;
    svc.maxArrivalQueue = 64;
    svc.autoscaler.enabled = true;
    svc.autoscaler.sloLatencyCycles = 1e6; // valid on its own terms
    ServiceSpec spec = ServiceSpec("contender")
                           .service(svc)
                           .accelerator(device())
                           .tier(tier)
                           .workload(workload())
                           .sharedTier("infer");
    std::vector<std::string> errs = spec.errors();
    ASSERT_EQ(errs.size(), 2u);
    EXPECT_NE(errs[0].find("non-trivial"), std::string::npos);
    EXPECT_NE(errs[1].find("autoscaler"), std::string::npos);

    // And a standalone ServiceSim refuses shared tiers outright: they
    // only exist inside a ServiceGraph.
    ServiceSpec standalone = ServiceSpec("solo")
                                 .service(service())
                                 .accelerator(device())
                                 .workload(workload())
                                 .sharedTier("infer");
    EXPECT_THROW(ServiceSim{standalone}, FatalError);
}

TEST(ServiceSpec, FromConfigRoundTripsAgainstHandBuiltSpec)
{
    Config cfg = Config::fromString(
        "[svc]\n"
        "cores = 2\n"
        "threads = 2\n"
        "threading = sync\n"
        "clock_ghz = 1.0\n"
        "offload_setup = 20\n"
        "accel_speedup = 8\n"
        "accel_fixed_latency = 40\n"
        "work_non_kernel_cycles = 4000\n"
        "work_kernels_per_request = 1\n"
        "work_granularity_cdf = 400:600:1.0\n"
        "work_cycles_per_byte = 2.0\n"
        "seed = 7\n");
    ServiceSpec parsed = ServiceSpec::fromConfig(cfg, "svc");
    EXPECT_EQ(parsed.name(), "svc");
    EXPECT_TRUE(parsed.errors().empty());

    ServiceSpec built = ServiceSpec("svc")
                            .service(service())
                            .accelerator(device())
                            .workload(workload())
                            .seed(7);

    // Round trip: the parsed spec must drive the simulator to the
    // bit-identical result of the hand-built equivalent.
    ServiceMetrics from_config = ServiceSim(parsed).run(0.02, 0.005);
    ServiceMetrics from_builder = ServiceSim(built).run(0.02, 0.005);
    EXPECT_EQ(from_config.summaryJson(), from_builder.summaryJson());
}

TEST(ServiceSpec, FromConfigParsesResilienceAndTierKeys)
{
    Config cfg = Config::fromString(
        "[svc]\n"
        "cores = 1\n"
        "threads = 2\n"
        "threading = async\n"
        "clock_ghz = 2.0\n"
        "retry_timeout = 2000\n"
        "retry_max_attempts = 3\n"
        "breaker_open_threshold = 0.4\n"
        "breaker_window = 16\n"
        "tier_replicas = 2\n"
        "work_non_kernel_cycles = 1000\n"
        "work_kernels_per_request = 1\n"
        "work_granularity_cdf = 100:200:1.0\n"
        "work_cycles_per_byte = 1.0\n"
        "shared_tier = infer\n");
    ServiceSpec spec = ServiceSpec::fromConfig(cfg, "svc");
    EXPECT_DOUBLE_EQ(spec.service().retry.timeoutCycles, 2000.0);
    EXPECT_EQ(spec.service().retry.maxAttempts, 3u);
    EXPECT_TRUE(spec.service().breaker.enabled);
    EXPECT_DOUBLE_EQ(spec.service().breaker.openThreshold, 0.4);
    EXPECT_EQ(spec.service().breaker.window, 16u);
    EXPECT_EQ(spec.tier().replicas, 2u);
    EXPECT_EQ(spec.sharedTierName(), "infer");
    // shared_tier + tier_replicas is the documented conflict.
    std::vector<std::string> errs = spec.errors();
    ASSERT_EQ(errs.size(), 1u);
    EXPECT_NE(errs.front().find("non-trivial"), std::string::npos);
}

TEST(ServiceSpec, FromConfigRejectsUnknownKeysByName)
{
    // The classic silent-misconfiguration bug: a typoed key parses
    // fine and the run silently measures the wrong thing. fromConfig
    // now rejects any key it did not consume, naming it.
    Config cfg = Config::fromString(
        "[svc]\n"
        "cores = 1\n"
        "threads = 1\n"
        "threading = sync\n"
        "clock_ghz = 1.0\n"
        "work_non_kernel_cycles = 1000\n"
        "tier_hege_delay = 500\n"); // typo of tier_hedge_delay
    try {
        ServiceSpec::fromConfig(cfg, "svc");
        FAIL() << "typoed key accepted";
    } catch (const FatalError &e) {
        std::string msg = e.what();
        EXPECT_NE(msg.find("tier_hege_delay"), std::string::npos);
        EXPECT_NE(msg.find("svc"), std::string::npos);
    }
}

TEST(ServiceSpec, FromConfigListsEveryUnknownKey)
{
    Config cfg = Config::fromString(
        "[svc]\n"
        "cores = 1\n"
        "threads = 1\n"
        "threading = sync\n"
        "clock_ghz = 1.0\n"
        "work_non_kernel_cycles = 1000\n"
        "first_typo = 1\n"
        "second_typo = 2\n");
    try {
        ServiceSpec::fromConfig(cfg, "svc");
        FAIL() << "typoed keys accepted";
    } catch (const FatalError &e) {
        std::string msg = e.what();
        EXPECT_NE(msg.find("first_typo"), std::string::npos);
        EXPECT_NE(msg.find("second_typo"), std::string::npos);
    }
}

TEST(ServiceSpec, FromConfigRejectsBreakerKeysWithoutThreshold)
{
    // breaker_open_threshold enables the breaker; its dependent keys
    // mean nothing without it. A service section follows the edge rule
    // and rejects them by name instead of silently ignoring them.
    Config cfg = Config::fromString(
        "[svc]\n"
        "cores = 1\n"
        "threads = 1\n"
        "threading = sync\n"
        "clock_ghz = 1.0\n"
        "retry_timeout = 2000\n"
        "work_non_kernel_cycles = 1000\n"
        "breaker_window = 64\n");
    try {
        ServiceSpec::fromConfig(cfg, "svc");
        FAIL() << "breaker_window without a threshold accepted";
    } catch (const FatalError &e) {
        std::string msg = e.what();
        EXPECT_NE(msg.find("breaker_window"), std::string::npos);
        EXPECT_NE(msg.find("svc"), std::string::npos);
    }
}

} // namespace
} // namespace accel::microsim
