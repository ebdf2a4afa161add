/**
 * @file
 * ServiceSpec: the unified construction API. Covers the fluent
 * builder, all-at-once error aggregation, the relocated hedge+Sync
 * cross-check, and the shared-tier exclusions.
 */

#include <gtest/gtest.h>

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

} // namespace
} // namespace accel::microsim
