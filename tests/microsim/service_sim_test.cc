/** @file Behavioural tests for the closed-loop service simulator. */

#include "microsim/service_sim.hh"
#include "microsim/service_spec.hh"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <string>
#include <vector>

#include "util/logging.hh"

namespace accel::microsim {
namespace {

/** Spec-path construction for the common (cfg, dev, work, seed) shape. */
ServiceSpec
simSpec(const ServiceConfig &cfg, const AcceleratorConfig &dev,
        const WorkloadSpec &work, std::uint64_t seed)
{
    return ServiceSpec()
        .service(cfg)
        .accelerator(dev)
        .workload(work)
        .seed(seed);
}

using model::Strategy;
using model::ThreadingDesign;

std::shared_ptr<const BucketDist>
fixedSizes(double bytes)
{
    return std::make_shared<const BucketDist>(
        std::vector<DistBucket>{{bytes, bytes + 1, 1.0}});
}

/** Deterministic workload: 4000 non-kernel + one 1000-cycle kernel. */
WorkloadSpec
workload()
{
    WorkloadSpec w;
    w.nonKernelCyclesMean = 4000;
    w.nonKernelCv = 0.0;
    w.kernelsPerRequest = 1;
    w.granularity = fixedSizes(500);
    w.cyclesPerByte = 2.0; // ~1000 cycles per kernel
    return w;
}

ServiceConfig
baseConfig(ThreadingDesign design)
{
    ServiceConfig cfg;
    cfg.cores = 1;
    cfg.threads = design == ThreadingDesign::SyncOS ? 4 : 1;
    cfg.design = design;
    cfg.clockGHz = 1.0; // 1e9 cycles per second
    return cfg;
}

TEST(ServiceConfig, ValidationRules)
{
    ServiceConfig cfg = baseConfig(ThreadingDesign::Sync);
    EXPECT_NO_THROW(cfg.validate());

    cfg.threads = 2; // Sync requires one thread per core
    EXPECT_THROW(cfg.validate(), FatalError);

    cfg = baseConfig(ThreadingDesign::SyncOS);
    cfg.threads = 1; // Sync-OS requires over-subscription
    EXPECT_THROW(cfg.validate(), FatalError);

    cfg = baseConfig(ThreadingDesign::Sync);
    cfg.clockGHz = 0;
    EXPECT_THROW(cfg.validate(), FatalError);

    cfg = baseConfig(ThreadingDesign::Sync);
    cfg.maxOutstanding = 0;
    EXPECT_THROW(cfg.validate(), FatalError);
}

TEST(ServiceConfig, ValidationRejectsDegenerateValues)
{
    ServiceConfig cfg = baseConfig(ThreadingDesign::Sync);
    cfg.cores = 0;
    EXPECT_THROW(cfg.validate(), FatalError);

    cfg = baseConfig(ThreadingDesign::Sync);
    cfg.offloadSetupCycles = -5;
    EXPECT_THROW(cfg.validate(), FatalError);

    cfg = baseConfig(ThreadingDesign::Sync);
    cfg.contextSwitchCycles =
        std::numeric_limits<double>::infinity();
    EXPECT_THROW(cfg.validate(), FatalError);

    cfg = baseConfig(ThreadingDesign::Sync);
    cfg.minOffloadBytes = std::numeric_limits<double>::quiet_NaN();
    EXPECT_THROW(cfg.validate(), FatalError);

    cfg = baseConfig(ThreadingDesign::Sync);
    cfg.responsePickupCycles = -1;
    EXPECT_THROW(cfg.validate(), FatalError);

    cfg = baseConfig(ThreadingDesign::Sync);
    cfg.clockGHz = std::numeric_limits<double>::quiet_NaN();
    EXPECT_THROW(cfg.validate(), FatalError);
}

TEST(ServiceConfig, ValidationMessagesNameTheField)
{
    ServiceConfig cfg = baseConfig(ThreadingDesign::Sync);
    cfg.maxOutstanding = 0;
    try {
        cfg.validate();
        FAIL() << "maxOutstanding = 0 accepted";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("maxOutstanding"),
                  std::string::npos);
    }

    cfg = baseConfig(ThreadingDesign::Sync);
    cfg.minOffloadBytes = -1;
    try {
        cfg.validate();
        FAIL() << "negative minOffloadBytes accepted";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("minOffloadBytes"),
                  std::string::npos);
    }
}

TEST(ServiceSim, BaselineThroughputMatchesArithmetic)
{
    // Unaccelerated: each request costs 5000 cycles + 2 rounding cycles
    // at most; 1e9 cycles/s -> ~200k QPS.
    ServiceConfig cfg = baseConfig(ThreadingDesign::Sync);
    cfg.accelerated = false;
    ServiceSim sim(simSpec(cfg, AcceleratorConfig{}, workload(), 1));
    ServiceMetrics m = sim.run(0.1, 0.01);
    EXPECT_NEAR(m.qps(), 200000, 2000);
    EXPECT_EQ(m.offloadsIssued, 0u);
    EXPECT_EQ(m.kernelsOnHost, m.requestsCompleted);
}

TEST(ServiceSim, BaselineLatencyIsRequestCost)
{
    ServiceConfig cfg = baseConfig(ThreadingDesign::Sync);
    cfg.accelerated = false;
    ServiceSim sim(simSpec(cfg, AcceleratorConfig{}, workload(), 1));
    ServiceMetrics m = sim.run(0.05, 0.01);
    EXPECT_NEAR(m.meanLatencyCycles(), 5000, 60);
}

TEST(ServiceSim, SyncSpeedupMatchesModelArithmetic)
{
    // Sync offload, A=5, L=100, o0=50: per-request core time becomes
    // 4000 + 50 + (100 + 200 held) -> throughput 1e9 / 4350.
    ServiceConfig cfg = baseConfig(ThreadingDesign::Sync);
    cfg.offloadSetupCycles = 50;
    AcceleratorConfig acc;
    acc.speedupFactor = 5;
    acc.fixedLatencyCycles = 100;
    ServiceSim sim(simSpec(cfg, acc, workload(), 1));
    ServiceMetrics m = sim.run(0.1, 0.01);
    EXPECT_NEAR(m.qps(), 1e9 / 4350.0, 1e9 / 4350.0 * 0.02);
    EXPECT_GT(m.coreHeldIdleCycles, 0);
}

TEST(ServiceSim, SyncOSReleasesCoreDuringOffload)
{
    // Slow accelerator; over-subscribed threads keep the core busy, so
    // throughput beats Sync under the same device.
    WorkloadSpec w = workload();
    AcceleratorConfig acc;
    acc.speedupFactor = 1; // service = 1000 cycles
    acc.fixedLatencyCycles = 2000;

    ServiceConfig sync_cfg = baseConfig(ThreadingDesign::Sync);
    ServiceMetrics sync =
        ServiceSim(simSpec(sync_cfg, acc, w, 1)).run(0.05, 0.01);

    ServiceConfig os_cfg = baseConfig(ThreadingDesign::SyncOS);
    os_cfg.contextSwitchCycles = 100;
    os_cfg.driverWaitsForAck = false;
    ServiceMetrics os = ServiceSim(simSpec(os_cfg, acc, w, 1)).run(0.05, 0.01);

    EXPECT_GT(os.qps(), sync.qps() * 1.2);
    EXPECT_GT(os.switchOverheadCycles, 0);
}

TEST(ServiceSim, SyncOSChargesTwoSwitchesPerOffload)
{
    ServiceConfig cfg = baseConfig(ThreadingDesign::SyncOS);
    cfg.contextSwitchCycles = 150;
    cfg.driverWaitsForAck = false;
    AcceleratorConfig acc;
    acc.speedupFactor = 1;
    acc.fixedLatencyCycles = 3000;
    ServiceSim sim(simSpec(cfg, acc, workload(), 1));
    ServiceMetrics m = sim.run(0.05, 0.01);
    ASSERT_GT(m.offloadsIssued, 0u);
    EXPECT_NEAR(m.switchOverheadCycles /
                    static_cast<double>(m.offloadsIssued),
                300.0, 30.0);
}

TEST(ServiceSim, AsyncOverlapsAcceleratorWork)
{
    // Async same-thread: accelerator time leaves the throughput path;
    // per-request core time = 4000 + L-hold.
    ServiceConfig cfg = baseConfig(ThreadingDesign::AsyncSameThread);
    AcceleratorConfig acc;
    acc.speedupFactor = 2;
    acc.fixedLatencyCycles = 50;
    acc.channels = 4;
    ServiceSim sim(simSpec(cfg, acc, workload(), 1));
    ServiceMetrics m = sim.run(0.1, 0.01);
    EXPECT_NEAR(m.qps(), 1e9 / 4050.0, 1e9 / 4050.0 * 0.03);
    // The response (at ~2550 cycles) beats the host work (4050), so
    // latency is host-bound here.
    EXPECT_NEAR(m.meanLatencyCycles(), 4050, 120);
}

TEST(ServiceSim, AsyncBackpressureBounded)
{
    // A slow single-channel device with a tiny outstanding budget must
    // throttle the host instead of queueing unboundedly.
    ServiceConfig cfg = baseConfig(ThreadingDesign::AsyncSameThread);
    cfg.maxOutstanding = 2;
    WorkloadSpec w = workload();
    w.nonKernelCyclesMean = 100; // host could issue ~10M offloads/s
    AcceleratorConfig acc;
    acc.speedupFactor = 1; // device serves only ~1M offloads/s
    ServiceSim sim(simSpec(cfg, acc, w, 1));
    ServiceMetrics m = sim.run(0.05, 0.01);
    // Throughput is bounded by the device, not the host.
    EXPECT_NEAR(m.qps(), 1e6, 5e4);
    EXPECT_LE(m.accelerator.maxQueueDepth, 3u);
}

TEST(ServiceSim, AsyncNoResponseRemoteLatencyExcludesDevice)
{
    ServiceConfig cfg = baseConfig(ThreadingDesign::AsyncNoResponse);
    cfg.strategy = Strategy::Remote;
    cfg.driverWaitsForAck = false;
    AcceleratorConfig acc;
    acc.speedupFactor = 1;
    acc.fixedLatencyCycles = 1000000; // 1 ms network
    acc.channels = 64;
    ServiceSim sim(simSpec(cfg, acc, workload(), 1));
    ServiceMetrics m = sim.run(0.05, 0.01);
    // Service-local latency excludes the remote round trip entirely.
    EXPECT_LT(m.meanLatencyCycles(), 5000);
    EXPECT_GT(m.endToEndLatencyCycles.mean(), 1000000);
}

TEST(ServiceSim, SelectiveOffloadThreshold)
{
    ServiceConfig cfg = baseConfig(ThreadingDesign::Sync);
    cfg.minOffloadBytes = 1000; // kernels are 500 B: none qualify
    AcceleratorConfig acc;
    acc.speedupFactor = 10;
    ServiceSim sim(simSpec(cfg, acc, workload(), 1));
    ServiceMetrics m = sim.run(0.05, 0.01);
    EXPECT_EQ(m.offloadsIssued, 0u);
    EXPECT_EQ(m.kernelsOnHost, m.requestsCompleted);
}

TEST(ServiceSim, DeterministicAcrossRuns)
{
    auto run = [] {
        ServiceConfig cfg = baseConfig(ThreadingDesign::Sync);
        AcceleratorConfig acc;
        acc.speedupFactor = 3;
        WorkloadSpec w = workload();
        w.nonKernelCv = 0.4;
        ServiceSim sim(simSpec(cfg, acc, w, 77));
        return sim.run(0.05, 0.01).requestsCompleted;
    };
    EXPECT_EQ(run(), run());
}

TEST(ServiceSim, MultiCoreScalesThroughput)
{
    ServiceConfig one = baseConfig(ThreadingDesign::Sync);
    one.accelerated = false;
    ServiceConfig four = one;
    four.cores = 4;
    four.threads = 4;
    double q1 = ServiceSim(simSpec(one, AcceleratorConfig{}, workload(), 1))
                    .run(0.05, 0.01)
                    .qps();
    double q4 = ServiceSim(simSpec(four, AcceleratorConfig{}, workload(), 1))
                    .run(0.05, 0.01)
                    .qps();
    EXPECT_NEAR(q4 / q1, 4.0, 0.1);
}

TEST(ServiceSim, RunIsSingleUse)
{
    ServiceConfig cfg = baseConfig(ThreadingDesign::Sync);
    ServiceSim sim(simSpec(cfg, AcceleratorConfig{}, workload(), 1));
    sim.run(0.01, 0.0);
    EXPECT_THROW(sim.run(0.01, 0.0), PanicError);
}

TEST(ServiceSim, RunRejectsBadWindows)
{
    ServiceConfig cfg = baseConfig(ThreadingDesign::Sync);
    ServiceSim sim(simSpec(cfg, AcceleratorConfig{}, workload(), 1));
    EXPECT_THROW(sim.run(0.0), FatalError);
    EXPECT_THROW(sim.run(1.0, -0.5), FatalError);
}

TEST(ServiceSim, SharedTierNameNeedsTheSharedTier)
{
    // A spec naming a graph-shared tier must not quietly run on a
    // private device: without the tier, both constructors reject it.
    ServiceSpec spec = simSpec(baseConfig(ThreadingDesign::Sync),
                               AcceleratorConfig{}, workload(), 1)
                           .sharedTier("infer");
    try {
        ServiceSim standalone(spec);
        FAIL() << "a standalone ServiceSim accepted a shared-tier name";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("'infer'"), std::string::npos);
    }
    sim::EventQueue eq;
    EXPECT_THROW(ServiceSim(spec, eq, /*sharedTier=*/nullptr,
                            /*serverMode=*/true),
                 FatalError);
}

TEST(ServiceSim, WindowOpensAtTheWarmupTick)
{
    // A server-mode node on a caller-owned clock, fed only by
    // injections. ~5000-cycle host-only requests on one core: the two
    // injections just before the warmup tick straddle it.
    ServiceConfig cfg = baseConfig(ThreadingDesign::Sync);
    cfg.accelerated = false;
    sim::EventQueue eq;
    ServiceSim server(simSpec(cfg, AcceleratorConfig{}, workload(), 1), eq,
                      /*sharedTier=*/nullptr, /*serverMode=*/true);
    std::vector<sim::Tick> completed_at;
    server.setCompletionHook([&](std::uint64_t, sim::Tick, bool) {
        completed_at.push_back(eq.now());
    });

    const double warmup_seconds = 0.25; // exact in binary
    const sim::Tick warmup = 250000000; // at 1 GHz
    const std::vector<sim::Tick> inject_at = {
        0, warmup - 3000, warmup - 1000, warmup, warmup + 1, warmup + 50000};
    std::uint64_t token = 0;
    for (sim::Tick t : inject_at) {
        // Default priority: an injection at the warmup tick runs after
        // the window reset (priority -100) and counts.
        eq.schedule(t, [&server, tok = ++token]() {
            EXPECT_TRUE(server.injectArrival(tok));
        });
    }
    server.beginWindow(/*measureSeconds=*/0.25, warmup_seconds);
    eq.runUntil(server.windowEndTick());
    ServiceMetrics m = server.collectMetrics();

    ASSERT_EQ(completed_at.size(), inject_at.size());
    auto in_window = [warmup](sim::Tick t) { return t >= warmup; };
    std::uint64_t arrived = static_cast<std::uint64_t>(
        std::count_if(inject_at.begin(), inject_at.end(), in_window));
    std::uint64_t completed = static_cast<std::uint64_t>(
        std::count_if(completed_at.begin(), completed_at.end(), in_window));
    EXPECT_EQ(arrived, 3u);
    EXPECT_EQ(completed, 5u); // both straddlers finish after warmup
    EXPECT_EQ(m.requestsArrived, arrived);
    EXPECT_EQ(m.requestsCompleted, completed);
    EXPECT_EQ(m.latencySample.count(), completed);
}

} // namespace
} // namespace accel::microsim
