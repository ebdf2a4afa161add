/**
 * @file
 * Tests for degraded-mode offload: deadlines, retry/backoff, host
 * fallback, the circuit breaker (as a unit and inside ServiceSim), and
 * deterministic fault replay.
 */

#include <gtest/gtest.h>

#include "faults/fault_plan.hh"
#include "microsim/ab_test.hh"
#include "microsim/resilience.hh"
#include "microsim/service_sim.hh"
#include "microsim/service_spec.hh"
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

using model::ThreadingDesign;

WorkloadSpec
workload()
{
    WorkloadSpec w;
    w.nonKernelCyclesMean = 4000;
    w.nonKernelCv = 0.0;
    w.kernelsPerRequest = 1;
    w.granularity = std::make_shared<const BucketDist>(
        std::vector<DistBucket>{{500, 501, 1.0}});
    w.cyclesPerByte = 2.0; // ~1000 host cycles per kernel
    return w;
}

ServiceConfig
service()
{
    ServiceConfig cfg;
    cfg.cores = 1;
    cfg.threads = 1;
    cfg.design = ThreadingDesign::Sync;
    cfg.clockGHz = 1.0;
    return cfg;
}

AcceleratorConfig
device(std::shared_ptr<const faults::FaultPlan> plan = nullptr)
{
    AcceleratorConfig dev;
    dev.speedupFactor = 5;
    dev.fixedLatencyCycles = 50;
    dev.faultPlan = std::move(plan);
    return dev;
}

std::shared_ptr<const faults::FaultPlan>
dropPlan(double p, std::uint64_t seed = 11)
{
    auto plan = std::make_shared<faults::FaultPlan>();
    plan->seed = seed;
    plan->dropProbability = p;
    return plan;
}

RetryPolicy
retryPolicy(std::uint32_t attempts)
{
    RetryPolicy r;
    r.timeoutCycles = 2000;
    r.maxAttempts = attempts;
    r.backoffBaseCycles = 500;
    r.backoffCapCycles = 2000;
    return r;
}

/** Warning spam from fault storms is expected; keep test logs clean. */
struct SilenceLogs
{
    LogLevel prev = setLogLevel(LogLevel::Silent);
    ~SilenceLogs() { setLogLevel(prev); }
};

TEST(Resilience, TimeoutThenRetrySucceedsAfterRecovery)
{
    SilenceLogs quiet;
    // Device dead from tick 0 to 30000: early offloads time out and
    // retry with backoff until the device comes back, then succeed.
    auto plan = std::make_shared<faults::FaultPlan>();
    plan->deviceFailAtTick = 0;
    plan->deviceRecoverAtTick = 30000;

    ServiceConfig cfg = service();
    cfg.retry = retryPolicy(50);
    ServiceSim sim(simSpec(cfg, device(plan), workload(), 21));
    ServiceMetrics m = sim.run(0.01, 0.0);

    EXPECT_GT(m.offloadTimeouts, 0u);
    EXPECT_GT(m.offloadRetries, 0u);
    EXPECT_EQ(m.hostFallbacks, 0u); // retries always won in the end
    EXPECT_EQ(m.offloadsAbandoned, 0u);
    EXPECT_EQ(m.requestsFailed, 0u);
    EXPECT_GT(m.requestsCompleted, 100u);
    EXPECT_GT(m.requestsDegraded, 0u); // the pre-recovery requests
    EXPECT_LT(m.requestsDegraded, m.requestsCompleted);
    EXPECT_GT(m.accelerator.lostToDeviceFailure, 0u);
}

TEST(Resilience, RetryExhaustionFallsBackToHost)
{
    SilenceLogs quiet;
    ServiceConfig cfg = service();
    cfg.retry = retryPolicy(2);
    ServiceSim sim(simSpec(cfg, device(dropPlan(1.0)), workload(), 22));
    ServiceMetrics m = sim.run(0.01, 0.0);

    EXPECT_GT(m.hostFallbacks, 0u);
    EXPECT_EQ(m.hostFallbacks, m.offloadRetries); // one retry each
    EXPECT_EQ(m.requestsFailed, 0u);  // fallback work still counts
    EXPECT_GT(m.fallbackHostCycles, 0.0);
    EXPECT_DOUBLE_EQ(m.goodputQps(), m.qps());
    EXPECT_EQ(m.requestsDegraded, m.requestsCompleted);
}

TEST(Resilience, AbandonmentWithoutFallbackCountsAsFailed)
{
    SilenceLogs quiet;
    ServiceConfig cfg = service();
    cfg.retry = retryPolicy(2);
    cfg.retry.hostFallback = false;
    ServiceSim sim(simSpec(cfg, device(dropPlan(1.0)), workload(), 23));
    ServiceMetrics m = sim.run(0.01, 0.0);

    EXPECT_GT(m.offloadsAbandoned, 0u);
    EXPECT_EQ(m.hostFallbacks, 0u);
    EXPECT_EQ(m.requestsFailed, m.requestsCompleted);
    EXPECT_DOUBLE_EQ(m.goodputQps(), 0.0);
    EXPECT_GT(m.qps(), 0.0); // requests still terminate
}

TEST(Resilience, BreakerOpensProbesAndCloses)
{
    SilenceLogs quiet;
    // Dead until tick 100k: the breaker opens on the initial timeout
    // burst, probes fail while the device is down, then a probe lands
    // after recovery and closes the breaker.
    auto plan = std::make_shared<faults::FaultPlan>();
    plan->deviceFailAtTick = 0;
    plan->deviceRecoverAtTick = 100000;

    ServiceConfig cfg = service();
    cfg.retry = retryPolicy(1);
    cfg.retry.timeoutCycles = 1000;
    cfg.breaker.enabled = true;
    cfg.breaker.window = 8;
    cfg.breaker.minSamples = 4;
    cfg.breaker.openThreshold = 0.5;
    cfg.breaker.probeAfterCycles = 20000;
    ServiceSim sim(simSpec(cfg, device(plan), workload(), 24));
    ServiceMetrics m = sim.run(0.01, 0.0);

    EXPECT_GE(m.breakerOpens, 1u);
    EXPECT_GE(m.breakerProbes, 2u); // failed probes plus the closer
    EXPECT_GE(m.breakerCloses, 1u);
    EXPECT_GT(m.breakerFallbacks, 0u);
    EXPECT_EQ(m.requestsFailed, 0u);
    // After the close the device serves normally again.
    EXPECT_GT(m.accelerator.served, 100u);
}

TEST(Resilience, TotalFailureTerminatesAndKeepsGoodputViaFallback)
{
    SilenceLogs quiet;
    // 100% drop rate, no breaker: every kernel walks the full ladder.
    // The run must terminate (bounded retries) and every request still
    // completes on the host.
    ServiceConfig cfg = service();
    cfg.retry = retryPolicy(3);
    ServiceSim sim(simSpec(cfg, device(dropPlan(1.0)), workload(), 25));
    ServiceMetrics m = sim.run(0.01, 0.0);

    EXPECT_GT(m.requestsCompleted, 0u);
    EXPECT_EQ(m.requestsFailed, 0u);
    // One kernel per request, so fallbacks track completions; the last
    // request may have fallen back but not yet completed at end tick.
    EXPECT_NEAR(static_cast<double>(m.hostFallbacks),
                static_cast<double>(m.requestsCompleted), 1.0);
    EXPECT_GT(m.goodputQps(), 0.0);
}

TEST(Resilience, LateCompletionsLoseTheDeadlineRace)
{
    SilenceLogs quiet;
    auto plan = std::make_shared<faults::FaultPlan>();
    plan->seed = 5;
    plan->lateProbability = 1.0;
    plan->lateDelayCycles = 50000; // far beyond any deadline

    ServiceConfig cfg = service();
    cfg.retry = retryPolicy(1);
    ServiceSim sim(simSpec(cfg, device(plan), workload(), 26));
    ServiceMetrics m = sim.run(0.01, 0.0);

    EXPECT_GT(m.offloadTimeouts, 0u);
    EXPECT_GT(m.lateCompletionsIgnored, 0u);
    EXPECT_GT(m.hostFallbacks, 0u);
    EXPECT_EQ(m.requestsFailed, 0u);
}

TEST(Resilience, EveryThreadingDesignSurvivesFaults)
{
    SilenceLogs quiet;
    struct Case
    {
        ThreadingDesign design;
        std::uint32_t cores, threads;
    };
    const std::vector<Case> cases = {
        {ThreadingDesign::Sync, 1, 1},
        {ThreadingDesign::SyncOS, 1, 3},
        {ThreadingDesign::AsyncSameThread, 1, 1},
        {ThreadingDesign::AsyncDistinctThread, 1, 1},
        {ThreadingDesign::AsyncNoResponse, 1, 1},
    };
    for (const Case &c : cases) {
        ServiceConfig cfg = service();
        cfg.design = c.design;
        cfg.cores = c.cores;
        cfg.threads = c.threads;
        cfg.contextSwitchCycles = 100;
        cfg.retry = retryPolicy(2);
        ServiceSim sim(simSpec(cfg, device(dropPlan(0.5)), workload(), 27));
        ServiceMetrics m = sim.run(0.01, 0.0);
        EXPECT_GT(m.requestsCompleted, 0u)
            << "design " << static_cast<int>(c.design);
        EXPECT_GT(m.hostFallbacks, 0u)
            << "design " << static_cast<int>(c.design);
        EXPECT_EQ(m.requestsFailed, 0u)
            << "design " << static_cast<int>(c.design);
    }
}

TEST(Resilience, DeterministicFaultReplay)
{
    SilenceLogs quiet;
    auto run = [] {
        auto plan = std::make_shared<faults::FaultPlan>();
        plan->seed = 99;
        plan->dropProbability = 0.3;
        plan->lateProbability = 0.2;
        plan->lateDelayCycles = 3000;
        plan->transferSpikeProbability = 0.1;
        plan->transferSpikeFactor = 8;
        ServiceConfig cfg = service();
        cfg.retry = retryPolicy(3);
        ServiceSim sim(simSpec(cfg, device(plan), workload(), 31));
        return sim.run(0.01, 0.0);
    };
    ServiceMetrics a = run();
    ServiceMetrics b = run();
    EXPECT_EQ(a.requestsCompleted, b.requestsCompleted);
    EXPECT_EQ(a.offloadTimeouts, b.offloadTimeouts);
    EXPECT_EQ(a.offloadRetries, b.offloadRetries);
    EXPECT_EQ(a.hostFallbacks, b.hostFallbacks);
    EXPECT_EQ(a.requestsDegraded, b.requestsDegraded);
    EXPECT_EQ(a.accelerator.droppedResponses,
              b.accelerator.droppedResponses);
    EXPECT_EQ(a.accelerator.lateResponses, b.accelerator.lateResponses);
    EXPECT_EQ(a.accelerator.spikedTransfers,
              b.accelerator.spikedTransfers);
    EXPECT_DOUBLE_EQ(a.meanLatencyCycles(), b.meanLatencyCycles());
    EXPECT_DOUBLE_EQ(a.latencySample.p99(), b.latencySample.p99());
}

TEST(Resilience, InertPlanMatchesNoPlanBitForBit)
{
    // Fault-off parity at unit scope: a constructed-but-empty plan must
    // leave every metric identical to running without the subsystem.
    auto run = [](std::shared_ptr<const faults::FaultPlan> plan) {
        ServiceSim sim(simSpec(service(), device(std::move(plan)), workload(),
                       32));
        return sim.run(0.01, 0.0);
    };
    ServiceMetrics without = run(nullptr);
    ServiceMetrics inert = run(std::make_shared<faults::FaultPlan>());
    EXPECT_EQ(without.requestsCompleted, inert.requestsCompleted);
    EXPECT_EQ(without.offloadsIssued, inert.offloadsIssued);
    EXPECT_DOUBLE_EQ(without.meanLatencyCycles(),
                     inert.meanLatencyCycles());
    EXPECT_DOUBLE_EQ(without.coreBusyCycles, inert.coreBusyCycles);
    EXPECT_EQ(without.accelerator.served, inert.accelerator.served);
}

TEST(Resilience, RetryPolicyOffMatchesPreFaultPath)
{
    // An engaged-but-never-firing policy must not change results
    // either: with a healthy device the deadline never expires.
    auto run = [](RetryPolicy retry) {
        ServiceConfig cfg = service();
        cfg.retry = retry;
        ServiceSim sim(simSpec(cfg, device(), workload(), 33));
        return sim.run(0.01, 0.0);
    };
    ServiceMetrics off = run(RetryPolicy{});
    ServiceMetrics armed = run(retryPolicy(3)); // timeout 2000 >> ~300
    EXPECT_EQ(off.requestsCompleted, armed.requestsCompleted);
    EXPECT_DOUBLE_EQ(off.meanLatencyCycles(), armed.meanLatencyCycles());
    EXPECT_EQ(armed.offloadTimeouts, 0u);
    EXPECT_EQ(armed.requestsDegraded, 0u);
}

TEST(Resilience, ResilienceAbTestComparesAgainstHostOnly)
{
    SilenceLogs quiet;
    AbExperiment e;
    e.service = service();
    e.service.retry = retryPolicy(1);
    e.service.retry.timeoutCycles = 1000;
    e.service.breaker.enabled = true;
    e.service.breaker.window = 8;
    e.service.breaker.minSamples = 4;
    e.service.breaker.probeAfterCycles = 50000;
    e.accelerator = device(dropPlan(1.0, 77));
    e.workload = workload();
    e.seed = 34;
    e.measureSeconds = 0.02;
    e.warmupSeconds = 0.005;

    ResilienceAbResult r = runResilienceAbTest(e);
    EXPECT_EQ(r.hostOnly.offloadsIssued, 0u);
    EXPECT_EQ(r.hostOnly.requestsFailed, 0u);
    EXPECT_GT(r.resilient.breakerFallbacks, 0u);
    // Dead device + breaker: goodput converges to the host-only arm.
    EXPECT_NEAR(r.goodputRatio(), 1.0, 0.05);
}

TEST(Resilience, ValidationRejectsDegeneratePolicies)
{
    ServiceConfig cfg = service();
    cfg.retry.timeoutCycles = -1;
    EXPECT_THROW(cfg.validate(), FatalError);

    cfg = service();
    cfg.retry.timeoutCycles = 1000;
    cfg.retry.maxAttempts = 0;
    EXPECT_THROW(cfg.validate(), FatalError);

    cfg = service();
    cfg.retry.timeoutCycles = 1000;
    cfg.retry.backoffFactor = 0.5;
    EXPECT_THROW(cfg.validate(), FatalError);

    cfg = service();
    cfg.breaker.enabled = true; // breaker without a timeout signal
    EXPECT_THROW(cfg.validate(), FatalError);

    cfg = service();
    cfg.retry.timeoutCycles = 1000;
    cfg.breaker.enabled = true;
    cfg.breaker.minSamples = 64;
    cfg.breaker.window = 32; // minSamples > window
    EXPECT_THROW(cfg.validate(), FatalError);

    cfg = service();
    cfg.retry.timeoutCycles = 1000;
    cfg.breaker.enabled = true;
    cfg.breaker.openThreshold = 0.0;
    EXPECT_THROW(cfg.validate(), FatalError);
}

// --- CircuitBreaker as a unit (the state machine both ServiceSim and
// --- ServiceGraph edges run) ---

using Transition = CircuitBreaker::Transition;

BreakerConfig
breakerConfig()
{
    BreakerConfig b;
    b.enabled = true;
    b.window = 4;
    b.minSamples = 2;
    b.openThreshold = 0.5;
    b.probeAfterCycles = 100;
    return b;
}

/** Trip @p b at tick @p now with failures (minSamples >= 2 results). */
void
trip(CircuitBreaker &b, sim::Tick now)
{
    ASSERT_EQ(b.record(false, false, now), Transition::None);
    ASSERT_EQ(b.record(false, false, now), Transition::Opened);
    ASSERT_FALSE(b.closed());
}

TEST(CircuitBreaker, DisabledPassesEverythingAndIgnoresResults)
{
    BreakerConfig cfg = breakerConfig();
    cfg.enabled = false;
    CircuitBreaker b(cfg);
    for (int i = 0; i < 16; ++i)
        EXPECT_EQ(b.record(false, false, 10), Transition::None);
    EXPECT_TRUE(b.closed());
    CircuitBreaker::Gate g = b.gate(1000);
    EXPECT_TRUE(g.pass);
    EXPECT_FALSE(g.probe);
}

TEST(CircuitBreaker, HoldsUntilMinSamples)
{
    BreakerConfig cfg = breakerConfig();
    cfg.minSamples = 3;
    CircuitBreaker b(cfg);
    // 100% failures, but only two results: not enough to judge.
    EXPECT_EQ(b.record(false, false, 0), Transition::None);
    EXPECT_EQ(b.record(false, false, 0), Transition::None);
    EXPECT_TRUE(b.closed());
    EXPECT_EQ(b.record(false, false, 0), Transition::Opened);
}

TEST(CircuitBreaker, OpensExactlyAtTheThreshold)
{
    BreakerConfig cfg = breakerConfig();
    cfg.minSamples = 4;
    CircuitBreaker b(cfg);
    // 1/4 failed, then 1/4 still (a success replaces nothing yet):
    // both below 0.5.
    EXPECT_EQ(b.record(true, false, 0), Transition::None);
    EXPECT_EQ(b.record(false, false, 0), Transition::None);
    EXPECT_EQ(b.record(true, false, 0), Transition::None);
    EXPECT_EQ(b.record(true, false, 0), Transition::None); // 1/4
    EXPECT_TRUE(b.closed());
    // Window [F T T F] = 2/4 = 0.5 >= threshold: opens now, not later.
    EXPECT_EQ(b.record(false, false, 7), Transition::Opened);
    EXPECT_FALSE(b.closed());
}

TEST(CircuitBreaker, WindowForgetsResultsOlderThanItsSize)
{
    BreakerConfig cfg = breakerConfig();
    cfg.minSamples = 4;
    cfg.openThreshold = 0.75;
    CircuitBreaker b(cfg);
    // Two failures, then four successes push both out of the window.
    EXPECT_EQ(b.record(false, false, 0), Transition::None);
    EXPECT_EQ(b.record(false, false, 0), Transition::None);
    for (int i = 0; i < 4; ++i)
        EXPECT_EQ(b.record(true, false, 0), Transition::None);
    // Were the evicted failures still counted, two fresh ones would
    // make 4 failures in a window of 4 and trip the breaker. With
    // eviction the window is [T T F F] = 0.5 < 0.75.
    EXPECT_EQ(b.record(false, false, 0), Transition::None);
    EXPECT_EQ(b.record(false, false, 0), Transition::None);
    EXPECT_TRUE(b.closed());
    // [T F F F] = 0.75: the third fresh failure trips it.
    EXPECT_EQ(b.record(false, false, 0), Transition::Opened);
}

TEST(CircuitBreaker, IgnoresResultsWhileOpenOrHalfOpen)
{
    CircuitBreaker b(breakerConfig());
    trip(b, 0);
    // Stragglers that were in flight when the breaker opened.
    EXPECT_EQ(b.record(true, false, 10), Transition::None);
    EXPECT_EQ(b.record(false, false, 10), Transition::None);
    EXPECT_FALSE(b.gate(50).pass); // still cooling down
    CircuitBreaker::Gate probe = b.gate(100);
    ASSERT_TRUE(probe.pass);
    ASSERT_TRUE(probe.probe);
    // Half-open: everyone but the probe is rejected, and non-probe
    // results change nothing.
    EXPECT_FALSE(b.gate(101).pass);
    EXPECT_EQ(b.record(true, false, 101), Transition::None);
    EXPECT_FALSE(b.closed());
    EXPECT_FALSE(b.gate(102).pass);
}

TEST(CircuitBreaker, ProbeSuccessClosesOntoAFreshWindow)
{
    CircuitBreaker b(breakerConfig());
    trip(b, 0);
    ASSERT_TRUE(b.gate(100).probe);
    EXPECT_EQ(b.record(true, true, 120), Transition::Closed);
    EXPECT_TRUE(b.closed());
    CircuitBreaker::Gate g = b.gate(121);
    EXPECT_TRUE(g.pass);
    EXPECT_FALSE(g.probe);
    // The failures that tripped it are gone: one new failure is below
    // minSamples, the second reaches it.
    EXPECT_EQ(b.record(false, false, 130), Transition::None);
    EXPECT_EQ(b.record(false, false, 131), Transition::Opened);
}

TEST(CircuitBreaker, ProbeFailureReopensAndRestartsTheClock)
{
    CircuitBreaker b(breakerConfig());
    trip(b, 0);
    ASSERT_TRUE(b.gate(100).probe);
    // A failed probe re-opens without counting as a fresh trip.
    EXPECT_EQ(b.record(false, true, 150), Transition::None);
    EXPECT_FALSE(b.closed());
    // The cool-down now runs from the probe's failure at 150, not from
    // the original trip at 0.
    EXPECT_FALSE(b.gate(249).pass);
    CircuitBreaker::Gate g = b.gate(250);
    EXPECT_TRUE(g.pass);
    EXPECT_TRUE(g.probe);
}

} // namespace
} // namespace accel::microsim
