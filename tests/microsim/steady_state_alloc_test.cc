/**
 * @file
 * Heap allocations per unit of work on the simulator's request and RPC
 * paths, once they reach a steady state.
 *
 * This binary replaces the global operator new with a counting one; the
 * hook affects this test binary only. Each case runs one seeded spec
 * for a window T and again for 2T and checks the marginal count
 *
 *     (A(2T) - A(T)) / (units(2T) - units(T)),
 *
 * which leaves out construction, set-up and one-off growth, against a
 * ceiling. An untimed warm-up run of the same spec comes first, so
 * thread-local pools that outlive a run are warm for both timed runs.
 * The counts are exact for a seed, so the check is deterministic. A
 * ceiling may be lowered freely; raising one needs a stated reason in
 * CHANGES.md.
 *
 * The graph and tier cases mirror the shapes of bench/perf's
 * graph_fanout, graph_brownout and tier_brownout workloads on shorter
 * windows.
 */

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <new>

#include <gtest/gtest.h>

#include "microsim/service_graph.hh"
#include "microsim/service_sim.hh"
#include "workload/request_factory.hh"

namespace {

/** Global operator-new calls made by this thread so far. */
thread_local std::uint64_t t_allocs = 0;

} // namespace

void *
operator new(std::size_t n)
{
    ++t_allocs;
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t n)
{
    return ::operator new(n);
}

void *
operator new(std::size_t n, std::align_val_t align)
{
    ++t_allocs;
    const std::size_t a = static_cast<std::size_t>(align);
    const std::size_t rounded = (std::max<std::size_t>(n, 1) + a - 1) /
                                a * a; // aligned_alloc contract
    if (void *p = std::aligned_alloc(a, rounded))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t n, std::align_val_t align)
{
    return ::operator new(n, align);
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

namespace accel::microsim {
namespace {

/** Allocations and completed units of one run. */
struct Reading
{
    std::uint64_t allocs = 0;
    std::uint64_t units = 0;
};

/**
 * Marginal allocations per unit between windows T and 2T. The count is
 * signed: a 2T run that allocates less than the T run reads negative,
 * which passes any ceiling, instead of wrapping to a huge number.
 */
template <typename Run>
double
marginalAllocsPerUnit(Run &&run, double window)
{
    (void)run(window); // warm-up: pays the one-off pool growth
    const Reading once = run(window);
    const Reading twice = run(2 * window);
    EXPECT_GT(twice.units, once.units);
    if (twice.units <= once.units)
        return INFINITY;
    return (static_cast<double>(twice.allocs) -
            static_cast<double>(once.allocs)) /
           static_cast<double>(twice.units - once.units);
}

Reading
runService(const ServiceSpec &spec, double seconds, double warmup)
{
    const std::uint64_t before = t_allocs;
    ServiceMetrics m = ServiceSim(spec).run(seconds, warmup);
    return {t_allocs - before, m.requestsCompleted};
}

/** Host-only Sync node: @p threads cores, @p meanCycles per request. */
ServiceSpec
hostTier(const std::string &name, double clockGHz, std::uint32_t threads,
         double arrivalsPerSec, double meanCycles, std::uint64_t seed)
{
    ServiceConfig cfg;
    cfg.cores = threads;
    cfg.threads = threads;
    cfg.design = model::ThreadingDesign::Sync;
    cfg.clockGHz = clockGHz;
    cfg.accelerated = false;
    cfg.openArrivalsPerSec = arrivalsPerSec;
    WorkloadSpec work;
    work.nonKernelCyclesMean = meanCycles;
    work.nonKernelCv = 0.2;
    work.kernelsPerRequest = 0;
    return ServiceSpec(name)
        .service(cfg)
        .accelerator(AcceleratorConfig{})
        .workload(work)
        .seed(seed);
}

struct GraphShape
{
    std::vector<ServiceSpec> services;
    std::vector<EdgeConfig> edges;
    double rootDeadlineCycles = 0.0;
    double warmupSeconds = 0.0;
};

Reading
runGraph(const GraphShape &shape, double seconds)
{
    const std::uint64_t before = t_allocs;
    ServiceGraph graph(2020);
    for (const ServiceSpec &spec : shape.services)
        graph.addService(spec);
    for (const EdgeConfig &edge : shape.edges)
        graph.addEdge(edge);
    graph.rootDeadline(shape.rootDeadlineCycles);
    GraphMetrics m = graph.run(seconds, shape.warmupSeconds);
    return {t_allocs - before, m.rootsCompleted};
}

TEST(SteadyStateAllocs, HookCountsThisThread)
{
    const std::uint64_t before = t_allocs;
    int *volatile p = new int(7); // volatile: the pair is not elided
    const std::uint64_t after = t_allocs;
    delete p;
    EXPECT_EQ(after - before, 1u);
}

TEST(SteadyStateAllocs, Cache1BothArmsUnderHalfPerRequest)
{
    const workload::CaseStudy cs = workload::aesNiCaseStudy();
    const AbExperiment &e = cs.experiment;
    for (bool accelerated : {false, true}) {
        ServiceConfig cfg = e.service;
        cfg.accelerated = accelerated;
        const ServiceSpec spec = ServiceSpec("cache1")
                                     .service(cfg)
                                     .accelerator(e.accelerator)
                                     .tier(e.tier)
                                     .workload(e.workload)
                                     .seed(e.seed);
        const double perRequest = marginalAllocsPerUnit(
            [&spec](double seconds) {
                return runService(spec, seconds, 0.01);
            },
            0.05);
        EXPECT_LE(perRequest, 0.5)
            << (accelerated ? "treatment" : "baseline") << " arm";
    }
}

TEST(SteadyStateAllocs, GraphFanoutUnderHalfPerRoot)
{
    // A depth-3 chain of 2-way sync fan-out on the plain dispatch path:
    // 14 hops per root.
    GraphShape shape;
    shape.services = {
        hostTier("web", 2.0, 4, /*arrivalsPerSec=*/10e3, 10e3, 2020),
        hostTier("mid1", 2.0, 4, 0, 20e3, 2021),
        hostTier("mid2", 2.0, 4, 0, 20e3, 2022),
        hostTier("leaf", 2.0, 4, 0, 20e3, 2023),
    };
    for (size_t i = 0; i + 1 < shape.services.size(); ++i) {
        EdgeConfig e;
        e.caller = shape.services[i].name();
        e.callee = shape.services[i + 1].name();
        e.fanout = 2;
        e.latencyCycles = 1e3;
        e.latencyJitterCycles = 2e3;
        shape.edges.push_back(e);
    }
    shape.warmupSeconds = 0.01;
    const double perRoot = marginalAllocsPerUnit(
        [&shape](double seconds) { return runGraph(shape, seconds); },
        0.25);
    EXPECT_LE(perRoot, 0.5);
}

TEST(SteadyStateAllocs, GraphBrownoutUnderHalfPerRoot)
{
    // web -> ads -> cache with a latency spike in [0.3 s, 0.5 s) of
    // every second and 1% drops on ads -> cache, behind timeouts,
    // retries, a deadline budget, a retry budget and an edge breaker.
    constexpr double kWindow = 1.0;
    GraphShape shape;
    shape.services = {
        hostTier("web", 1.0, 2, /*arrivalsPerSec=*/10e3, 10e3, 2020),
        hostTier("ads", 1.0, 2, 0, 20e3, 2021),
        hostTier("cache", 1.0, 1, 0, 50e3, 2022),
    };
    shape.warmupSeconds = 0.05;
    EdgeConfig front;
    front.caller = "web";
    front.callee = "ads";
    front.latencyCycles = 10e3;

    auto plan = std::make_shared<faults::EdgeFaultPlan>();
    plan->seed = 2020 ^ 0xedfeULL;
    plan->dropProbability = 0.01;
    plan->spikeProbability = 1.0;
    plan->spikeLatencyCycles = 700e3;
    const sim::Tick second = 1'000'000'000;
    const auto seconds = static_cast<sim::Tick>(
        std::ceil(2 * kWindow + shape.warmupSeconds));
    for (sim::Tick k = 0; k < seconds; ++k)
        plan->spikeWindows.push_back(
            {k * second + 300'000'000, k * second + 500'000'000});

    EdgeConfig sick;
    sick.caller = "ads";
    sick.callee = "cache";
    sick.latencyCycles = 10e3;
    sick.rpcTimeoutCycles = 600e3;
    sick.maxAttempts = 3;
    sick.budgetSplit = BudgetSplit::ReserveForRetry;
    sick.retryBudget.cap = 20;
    sick.retryBudget.ratio = 0.05;
    sick.breaker.enabled = true;
    sick.breaker.probeAfterCycles = 2e6;
    sick.faultPlan = std::move(plan);
    shape.edges = {front, sick};
    shape.rootDeadlineCycles = 1e6;

    const double perRoot = marginalAllocsPerUnit(
        [&shape](double seconds) { return runGraph(shape, seconds); },
        kWindow);
    EXPECT_LE(perRoot, 0.5);
}

TEST(SteadyStateAllocs, TierBrownoutUnderHalfPerRequest)
{
    // A hedged 4-replica tier with one sick replica, under offload
    // deadlines, retries and a breaker. The device's records, the
    // tier's offloads and attempts, and the service's attempts all live
    // in slot pools, so a steady stream of offloads allocates nothing.
    ServiceConfig cfg;
    cfg.cores = 2;
    cfg.threads = 2;
    cfg.design = model::ThreadingDesign::AsyncSameThread;
    cfg.strategy = model::Strategy::Remote;
    cfg.clockGHz = 2.0;
    cfg.offloadSetupCycles = 200;
    cfg.responsePickupCycles = 100;
    cfg.driverWaitsForAck = false;
    cfg.retry.timeoutCycles = 20e3;
    cfg.retry.maxAttempts = 3;
    cfg.retry.backoffBaseCycles = 1e3;
    cfg.retry.backoffCapCycles = 8e3;
    cfg.breaker.enabled = true;

    AcceleratorConfig dev;
    dev.speedupFactor = 4;
    dev.fixedLatencyCycles = 300;
    dev.latencyCyclesPerByte = 0.02;
    dev.channels = 2;

    auto sickPlan = std::make_shared<faults::FaultPlan>();
    sickPlan->seed = 2020 ^ 0x7e1eULL;
    sickPlan->lateProbability = 0.25;
    sickPlan->lateDelayCycles = 30e3;

    TierConfig tier;
    tier.replicas = 4;
    tier.policy = DispatchPolicy::PowerOfTwoChoices;
    tier.hedge.enabled = true;
    tier.hedge.delayCycles = 2500;
    tier.healthTimeoutCycles = 3000;
    tier.seed = 2020;
    tier.replicaFaultPlans = {std::move(sickPlan)};

    WorkloadSpec work;
    work.nonKernelCyclesMean = 7500;
    work.nonKernelCv = 0.3;
    work.kernelsPerRequest = 1;
    work.granularity = std::make_shared<const BucketDist>(
        std::vector<DistBucket>{{512, 4096, 0.995},
                                {65536, 131072, 0.005}});
    work.cyclesPerByte = 1.0;

    const ServiceSpec spec = ServiceSpec("tier_brownout")
                                 .service(cfg)
                                 .accelerator(dev)
                                 .tier(tier)
                                 .workload(work)
                                 .seed(2020);
    const double perRequest = marginalAllocsPerUnit(
        [&spec](double seconds) { return runService(spec, seconds, 0.01); },
        0.05);
    EXPECT_LE(perRequest, 0.5);
}

} // namespace
} // namespace accel::microsim
