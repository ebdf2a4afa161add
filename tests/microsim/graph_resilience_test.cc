/**
 * @file
 * Graph-level failure containment: per-edge timeouts/retries, retry
 * token budgets, deadline propagation with budget splits, per-edge
 * circuit breakers, edge fault injection, and the honest-attribution
 * counters that account for every saved or shed unit of work.
 */

#include <gtest/gtest.h>

#include "config/config.hh"
#include "faults/edge_fault_plan.hh"
#include "microsim/service_graph.hh"
#include "microsim/service_spec.hh"
#include "util/logging.hh"

namespace accel::microsim {
namespace {

/** Host-only Sync tier with deterministic service time (cv = 0). */
ServiceSpec
tier(const std::string &name, double arrivalsPerSec, double meanCycles,
     std::uint64_t seed)
{
    ServiceConfig cfg;
    cfg.cores = 2;
    cfg.threads = 2;
    cfg.design = model::ThreadingDesign::Sync;
    cfg.clockGHz = 1.0;
    cfg.accelerated = false;
    cfg.openArrivalsPerSec = arrivalsPerSec;
    WorkloadSpec w;
    w.nonKernelCyclesMean = meanCycles;
    w.nonKernelCv = 0.0;
    w.kernelsPerRequest = 0;
    return ServiceSpec(name)
        .service(cfg)
        .accelerator(AcceleratorConfig{})
        .workload(w)
        .seed(seed);
}

/** @p spec with its admission queue bounded at @p depth requests. */
ServiceSpec
bounded(ServiceSpec spec, std::uint32_t depth)
{
    spec.service().maxArrivalQueue = depth;
    return spec;
}

/** A blackhole plan swallowing every call from tick 0 onward. */
std::shared_ptr<const faults::EdgeFaultPlan>
foreverBlackhole()
{
    auto plan = std::make_shared<faults::EdgeFaultPlan>();
    plan->blackholes = {{0, 1'000'000'000'000ULL}};
    return plan;
}

TEST(EdgeConfigValidate, ResilienceKnobsNeedATimeout)
{
    EdgeConfig e;
    e.caller = "a";
    e.callee = "b";
    e.maxAttempts = 3; // retries without a timeout can never fire
    EXPECT_THROW(e.validate(), FatalError);

    e = EdgeConfig{};
    e.caller = "a";
    e.callee = "b";
    e.breaker.enabled = true; // timeouts are the breaker's signal
    EXPECT_THROW(e.validate(), FatalError);

    e = EdgeConfig{};
    e.caller = "a";
    e.callee = "b";
    e.rpcTimeoutCycles = 100;
    e.maxAttempts = 3;
    e.breaker.enabled = true;
    EXPECT_NO_THROW(e.validate());
}

TEST(EdgeConfigValidate, AsyncEdgesTakeNoResilienceLayer)
{
    // Fire-and-forget calls have no response to time out on; the
    // config is rejected instead of silently ignoring the knobs.
    EdgeConfig e;
    e.caller = "a";
    e.callee = "b";
    e.style = CallStyle::Async;
    e.rpcTimeoutCycles = 100;
    EXPECT_THROW(e.validate(), FatalError);

    // But a lossy fault plan is fine: async losses need no timeout.
    e = EdgeConfig{};
    e.caller = "a";
    e.callee = "b";
    e.style = CallStyle::Async;
    e.faultPlan = foreverBlackhole();
    EXPECT_NO_THROW(e.validate());

    // A lossy plan on a sync edge without a timeout would hang the
    // caller's subtree forever: rejected.
    e.style = CallStyle::Sync;
    EXPECT_THROW(e.validate(), FatalError);
}

TEST(BudgetSplitNames, RoundTrip)
{
    EXPECT_EQ(budgetSplitFromString("even"), BudgetSplit::Even);
    EXPECT_EQ(budgetSplitFromString("reserve_for_retry"),
              BudgetSplit::ReserveForRetry);
    EXPECT_STREQ(toString(BudgetSplit::ReserveForRetry),
                 "reserve_for_retry");
    EXPECT_THROW(budgetSplitFromString("fair"), FatalError);
    EXPECT_THROW(budgetSplitFromString("weighted"), FatalError);
}

TEST(GraphResilience, TimeoutsFailCallsAndZombiesAreCounted)
{
    // Callee RTT (10k out + 50k work + 10k return) far exceeds the
    // 20k timeout: every attempt is abandoned, yet the callee still
    // executes the delivered zombie — counted as ignored completions,
    // the wasted-work signal the containment layer minimizes.
    ServiceGraph g(7);
    g.addService(tier("web", /*arrivalsPerSec=*/1000, 10e3, 7));
    g.addService(tier("leaf", 0, 50e3, 8));
    EdgeConfig e;
    e.caller = "web";
    e.callee = "leaf";
    e.latencyCycles = 10e3;
    e.rpcTimeoutCycles = 20e3;
    g.addEdge(e);
    GraphMetrics m = g.run(0.02, 0.0);

    const EdgeStats &es = m.edges.at(0);
    EXPECT_GT(es.callsIssued, 0u);
    EXPECT_GT(es.attemptsTimedOut, 0u);
    EXPECT_EQ(es.callsCompleted, 0u);
    // <= rather than ==: chains still in flight when the run ends are
    // issued but never settle.
    EXPECT_GT(es.callsFailed, 0u);
    EXPECT_LE(es.callsFailed, es.callsIssued);
    EXPECT_GT(es.callsCompletedIgnored, 0u);
    // The zombie work really ran at the callee.
    EXPECT_GT(m.node("leaf").service.requestsCompleted, 0u);
    // Exhausted retry ladders fail the root (not degraded).
    EXPECT_EQ(m.rootsFailed, m.rootsCompleted);
    EXPECT_EQ(m.rootsDegraded, 0u);
}

TEST(GraphResilience, RetryBudgetBoundsTheLadder)
{
    // Every attempt is dropped in flight; the bucket holds 2 tokens
    // and nothing ever succeeds to refill it, so across the whole run
    // exactly 2 retries are issued and the rest are suppressed.
    ServiceGraph g(11);
    g.addService(tier("web", /*arrivalsPerSec=*/1000, 10e3, 11));
    g.addService(tier("leaf", 0, 5e3, 12));
    EdgeConfig e;
    e.caller = "web";
    e.callee = "leaf";
    e.latencyCycles = 1e3;
    e.rpcTimeoutCycles = 20e3;
    e.maxAttempts = 3;
    e.retryBudget.cap = 2;
    e.retryBudget.ratio = 0.1;
    auto plan = std::make_shared<faults::EdgeFaultPlan>();
    plan->dropProbability = 1.0;
    e.faultPlan = std::move(plan);
    g.addEdge(e);
    GraphMetrics m = g.run(0.02, 0.0);

    const EdgeStats &es = m.edges.at(0);
    EXPECT_GT(es.callsIssued, 2u);
    EXPECT_EQ(es.callsDropped, es.attemptsIssued);
    EXPECT_EQ(es.attemptsRetried, 2u);
    EXPECT_GT(es.retriesSuppressed, 0u);
    EXPECT_GT(es.callsFailed, 0u);
    EXPECT_LE(es.callsFailed, es.callsIssued);
    // Without the budget every call would issue maxAttempts attempts.
    EXPECT_EQ(es.attemptsIssued, es.callsIssued + 2);
}

TEST(GraphResilience, BreakerOpensShortCircuitsThenRecovers)
{
    // The callee is blackholed for the first 2M ticks. Timeouts trip
    // the breaker almost immediately; while open, callers settle
    // degraded without issuing attempts. Once the window clears, a
    // probe closes the breaker and calls complete again.
    ServiceGraph g(13);
    g.addService(tier("web", /*arrivalsPerSec=*/5000, 10e3, 13));
    g.addService(tier("leaf", 0, 5e3, 14));
    EdgeConfig e;
    e.caller = "web";
    e.callee = "leaf";
    e.latencyCycles = 1e3;
    e.rpcTimeoutCycles = 20e3;
    e.breaker.enabled = true;
    e.breaker.openThreshold = 0.5;
    e.breaker.window = 4;
    e.breaker.minSamples = 2;
    // Probe interval well above the 200k-tick arrival spacing, so
    // open-state calls mostly short-circuit rather than all probing.
    e.breaker.probeAfterCycles = 1e6;
    auto plan = std::make_shared<faults::EdgeFaultPlan>();
    plan->blackholes = {{0, 2'000'000}};
    e.faultPlan = std::move(plan);
    g.addEdge(e);

    LogLevel prev = setLogLevel(LogLevel::Silent); // breaker-open warns
    GraphMetrics m = g.run(0.02, 0.0);
    setLogLevel(prev);

    const EdgeStats &es = m.edges.at(0);
    EXPECT_GE(es.breakerOpens, 1u);
    EXPECT_GE(es.breakerProbes, 1u);
    EXPECT_GE(es.breakerCloses, 1u);
    EXPECT_GT(es.callsShortCircuited, 0u);
    EXPECT_GT(es.callsBlackholed, 0u);
    // Post-recovery traffic completes.
    EXPECT_GT(es.callsCompleted, 0u);
    // Short-circuited calls degrade the root instead of failing it.
    EXPECT_GT(m.rootsDegraded, 0u);
    EXPECT_GT(m.rootGoodputQps(), 0.0);
}

TEST(GraphResilience, DeadlineExhaustionPrunesTheSubtree)
{
    // The 5k root budget is spent before web's own 10k of work ends,
    // so fan-out is skipped entirely: no calls on the edge, the root
    // settles degraded, and the prune is attributed at the web node.
    ServiceGraph g(17);
    g.addService(tier("web", /*arrivalsPerSec=*/1000, 10e3, 17));
    g.addService(tier("leaf", 0, 5e3, 18));
    EdgeConfig e;
    e.caller = "web";
    e.callee = "leaf";
    e.latencyCycles = 1e3;
    g.addEdge(e);
    g.rootDeadline(5e3);
    GraphMetrics m = g.run(0.02, 0.0);

    EXPECT_EQ(m.edges.at(0).callsIssued, 0u);
    EXPECT_GT(m.node("web").subtreesPrunedBudget, 0u);
    EXPECT_EQ(m.node("leaf").service.requestsArrived, 0u);
    EXPECT_EQ(m.rootsDegraded, m.rootsCompleted);
    EXPECT_EQ(m.rootsFailed, 0u);
}

TEST(GraphResilience, OverBudgetDeliveryIsCancelledAtTheDoor)
{
    // The budget survives web's work but dies on the 100k-cycle hop:
    // the delivery is cancelled before injection, so the callee never
    // pays for work whose deadline has already passed.
    ServiceGraph g(19);
    g.addService(tier("web", /*arrivalsPerSec=*/1000, 10e3, 19));
    g.addService(tier("leaf", 0, 5e3, 20));
    EdgeConfig e;
    e.caller = "web";
    e.callee = "leaf";
    e.latencyCycles = 100e3;
    g.addEdge(e);
    g.rootDeadline(50e3);
    GraphMetrics m = g.run(0.02, 0.0);

    const EdgeStats &es = m.edges.at(0);
    EXPECT_GT(es.callsIssued, 0u);
    EXPECT_GT(es.callsCancelledBudget, 0u);
    EXPECT_EQ(m.node("leaf").service.requestsArrived, 0u);
    EXPECT_EQ(m.rootsDegraded, m.rootsCompleted);
}

TEST(GraphResilience, AsyncDeliveryIsCancelledAtTheDoorWithoutDegrading)
{
    // Same budget-killing hop on a fire-and-forget edge: the delivery
    // is still cancelled at the door, but the caller never joined on
    // it, so the root completes healthy rather than degraded.
    ServiceGraph g(43);
    g.addService(tier("web", /*arrivalsPerSec=*/1000, 10e3, 43));
    g.addService(tier("leaf", 0, 5e3, 44));
    EdgeConfig e;
    e.caller = "web";
    e.callee = "leaf";
    e.style = CallStyle::Async;
    e.latencyCycles = 100e3;
    g.addEdge(e);
    g.rootDeadline(50e3);
    GraphMetrics m = g.run(0.02, 0.0);

    const EdgeStats &es = m.edges.at(0);
    EXPECT_GT(es.callsCancelledBudget, 0u);
    EXPECT_EQ(m.node("leaf").service.requestsArrived, 0u);
    EXPECT_GT(m.rootsCompleted, 0u);
    EXPECT_EQ(m.rootsDegraded, 0u);
    EXPECT_EQ(m.rootsFailed, 0u);
}

TEST(GraphResilience, ShedLiveAttemptRetriesThenFails)
{
    // The callee queues one request at a time and serves 500k cycles
    // each against a ~100k-cycle call gap, so most attempts are shed
    // at admission. A shed live attempt fails fast: its timer is
    // cancelled and the ladder retries at once, and a second shed
    // fails the call. The timeout is far above the worst admitted
    // RTT, so no timer ever fires.
    ServiceGraph g(37);
    g.addService(tier("web", /*arrivalsPerSec=*/10000, 10e3, 37));
    g.addService(bounded(tier("leaf", 0, 500e3, 38), 1));
    EdgeConfig e;
    e.caller = "web";
    e.callee = "leaf";
    e.latencyCycles = 1e3;
    e.rpcTimeoutCycles = 5e6;
    e.maxAttempts = 2;
    g.addEdge(e);
    GraphMetrics m = g.run(0.02, 0.0);

    const EdgeStats &es = m.edges.at(0);
    EXPECT_GT(es.callsShed, 0u);
    EXPECT_GT(es.attemptsRetried, 0u);
    EXPECT_GT(es.callsFailed, 0u);
    EXPECT_EQ(es.attemptsTimedOut, 0u);
    EXPECT_EQ(es.callsCompletedIgnored, 0u);
    // Every delivery was live, so every callee shed is the edge's.
    EXPECT_EQ(m.node("leaf").service.requestsShed, es.callsShed);
    EXPECT_GT(m.rootsFailed, 0u);
}

TEST(GraphResilience, ShedZombiesCountNothingOnTheEdge)
{
    // The 30k-cycle hop outlives the 20k timeout, so every delivery
    // reaches a chain that has already abandoned its attempt. The
    // zombies still load the one-deep callee queue and are shed
    // there, but a shed zombie has nobody to notify: the callee
    // counts the shed, the edge does not.
    ServiceGraph g(47);
    g.addService(tier("web", /*arrivalsPerSec=*/10000, 10e3, 47));
    g.addService(bounded(tier("leaf", 0, 500e3, 48), 1));
    EdgeConfig e;
    e.caller = "web";
    e.callee = "leaf";
    e.latencyCycles = 30e3;
    e.rpcTimeoutCycles = 20e3;
    e.maxAttempts = 2;
    g.addEdge(e);
    GraphMetrics m = g.run(0.02, 0.0);

    const EdgeStats &es = m.edges.at(0);
    EXPECT_GT(m.node("leaf").service.requestsShed, 0u);
    EXPECT_EQ(es.callsShed, 0u);
    EXPECT_GT(es.attemptsTimedOut, 0u);
    EXPECT_EQ(es.callsCompleted, 0u);
    EXPECT_GT(es.callsCompletedIgnored, 0u);
}

TEST(GraphResilience, AsyncFaultPlanLosesCallsWithoutFailingRoots)
{
    // Fire-and-forget losses: the callee starves but the caller's
    // subtree is untouched — no failures, no degradation.
    ServiceGraph g(23);
    g.addService(tier("web", /*arrivalsPerSec=*/1000, 10e3, 23));
    g.addService(tier("leaf", 0, 5e3, 24));
    EdgeConfig e;
    e.caller = "web";
    e.callee = "leaf";
    e.style = CallStyle::Async;
    e.latencyCycles = 1e3;
    auto plan = std::make_shared<faults::EdgeFaultPlan>();
    plan->dropProbability = 1.0;
    e.faultPlan = std::move(plan);
    g.addEdge(e);
    GraphMetrics m = g.run(0.02, 0.0);

    const EdgeStats &es = m.edges.at(0);
    EXPECT_GT(es.callsDropped, 0u);
    EXPECT_EQ(es.callsDropped, es.callsIssued);
    EXPECT_EQ(m.node("leaf").service.requestsArrived, 0u);
    EXPECT_EQ(m.rootsFailed, 0u);
    EXPECT_EQ(m.rootsDegraded, 0u);
    EXPECT_GT(m.rootsCompleted, 0u);
}

TEST(GraphResilience, SummaryJsonCoversTheResilienceCounters)
{
    ServiceGraph g(29);
    g.addService(tier("web", /*arrivalsPerSec=*/1000, 10e3, 29));
    g.addService(tier("leaf", 0, 5e3, 30));
    EdgeConfig e;
    e.caller = "web";
    e.callee = "leaf";
    e.latencyCycles = 1e3;
    e.rpcTimeoutCycles = 20e3;
    e.maxAttempts = 2;
    g.addEdge(e);
    g.rootDeadline(1e6);
    GraphMetrics m = g.run(0.01, 0.0);

    std::string json = m.summaryJson();
    for (const char *key :
         {"attempts_issued", "calls_dropped", "calls_blackholed",
          "attempts_timed_out", "attempts_retried", "retries_suppressed",
          "calls_deadline_exceeded", "calls_cancelled_budget",
          "calls_short_circuited", "calls_failed",
          "calls_completed_ignored", "breaker_opens", "breaker_probes",
          "breaker_closes", "degraded_propagated", "subtrees_degraded",
          "subtrees_pruned_budget", "roots_degraded"}) {
        EXPECT_NE(json.find(key), std::string::npos)
            << "summaryJson missing counter: " << key;
    }
}

TEST(GraphResilience, SameSeedReplaysBitIdenticallyUnderFaults)
{
    auto build = [] {
        ServiceGraph g(31);
        g.addService(tier("web", /*arrivalsPerSec=*/2000, 10e3, 31));
        g.addService(tier("leaf", 0, 20e3, 32));
        EdgeConfig e;
        e.caller = "web";
        e.callee = "leaf";
        e.latencyCycles = 5e3;
        e.rpcTimeoutCycles = 50e3;
        e.maxAttempts = 3;
        e.retryBudget.cap = 5;
        e.budgetSplit = BudgetSplit::ReserveForRetry;
        auto plan = std::make_shared<faults::EdgeFaultPlan>();
        plan->seed = 33;
        plan->dropProbability = 0.3;
        plan->spikeProbability = 0.2;
        plan->spikeLatencyCycles = 100e3;
        e.faultPlan = std::move(plan);
        g.addEdge(e);
        g.rootDeadline(500e3);
        return g;
    };
    GraphMetrics a = build().run(0.02, 0.005);
    GraphMetrics b = build().run(0.02, 0.005);
    EXPECT_EQ(a.summaryJson(), b.summaryJson());
}

TEST(GraphConfig, RoundTripsAgainstHandBuiltGraph)
{
    Config cfg = Config::fromString(
        "[graph]\n"
        "services = web, leaf\n"
        "seed = 41\n"
        "root_deadline_cycles = 500e3\n"
        "edge_0_caller = web\n"
        "edge_0_callee = leaf\n"
        "edge_0_latency = 5e3\n"
        "edge_0_timeout = 50e3\n"
        "edge_0_max_attempts = 3\n"
        "edge_0_retry_budget_cap = 5\n"
        "edge_0_retry_budget_ratio = 0.1\n"
        "edge_0_budget_split = reserve_for_retry\n"
        "edge_0_fault_seed = 33\n"
        "edge_0_fault_drop_p = 0.3\n"
        "edge_0_fault_spike_p = 0.2\n"
        "edge_0_fault_spike_cycles = 100e3\n"
        "edge_0_fault_spike_windows = 0:10000000\n"
        "[web]\n"
        "cores = 2\n"
        "threads = 2\n"
        "threading = sync\n"
        "clock_ghz = 1.0\n"
        "accelerated = no\n"
        "open_arrivals_per_sec = 2000\n"
        "work_non_kernel_cycles = 10e3\n"
        "work_kernels_per_request = 0\n"
        "seed = 41\n"
        "[leaf]\n"
        "cores = 2\n"
        "threads = 2\n"
        "threading = sync\n"
        "clock_ghz = 1.0\n"
        "accelerated = no\n"
        "work_non_kernel_cycles = 20e3\n"
        "work_kernels_per_request = 0\n"
        "seed = 42\n");
    ServiceGraph parsed = serviceGraphFromConfig(cfg);
    EXPECT_TRUE(parsed.errors().empty());

    ServiceGraph built(41);
    built.addService(tier("web", 2000, 10e3, 41));
    built.addService(tier("leaf", 0, 20e3, 42));
    EdgeConfig e;
    e.caller = "web";
    e.callee = "leaf";
    e.latencyCycles = 5e3;
    e.rpcTimeoutCycles = 50e3;
    e.maxAttempts = 3;
    e.retryBudget.cap = 5;
    e.retryBudget.ratio = 0.1;
    e.budgetSplit = BudgetSplit::ReserveForRetry;
    auto plan = std::make_shared<faults::EdgeFaultPlan>();
    plan->seed = 33;
    plan->dropProbability = 0.3;
    plan->spikeProbability = 0.2;
    plan->spikeLatencyCycles = 100e3;
    plan->spikeWindows = {{0, 10'000'000}};
    e.faultPlan = std::move(plan);
    built.addEdge(e);
    built.rootDeadline(500e3);

    GraphMetrics from_config = parsed.run(0.02, 0.005);
    GraphMetrics from_builder = built.run(0.02, 0.005);
    EXPECT_EQ(from_config.summaryJson(), from_builder.summaryJson());
}

TEST(GraphConfig, RejectsUnknownKeysByName)
{
    Config cfg = Config::fromString(
        "[graph]\n"
        "services = web\n"
        "edge_0_tmeout = 100\n" // typo of edge_0_timeout
        "[web]\n"
        "cores = 1\n"
        "threads = 1\n"
        "threading = sync\n"
        "clock_ghz = 1.0\n"
        "work_non_kernel_cycles = 1000\n");
    try {
        serviceGraphFromConfig(cfg);
        FAIL() << "typoed edge key accepted";
    } catch (const FatalError &err) {
        EXPECT_NE(std::string(err.what()).find("edge_0_tmeout"),
                  std::string::npos);
    }
}

TEST(GraphConfig, RejectsNonContiguousEdgeNumbering)
{
    // edge_1_* without edge_0_*: the discovery loop stops at the gap
    // and the leftover keys are rejected rather than silently dropped.
    Config cfg = Config::fromString(
        "[graph]\n"
        "services = web\n"
        "edge_1_caller = web\n"
        "edge_1_callee = web\n"
        "[web]\n"
        "cores = 1\n"
        "threads = 1\n"
        "threading = sync\n"
        "clock_ghz = 1.0\n"
        "work_non_kernel_cycles = 1000\n");
    try {
        serviceGraphFromConfig(cfg);
        FAIL() << "gap in edge numbering accepted";
    } catch (const FatalError &err) {
        EXPECT_NE(std::string(err.what()).find("edge_1_caller"),
                  std::string::npos);
    }
}

TEST(GraphConfig, RejectsMalformedWindowList)
{
    Config cfg = Config::fromString(
        "[graph]\n"
        "services = web, leaf\n"
        "edge_0_caller = web\n"
        "edge_0_callee = leaf\n"
        "edge_0_fault_blackholes = 10:xyz\n"
        "[web]\n"
        "cores = 1\n"
        "threads = 1\n"
        "threading = sync\n"
        "clock_ghz = 1.0\n"
        "work_non_kernel_cycles = 1000\n"
        "[leaf]\n"
        "cores = 1\n"
        "threads = 1\n"
        "threading = sync\n"
        "clock_ghz = 1.0\n"
        "work_non_kernel_cycles = 1000\n");
    try {
        serviceGraphFromConfig(cfg);
        FAIL() << "malformed window list accepted";
    } catch (const FatalError &err) {
        EXPECT_NE(std::string(err.what()).find("edge_0_fault_blackholes"),
                  std::string::npos);
    }
}

} // namespace
} // namespace accel::microsim
