/**
 * @file
 * ServiceGraph: multi-service RPC fan-out on one clock. Covers the
 * single-node ≡ standalone bit-compatibility contract, sync join
 * arithmetic, fan-out amplification, async fire-and-forget semantics,
 * RPC shedding, shared-tier contention, assembly-error aggregation,
 * and seed determinism.
 */

#include <gtest/gtest.h>

#include "microsim/service_graph.hh"
#include "util/logging.hh"

namespace accel::microsim {
namespace {

using model::ThreadingDesign;

/** ~5000-cycle host-only request: 4000 non-kernel + 500 B at 2 cyc/B. */
WorkloadSpec
workload()
{
    WorkloadSpec w;
    w.nonKernelCyclesMean = 4000;
    w.nonKernelCv = 0.0;
    w.kernelsPerRequest = 1;
    w.granularity = std::make_shared<const BucketDist>(
        std::vector<DistBucket>{{500, 501, 1.0}});
    w.cyclesPerByte = 2.0;
    return w;
}

ServiceConfig
config(double arrivalsPerSec = 0)
{
    ServiceConfig cfg;
    cfg.cores = 1;
    cfg.threads = 1;
    cfg.design = ThreadingDesign::Sync;
    cfg.clockGHz = 1.0;
    cfg.accelerated = false;
    cfg.openArrivalsPerSec = arrivalsPerSec;
    return cfg;
}

ServiceSpec
node(const std::string &name, double arrivalsPerSec = 0)
{
    return ServiceSpec(name)
        .service(config(arrivalsPerSec))
        .accelerator(AcceleratorConfig{})
        .workload(workload())
        .seed(9);
}

EdgeConfig
edge(const std::string &caller, const std::string &callee,
     std::uint32_t fanout = 1, CallStyle style = CallStyle::Sync,
     double latency = 1000)
{
    EdgeConfig e;
    e.caller = caller;
    e.callee = callee;
    e.fanout = fanout;
    e.style = style;
    e.latencyCycles = latency;
    return e;
}

TEST(ServiceGraph, SingleNodeGraphBitIdenticalToStandalone)
{
    // The tentpole's compatibility contract: wrapping one service in a
    // graph must not perturb a single simulated tick.
    ServiceMetrics standalone =
        ServiceSim(node("solo", 50000)).run(0.05, 0.01);

    ServiceGraph graph(1);
    graph.addService(node("solo", 50000));
    GraphMetrics gm = graph.run(0.05, 0.01);

    EXPECT_EQ(gm.node("solo").service.summaryJson(),
              standalone.summaryJson());
    // With no edges, every completion is a root that joins instantly.
    EXPECT_EQ(gm.rootsCompleted, standalone.requestsCompleted);
    EXPECT_EQ(gm.rootLatencyCycles.count(),
              standalone.latencySample.count());
    EXPECT_DOUBLE_EQ(gm.rootLatencyCycles.p99(),
                     standalone.latencySample.p99());
}

TEST(ServiceGraph, SyncEdgeAddsHopsAndCalleeServiceToRootPath)
{
    // Deterministic everything: root subtree latency must be the
    // caller's service time plus out-hop + callee service + return
    // hop. Light load so queueing is negligible.
    ServiceGraph graph(2);
    graph.addService(node("web", 20000));
    graph.addService(node("cache"));
    graph.addEdge(edge("web", "cache", 1, CallStyle::Sync, 1000));
    GraphMetrics gm = graph.run(0.05, 0.01);

    ASSERT_GT(gm.rootsCompleted, 0u);
    double web_p50 = gm.node("web").service.latencySample.p50();
    double cache_p50 = gm.node("cache").service.latencySample.p50();
    double root_p50 = gm.rootLatencyCycles.p50();
    // Root = web service + 1000 out + cache service + 1000 back.
    EXPECT_NEAR(root_p50, web_p50 + 1000 + cache_p50 + 1000,
                0.05 * root_p50);
    // The edge RTT is everything below the caller.
    double rtt_p50 = gm.edges.front().rttCycles.p50();
    EXPECT_NEAR(rtt_p50, 1000 + cache_p50 + 1000, 0.05 * rtt_p50);
}

TEST(ServiceGraph, FanOutJoinWaitsForSlowestChild)
{
    // With exponential jitter on the hop, a 4-way fan-out joins on the
    // max of four draws: its tail must sit clearly above 1-way's.
    auto runFan = [](std::uint32_t fanout) {
        ServiceGraph graph(3);
        graph.addService(node("web", 10000));
        ServiceSpec backend = node("cache");
        backend.service().threads = 4;
        backend.service().cores = 4;
        graph.addService(backend);
        EdgeConfig e = edge("web", "cache", fanout);
        e.latencyJitterCycles = 2000;
        graph.addEdge(e);
        return graph.run(0.05, 0.01);
    };
    GraphMetrics one = runFan(1);
    GraphMetrics four = runFan(4);
    ASSERT_GT(one.rootsCompleted, 0u);
    ASSERT_GT(four.rootsCompleted, 0u);
    EXPECT_GT(four.rootLatencyCycles.p99(),
              one.rootLatencyCycles.p99());
    EXPECT_EQ(four.edges.front().callsIssued,
              4 * four.rootsStarted);
}

TEST(ServiceGraph, AsyncEdgeDoesNotExtendCallerPath)
{
    auto runStyle = [](CallStyle style) {
        ServiceGraph graph(4);
        graph.addService(node("web", 20000));
        graph.addService(node("log"));
        graph.addEdge(edge("web", "log", 1, style, 50000));
        return graph.run(0.05, 0.01);
    };
    GraphMetrics sync = runStyle(CallStyle::Sync);
    GraphMetrics async = runStyle(CallStyle::Async);
    ASSERT_GT(async.rootsCompleted, 0u);
    // Fire-and-forget: the root joins at the caller's own latency...
    EXPECT_NEAR(async.rootLatencyCycles.p50(),
                async.node("web").service.latencySample.p50(),
                1.0);
    EXPECT_GT(sync.rootLatencyCycles.p50(),
              async.rootLatencyCycles.p50() + 100000);
    // ...while the callee still absorbs the offered load.
    EXPECT_GT(async.node("log").service.requestsCompleted, 0u);
    EXPECT_GT(async.edges.front().callsCompleted, 0u);
}

TEST(ServiceGraph, ShedRpcFailsTheSyncCallerSubtree)
{
    // The callee admits one queued request at a time and serves
    // ~200k cycles each against a ~100k-cycle call gap: most RPCs are
    // shed at admission and the failure joins into the caller's root.
    ServiceGraph graph(5);
    graph.addService(node("web", 10000));
    ServiceSpec slow = node("store");
    WorkloadSpec heavy = workload();
    heavy.nonKernelCyclesMean = 200000;
    slow.workload(heavy);
    slow.service().maxArrivalQueue = 1;
    graph.addService(slow);
    graph.addEdge(edge("web", "store"));
    GraphMetrics gm = graph.run(0.05, 0.01);

    EXPECT_GT(gm.edges.front().callsShed, 0u);
    EXPECT_GT(gm.rootsFailed, 0u);
    EXPECT_EQ(gm.node("store").service.requestsShed,
              gm.edges.front().callsShed);
    // Shed accounting rolls up to the graph level.
    EXPECT_EQ(gm.graphRequestsShed, gm.node("store").service.requestsShed);
}

TEST(ServiceGraph, SharedTierAbsorbsOffloadsFromEverySubscriber)
{
    auto accelNode = [](const std::string &name, double load) {
        ServiceConfig cfg = config(load);
        cfg.accelerated = true;
        cfg.offloadSetupCycles = 20;
        return ServiceSpec(name)
            .service(cfg)
            .accelerator(AcceleratorConfig{})
            .workload(workload())
            .seed(9)
            .sharedTier("infer");
    };
    AcceleratorConfig dev;
    dev.speedupFactor = 8;
    dev.fixedLatencyCycles = 40;

    // Two replicas: a trivial tier would bypass the tier-level offload
    // counter and hand requests straight to its single device.
    TierConfig tierCfg;
    tierCfg.replicas = 2;

    ServiceGraph graph(6);
    graph.addService(accelNode("ads", 20000));
    graph.addService(accelNode("feed", 20000));
    graph.addSharedTier("infer", dev, tierCfg);
    GraphMetrics gm = graph.run(0.05, 0.01);

    ASSERT_EQ(gm.sharedTiers.size(), 1u);
    const SharedTierMetrics &st = gm.sharedTiers.front();
    EXPECT_EQ(st.tierName, "infer");
    std::uint64_t issued = gm.node("ads").service.offloadsIssued +
                           gm.node("feed").service.offloadsIssued;
    EXPECT_GT(gm.node("ads").service.offloadsIssued, 0u);
    EXPECT_GT(gm.node("feed").service.offloadsIssued, 0u);
    EXPECT_EQ(st.tierStats.offloads, issued);
    EXPECT_EQ(st.aggregateDevice.served, issued);
    // The per-node tier/device blocks stay zero: the contention story
    // lives in the shared-tier metrics, counted once.
    EXPECT_EQ(gm.node("ads").service.tier.offloads, 0u);
    EXPECT_EQ(gm.node("ads").service.accelerator.served, 0u);
}

TEST(ServiceGraph, ErrorsAggregateAcrossNodesEdgesAndTiers)
{
    ServiceConfig bad = config();
    bad.clockGHz = 0.0;
    ServiceGraph graph(7);
    graph.addService(ServiceSpec("broken")
                         .service(bad)
                         .accelerator(AcceleratorConfig{})
                         .workload(workload()));
    graph.addService(node("web"));
    graph.addService(node("web")); // duplicate name
    graph.addEdge(edge("web", "nowhere"));
    graph.addSharedTier("unused", AcceleratorConfig{}, TierConfig{});

    std::vector<std::string> errs = graph.errors();
    auto contains = [&errs](const std::string &needle) {
        for (const std::string &e : errs) {
            if (e.find(needle) != std::string::npos)
                return true;
        }
        return false;
    };
    EXPECT_TRUE(contains("node 'broken': ServiceConfig.clockGHz"));
    EXPECT_TRUE(contains("duplicate service name 'web'"));
    EXPECT_TRUE(contains("no service named 'nowhere'"));
    EXPECT_TRUE(contains("shared tier 'unused' is not referenced"));
    EXPECT_THROW(graph.validate(), FatalError);
}

TEST(ServiceGraph, CyclesAndSelfCallsAreRejected)
{
    ServiceGraph graph(8);
    graph.addService(node("a", 1000));
    graph.addService(node("b"));
    graph.addService(node("c"));
    graph.addEdge(edge("a", "b"));
    graph.addEdge(edge("b", "c"));
    graph.addEdge(edge("c", "b")); // b -> c -> b
    graph.addEdge(edge("a", "a")); // self-call

    std::vector<std::string> errs = graph.errors();
    bool cycle = false;
    bool self = false;
    for (const std::string &e : errs) {
        cycle = cycle || e.find("must be a DAG") != std::string::npos;
        self = self || e.find("cannot call itself") != std::string::npos;
    }
    EXPECT_TRUE(cycle);
    EXPECT_TRUE(self);
}

TEST(ServiceGraph, FaultOffEdgesNeverEnterTheResilienceLayer)
{
    // The containment layer's absence contract: a plain edge takes the
    // legacy dispatch path — zero attempts accounted, zero timers,
    // every resilience counter identically zero. This is what keeps
    // fault-off runs bit-identical to the pre-layer simulator.
    ServiceGraph graph(42);
    graph.addService(node("web", 15000));
    graph.addService(node("leaf"));
    graph.addEdge(edge("web", "leaf"));
    GraphMetrics m = graph.run(0.03, 0.01);

    const EdgeStats &es = m.edges.at(0);
    EXPECT_GT(es.callsIssued, 0u);
    EXPECT_EQ(es.attemptsIssued, 0u);
    EXPECT_EQ(es.callsDropped, 0u);
    EXPECT_EQ(es.callsBlackholed, 0u);
    EXPECT_EQ(es.attemptsTimedOut, 0u);
    EXPECT_EQ(es.attemptsRetried, 0u);
    EXPECT_EQ(es.retriesSuppressed, 0u);
    EXPECT_EQ(es.callsDeadlineExceeded, 0u);
    EXPECT_EQ(es.callsCancelledBudget, 0u);
    EXPECT_EQ(es.callsShortCircuited, 0u);
    EXPECT_EQ(es.callsFailed, 0u);
    EXPECT_EQ(es.callsCompletedIgnored, 0u);
    EXPECT_EQ(es.breakerOpens, 0u);
    EXPECT_EQ(m.rootsDegraded, 0u);
    EXPECT_EQ(m.node("web").subtreesPrunedBudget, 0u);
}

TEST(ServiceGraph, NodeAndGraphWindowsOpenTogether)
{
    // A root starts, its one call is issued and the front end's request
    // completes in the same event, so the three counters agree only if
    // the node's window and the graph's open at the same tick.
    ServiceGraph graph(3);
    graph.addService(node("web", 50000));
    graph.addService(node("db"));
    graph.addEdge(edge("web", "db"));
    GraphMetrics gm = graph.run(0.05, 0.01);

    ASSERT_GT(gm.rootsStarted, 0u);
    EXPECT_EQ(gm.node("web").service.requestsShed, 0u);
    EXPECT_EQ(gm.edges.front().callsIssued, gm.rootsStarted);
    EXPECT_EQ(gm.node("web").service.requestsCompleted, gm.rootsStarted);
}

TEST(ServiceGraph, SameSeedReplaysBitIdentically)
{
    auto build = []() {
        ServiceGraph graph(42);
        graph.addService(node("web", 15000));
        graph.addService(node("mid"));
        graph.addService(node("leaf"));
        EdgeConfig hop1 = edge("web", "mid", 2);
        hop1.latencyJitterCycles = 500;
        EdgeConfig hop2 = edge("mid", "leaf", 1, CallStyle::Async, 2000);
        graph.addEdge(hop1);
        graph.addEdge(hop2);
        return graph.run(0.03, 0.01);
    };
    EXPECT_EQ(build().summaryJson(), build().summaryJson());
}

} // namespace
} // namespace accel::microsim
