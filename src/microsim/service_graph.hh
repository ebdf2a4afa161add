/**
 * @file
 * Multi-service RPC fan-out simulation on one shared clock.
 *
 * A ServiceGraph wires N ServiceSim instances (built from ServiceSpecs)
 * with directed RPC edges. When a request finishes its service-local
 * work at a node, the node issues one call per out-edge fan-out slot:
 * the call traverses a per-edge network latency (fixed plus optional
 * exponential jitter), arrives at the callee through its normal
 * admission path (so bounded queues shed RPCs exactly like local
 * arrivals), and recursively fans out from there. Sync edges join: the
 * caller's subtree is complete only when its own work and every sync
 * child subtree (plus the return hop) have finished, which is what
 * makes tail latency grow with fan-out depth (DeathStarBench's
 * observation). Async edges are fire-and-forget: they load the callee
 * but never extend the caller's critical path.
 *
 * Nodes may contend for graph-owned shared AcceleratorTiers
 * (addSharedTier + ServiceSpec::sharedTier), modelling the
 * shared-offload-engine deployment of the paper's fleet analysis:
 * one tier's queue absorbs offloads from every subscribed service.
 *
 * Worker threads never block on downstream RPCs — fan-out happens at
 * service completion (continuation-passing), so a node's concurrency
 * limits apply to its own work only, while the *latency* of sync
 * children lands on the caller's subtree path. GraphMetrics therefore
 * decomposes: per-node service-local latency (ServiceMetrics), per-edge
 * RTT (out hop + child subtree + return hop), and per-node subtree
 * latency whose root-node flavour is the end-to-end figure.
 */

#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "faults/edge_fault_plan.hh"
#include "microsim/service_spec.hh"
#include "stats/reservoir.hh"
#include "util/slot_pool.hh"

namespace accel::microsim {

/** How a caller relates to one edge's RPCs. */
enum class CallStyle
{
    Sync, //!< caller's subtree joins on the child (and its return hop)
    Async //!< fire-and-forget: loads the callee, no join, no propagation
};

const char *toString(CallStyle style);

/**
 * How a caller splits its remaining deadline budget across an edge's
 * calls (see ServiceGraph::rootDeadline). Only meaningful when the
 * root carries a deadline; without one every policy is a no-op.
 */
enum class BudgetSplit
{
    /** Child inherits the caller's absolute deadline unchanged. */
    Even,
    /**
     * Each attempt gets remaining / (attempts left), so a full retry
     * ladder still fits inside the caller's budget.
     */
    ReserveForRetry,
};

const char *toString(BudgetSplit split);

/**
 * Per-edge token-bucket retry limiter: the standard defense against
 * self-sustaining retry storms. The bucket starts at cap tokens; every
 * retry costs one token and every successful call refills ratio
 * tokens (clamped at cap), so sustained retry traffic is bounded by
 * ratio x the success rate instead of multiplying the offered load
 * when the callee browns out. cap == 0 (default) disables the bucket:
 * retries are limited only by EdgeConfig::maxAttempts.
 */
struct RetryBudgetConfig
{
    /** Tokens refilled per successful call. */
    double ratio = 0.1;

    /** Bucket capacity; 0 disables the budget. */
    double cap = 0.0;

    bool enabled() const { return cap > 0; }
};

/** One directed RPC edge: caller fans out to callee. */
struct EdgeConfig
{
    std::string caller;
    std::string callee;

    /** Calls issued per completed caller request. */
    std::uint32_t fanout = 1;

    CallStyle style = CallStyle::Sync;

    /** Fixed network/serialization delay per hop, in caller cycles. */
    double latencyCycles = 0.0;

    /** Mean of an exponential jitter added per hop (0 = deterministic). */
    double latencyJitterCycles = 0.0;

    // --- resilience layer (sync edges only; defaults = all off) ---

    /**
     * Caller-side RPC timeout per attempt, in cycles (0 = wait
     * forever, the legacy behaviour). On expiry the caller abandons
     * the attempt — a late response is ignored — and retries while
     * attempts and retry-budget tokens remain.
     */
    double rpcTimeoutCycles = 0.0;

    /** Total attempts per call, including the first (>= 2 retries). */
    std::uint32_t maxAttempts = 1;

    /** Token-bucket limiter on retries (default: disabled). */
    RetryBudgetConfig retryBudget;

    /**
     * Per-edge circuit breaker: while open the caller skips the
     * subtree and settles the call degraded instead of piling onto a
     * sick callee. Runs the same CircuitBreaker as a service's
     * offload path (see resilience.hh); requires
     * rpcTimeoutCycles > 0 (timeouts are the failure signal).
     */
    BreakerConfig breaker;

    /** Deadline budget-split policy for this edge's calls. */
    BudgetSplit budgetSplit = BudgetSplit::Even;

    /** Edge fault schedule (drops, spikes, blackholes); null = none. */
    std::shared_ptr<const faults::EdgeFaultPlan> faultPlan;

    /**
     * True when each call runs as a chain of timed attempts (timeout,
     * retries, retry budget, or breaker set); otherwise a call is sent
     * once, with no chain and no timer.
     */
    bool resilient() const;

    /** @throws FatalError on out-of-domain values (names the field). */
    void validate() const;
};

/** Per-edge call accounting over the measurement window. */
struct EdgeStats
{
    std::string caller;
    std::string callee;

    std::uint64_t callsIssued = 0;
    /** Subtree completions reported back across this edge. */
    std::uint64_t callsCompleted = 0;
    /** Calls rejected at the callee's admission queue. */
    std::uint64_t callsShed = 0;
    /** Completed child subtrees that carried a failure. */
    std::uint64_t failuresPropagated = 0;
    /** Completed child subtrees that carried a degraded marker. */
    std::uint64_t degradedPropagated = 0;

    // --- resilience-layer attribution (all zero when the layer is off) ---

    /** RPC attempts issued (callsIssued counts logical calls once). */
    std::uint64_t attemptsIssued = 0;
    /** Attempts lost to the fault plan's drop draw. */
    std::uint64_t callsDropped = 0;
    /** Attempts issued into a blackhole window. */
    std::uint64_t callsBlackholed = 0;
    /** Attempts whose caller-side timeout expired. */
    std::uint64_t attemptsTimedOut = 0;
    /** Retries actually issued (consumed a budget token if enabled). */
    std::uint64_t attemptsRetried = 0;
    /** Retries wanted but suppressed by an empty token bucket. */
    std::uint64_t retriesSuppressed = 0;
    /** Calls settled degraded because the deadline budget ran out. */
    std::uint64_t callsDeadlineExceeded = 0;
    /** Deliveries cancelled at the callee's door: over budget. */
    std::uint64_t callsCancelledBudget = 0;
    /** Calls skipped by an open breaker (settled degraded). */
    std::uint64_t callsShortCircuited = 0;
    /** Calls that failed outright: retry ladder exhausted/suppressed. */
    std::uint64_t callsFailed = 0;
    /** Responses from abandoned attempts: pure wasted callee work. */
    std::uint64_t callsCompletedIgnored = 0;

    // --- per-edge breaker state machine ---
    std::uint64_t breakerOpens = 0;
    std::uint64_t breakerProbes = 0;
    std::uint64_t breakerCloses = 0;

    /** Edge RTT: out hop + child subtree (+ return hop when sync). */
    ReservoirSample rttCycles;

    std::string summaryJson() const;
};

/** One node's roll-up: its ServiceMetrics plus subtree accounting. */
struct GraphNodeMetrics
{
    std::string node;

    /** The node's own simulator metrics (service-local view). */
    ServiceMetrics service;

    /** Subtrees whose service-local phase completed at this node. */
    std::uint64_t subtreesStarted = 0;
    /** Subtrees fully joined (own work + every sync child). */
    std::uint64_t subtreesCompleted = 0;
    /** Joined subtrees that carried a failure. */
    std::uint64_t subtreesFailed = 0;
    /** Joined subtrees that carried a degraded marker. */
    std::uint64_t subtreesDegraded = 0;
    /** Subtrees whose fan-out was skipped: deadline budget exhausted. */
    std::uint64_t subtreesPrunedBudget = 0;

    /** Arrival at this node -> subtree join (includes sync children). */
    ReservoirSample subtreeLatencyCycles;

    std::string summaryJson() const;
};

/** One graph-owned tier's cross-service contention figures. */
struct SharedTierMetrics
{
    std::string tierName;

    /** Cross-replica device aggregate (all subscribed services). */
    AcceleratorStats aggregateDevice;

    /** Tier dispatch/hedge/health counters and replica breakdowns. */
    TierStats tierStats;

    std::string summaryJson() const;
};

/** Everything a graph run measures. */
struct GraphMetrics
{
    double graphMeasuredSeconds = 0.0;

    /** Locally-originated requests whose fan-out began in the window. */
    std::uint64_t rootsStarted = 0;
    /** Root subtrees fully joined: the end-to-end unit of work. */
    std::uint64_t rootsCompleted = 0;
    /** Joined root subtrees that carried a failure anywhere below. */
    std::uint64_t rootsFailed = 0;
    /**
     * Joined root subtrees that carried a degraded marker: some child
     * was skipped (open breaker) or abandoned at its deadline, but
     * the root still completed — a degraded response, counted toward
     * goodput, attributed here so the trade is honest.
     */
    std::uint64_t rootsDegraded = 0;

    /** Root arrival -> root subtree join (end-to-end latency). */
    ReservoirSample rootLatencyCycles;

    // Graph-level roll-ups of the node ServiceMetrics (offered load,
    // completions, shedding, and failures across every service).
    std::uint64_t graphRequestsArrived = 0;
    std::uint64_t graphRequestsCompleted = 0;
    std::uint64_t graphRequestsShed = 0;
    std::uint64_t graphRequestsFailed = 0;

    std::vector<GraphNodeMetrics> nodes;
    std::vector<EdgeStats> edges;
    std::vector<SharedTierMetrics> sharedTiers;

    /** Joined root subtrees per simulated second. */
    double rootQps() const;

    /** Root joins that carried no failure, per simulated second. */
    double rootGoodputQps() const;

    /** Node roll-up by name. @throws FatalError on an unknown name. */
    const GraphNodeMetrics &node(const std::string &name) const;

    /** The complete report surface (benches embed it verbatim). */
    std::string summaryJson() const;
};

/**
 * N services, one clock, directed RPC edges, optional shared tiers.
 *
 *     ServiceGraph g(seed);
 *     g.addService(ServiceSpec("web")...)
 *      .addService(ServiceSpec("ads")...)
 *      .addEdge({.caller = "web", .callee = "ads", .fanout = 2});
 *     GraphMetrics m = g.run(1.0);
 *
 * Like ServiceSim, a graph is a single-use object: assemble, run once,
 * read the metrics.
 */
class ServiceGraph
{
  public:
    /** @param seed drives the per-edge latency-jitter RNG streams. */
    explicit ServiceGraph(std::uint64_t seed = 1);

    /** Add one node. The spec's name() must be unique in the graph. */
    ServiceGraph &addService(const ServiceSpec &spec);

    /**
     * Register a graph-owned accelerator tier that services opting in
     * via ServiceSpec::sharedTier(tierName) contend for.
     */
    ServiceGraph &addSharedTier(const std::string &tierName,
                                const AcceleratorConfig &device,
                                const TierConfig &tier);

    /** Add one directed edge; both endpoints must be added services. */
    ServiceGraph &addEdge(const EdgeConfig &edge);

    /**
     * End-to-end deadline budget in cycles, granted to every root
     * request on arrival and carried down the call tree: each hop's
     * service time and network latency consume it, each edge splits
     * what remains per its BudgetSplit policy, and work that cannot
     * finish in budget is settled degraded (or cancelled at the
     * callee's door) instead of wasting tier cycles. 0 (default)
     * disables the budget entirely.
     */
    ServiceGraph &rootDeadline(double cycles);

    /**
     * Every assembly problem at once, each prefixed with the node or
     * edge it concerns: per-node ServiceSpec::errors(), duplicate or
     * unknown names, self-edges, cycles (the graph must be a DAG),
     * mixed clocks, hedged shared tiers feeding Sync-design nodes, and
     * unused shared tiers. Empty when the graph is runnable.
     */
    std::vector<std::string> errors() const;

    /** @throws FatalError listing every errors() entry at once. */
    void validate() const;

    /**
     * Build the simulators, run warmup + measurement on the shared
     * clock, and return the roll-up. Single use.
     */
    GraphMetrics run(double measureSeconds, double warmupSeconds = 0.1);

  private:
    struct SharedTierDef
    {
        std::string name;
        AcceleratorConfig device;
        TierConfig config;
    };

    /**
     * One in-flight subtree: a root request or one RPC call. Its
     * calls_ handle is the token its node carries (injectArrival);
     * released at join (or at async completion), or at once when the
     * callee sheds the call.
     */
    struct Call
    {
        std::uint32_t node = 0;      //!< executing node index
        sim::Tick arrivedAt = 0;     //!< arrival at that node
        sim::Tick issuedAt = 0;      //!< caller-side issue tick (RTT)
        std::uint64_t parentToken = 0;
        std::int32_t viaEdge = -1;   //!< delivering edge; -1 = root
        bool serviceDone = false;
        bool failed = false;
        bool degraded = false;       //!< a child was skipped/abandoned
        std::uint32_t pendingChildren = 0; //!< outstanding sync joins
        /** Absolute deadline; kNeverTick = no budget. */
        sim::Tick deadline = faults::kNeverTick;
        /** Owning edge-call chain's handle (resilient edges); 0 = none. */
        std::uint64_t chainId = 0;
        /** Attempt that delivered this call (stale-response filter). */
        std::uint32_t attemptNo = 0;
    };

    /**
     * One logical call on a resilient edge: the caller-side chain of
     * attempts racing timeouts, retries, and the deadline budget.
     * Settles exactly once (success / degraded / failed), which joins
     * the parent; released at settlement, so a stale chain handle
     * means the response belongs to an abandoned attempt.
     */
    struct EdgeCall
    {
        std::size_t edge = 0;
        std::uint64_t parentToken = 0;
        sim::Tick issuedAt = 0; //!< first-attempt issue tick (RTT base)
        /** The caller's absolute deadline; kNeverTick = none. */
        sim::Tick deadline = faults::kNeverTick;
        std::uint32_t attempt = 0; //!< current attempt, 1-based
        sim::TimerId timer = sim::kInvalidTimer;
        bool probe = false; //!< this chain is the breaker's probe
    };

    /** How a resilient edge call ultimately settled. */
    enum class ChainOutcome
    {
        Success,  //!< a live attempt's response joined
        Degraded, //!< skipped (breaker) or abandoned (deadline)
        Failed,   //!< attempts/budget exhausted with no response
    };

    std::uint32_t nodeIndex(const std::string &name) const;
    bool hasInEdge(std::uint32_t node) const;

    /** Fresh window counters: at run start and at the warmup tick. */
    void initWindowStats();
    void onNodeCompletion(std::uint32_t node, std::uint64_t token,
                          sim::Tick arrivedAt, bool failed);
    void issueCalls(std::uint64_t token);

    // --- one call path: plain calls (chainId 0) and chained attempts ---
    /** False when the edge's fault plan loses the attempt. */
    bool send(std::size_t edge, std::uint64_t parentToken,
              std::uint64_t chainId, std::uint32_t attemptNo,
              sim::Tick issuedAt, sim::Tick deadline);
    void deliver(std::size_t edge, std::uint64_t parentToken,
                 std::uint64_t chainId, std::uint32_t attemptNo,
                 sim::Tick issuedAt, sim::Tick deadline);
    void maybeFinishCall(std::uint64_t token);
    /** False for a straggler from an abandoned attempt. */
    bool bookResponse(std::size_t edge, std::uint64_t chainId,
                      std::uint32_t attemptNo, sim::Tick issuedAt,
                      bool childFailed, bool childDegraded);
    void settleChild(std::uint64_t parentToken, bool childFailed,
                     bool childDegraded);
    sim::Tick drawEdgeLatency(std::size_t edge);

    // --- resilient edge chains (timeout / retry / breaker / budget) ---
    /** The chain still waiting on @p attemptNo, else null. */
    EdgeCall *liveChain(std::uint64_t chainId, std::uint32_t attemptNo);
    void startChain(std::size_t edge, std::uint64_t parentToken,
                    sim::Tick parentDeadline);
    void startAttempt(std::uint64_t chainId);
    void onAttemptTimeout(std::uint64_t chainId);
    void retryOrFail(std::uint64_t chainId);
    void settleChain(std::uint64_t chainId, ChainOutcome outcome,
                     bool childFailed, bool childDegraded);

    std::uint64_t seed_;
    std::vector<ServiceSpec> specs_;
    std::vector<EdgeConfig> edges_;
    std::vector<SharedTierDef> sharedTierDefs_;
    double rootDeadlineCycles_ = 0.0;

    // --- run state (built by run()) ---
    std::unique_ptr<sim::EventQueue> eq_;
    std::vector<std::unique_ptr<AcceleratorTier>> sharedTiers_;
    std::vector<std::unique_ptr<ServiceSim>> sims_;
    std::vector<std::vector<std::size_t>> outEdges_;
    std::vector<std::uint32_t> calleeIdx_;
    std::vector<Rng> edgeRngs_;
    /** In-flight subtrees; a handle is the call's token. */
    SlotPool<Call> calls_;
    /** In-flight resilient edge calls; a handle is the chain id. */
    SlotPool<EdgeCall> chains_;
    /** Per-edge slot counters for the fault plans' slot-indexed draws. */
    std::vector<std::uint64_t> edgeFaultSeq_;
    /** Per-edge retry-budget token levels. */
    std::vector<double> edgeRetryTokens_;
    std::vector<CircuitBreaker> edgeBreakers_;
    bool ran_ = false;
    GraphMetrics metrics_;
};

} // namespace accel::microsim
