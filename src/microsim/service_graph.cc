#include "microsim/service_graph.hh"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "util/json_fmt.hh"
#include "util/logging.hh"

namespace accel::microsim {

// --------------------------------------------------------------------
// Edge configuration
// --------------------------------------------------------------------

const char *
toString(CallStyle style)
{
    switch (style) {
      case CallStyle::Sync:
        return "sync";
      case CallStyle::Async:
        return "async";
    }
    panic("toString: unreachable CallStyle");
}

const char *
toString(BudgetSplit split)
{
    switch (split) {
      case BudgetSplit::Even:
        return "even";
      case BudgetSplit::ReserveForRetry:
        return "reserve_for_retry";
    }
    panic("toString: unreachable BudgetSplit");
}

bool
EdgeConfig::resilient() const
{
    return rpcTimeoutCycles > 0 || maxAttempts > 1 ||
           retryBudget.enabled() || breaker.enabled;
}

void
EdgeConfig::validate() const
{
    require(!caller.empty(), "EdgeConfig.caller must name a service");
    require(!callee.empty(), "EdgeConfig.callee must name a service");
    require(fanout >= 1, "EdgeConfig.fanout must be >= 1");
    require(std::isfinite(latencyCycles) && latencyCycles >= 0,
            "EdgeConfig.latencyCycles must be finite and >= 0");
    require(std::isfinite(latencyJitterCycles) && latencyJitterCycles >= 0,
            "EdgeConfig.latencyJitterCycles must be finite and >= 0");
    require(std::isfinite(rpcTimeoutCycles) && rpcTimeoutCycles >= 0,
            "EdgeConfig.rpcTimeoutCycles must be finite and >= 0");
    require(maxAttempts >= 1, "EdgeConfig.maxAttempts must be >= 1");
    require(maxAttempts == 1 || rpcTimeoutCycles > 0,
            "EdgeConfig.maxAttempts > 1 requires rpcTimeoutCycles > 0 "
            "(timeouts are the retry trigger)");
    require(std::isfinite(retryBudget.ratio) && retryBudget.ratio >= 0,
            "EdgeConfig.retryBudget.ratio must be finite and >= 0");
    require(std::isfinite(retryBudget.cap) && retryBudget.cap >= 0,
            "EdgeConfig.retryBudget.cap must be finite and >= 0");
    require(!retryBudget.enabled() || retryBudget.ratio > 0,
            "EdgeConfig.retryBudget.ratio must be > 0 when the budget "
            "is enabled (a bucket that never refills only drains)");
    require(!retryBudget.enabled() || maxAttempts > 1,
            "EdgeConfig.retryBudget needs maxAttempts > 1: with no "
            "retries there is nothing to limit");
    if (breaker.enabled) {
        breaker.validate();
        require(rpcTimeoutCycles > 0,
                "EdgeConfig.breaker requires rpcTimeoutCycles > 0 "
                "(timeouts are the breaker's failure signal)");
    }
    require(style == CallStyle::Sync || !resilient(),
            "EdgeConfig: async edges take no timeouts, retries, retry "
            "budgets, or breakers (fire-and-forget has no join to "
            "protect)");
    if (faultPlan) {
        faultPlan->validate();
        // A sync caller waiting on a call the plan can silently lose
        // would hang forever without a timeout to rescue it.
        require(style == CallStyle::Async || !faultPlan->canLoseCalls() ||
                    rpcTimeoutCycles > 0,
                "EdgeConfig.faultPlan can lose sync calls: set "
                "rpcTimeoutCycles > 0 so the caller can recover");
    }
}

// --------------------------------------------------------------------
// Metrics
// --------------------------------------------------------------------

std::string
EdgeStats::summaryJson() const
{
    std::ostringstream os;
    os << "{\"caller\": \"" << caller << "\", \"callee\": \"" << callee
       << "\", \"calls_issued\": " << callsIssued
       << ", \"calls_completed\": " << callsCompleted
       << ", \"calls_shed\": " << callsShed
       << ", \"failures_propagated\": " << failuresPropagated
       << ", \"degraded_propagated\": " << degradedPropagated
       << ", \"attempts_issued\": " << attemptsIssued
       << ", \"calls_dropped\": " << callsDropped
       << ", \"calls_blackholed\": " << callsBlackholed
       << ", \"attempts_timed_out\": " << attemptsTimedOut
       << ", \"attempts_retried\": " << attemptsRetried
       << ", \"retries_suppressed\": " << retriesSuppressed
       << ", \"calls_deadline_exceeded\": " << callsDeadlineExceeded
       << ", \"calls_cancelled_budget\": " << callsCancelledBudget
       << ", \"calls_short_circuited\": " << callsShortCircuited
       << ", \"calls_failed\": " << callsFailed
       << ", \"calls_completed_ignored\": " << callsCompletedIgnored
       << ", \"breaker_opens\": " << breakerOpens
       << ", \"breaker_probes\": " << breakerProbes
       << ", \"breaker_closes\": " << breakerCloses
       << ", \"rtt_cycles\": " << rttCycles.summaryJson() << "}";
    return os.str();
}

std::string
GraphNodeMetrics::summaryJson() const
{
    std::ostringstream os;
    os << "{\"node\": \"" << node
       << "\", \"subtrees_started\": " << subtreesStarted
       << ", \"subtrees_completed\": " << subtreesCompleted
       << ", \"subtrees_failed\": " << subtreesFailed
       << ", \"subtrees_degraded\": " << subtreesDegraded
       << ", \"subtrees_pruned_budget\": " << subtreesPrunedBudget
       << ", \"subtree_latency_cycles\": "
       << subtreeLatencyCycles.summaryJson()
       << ", \"service\": " << service.summaryJson() << "}";
    return os.str();
}

std::string
SharedTierMetrics::summaryJson() const
{
    std::ostringstream os;
    os << "{\"tier_name\": \"" << tierName
       << "\", \"aggregate_device\": " << aggregateDevice.summaryJson()
       << ", \"tier\": " << tierStats.summaryJson() << "}";
    return os.str();
}

double
GraphMetrics::rootQps() const
{
    if (graphMeasuredSeconds <= 0)
        return 0.0;
    return static_cast<double>(rootsCompleted) / graphMeasuredSeconds;
}

double
GraphMetrics::rootGoodputQps() const
{
    if (graphMeasuredSeconds <= 0)
        return 0.0;
    ensure(rootsFailed <= rootsCompleted,
           "GraphMetrics: failed > completed roots");
    return static_cast<double>(rootsCompleted - rootsFailed) /
           graphMeasuredSeconds;
}

const GraphNodeMetrics &
GraphMetrics::node(const std::string &name) const
{
    for (const GraphNodeMetrics &nm : nodes) {
        if (nm.node == name)
            return nm;
    }
    fatal("GraphMetrics: no node named '" + name + "'");
}

std::string
GraphMetrics::summaryJson() const
{
    std::ostringstream os;
    os << "{\"graph_measured_seconds\": "
       << jsonNumber(graphMeasuredSeconds)
       << ", \"root_qps\": " << jsonNumber(rootQps())
       << ", \"root_goodput_qps\": " << jsonNumber(rootGoodputQps())
       << ", \"roots_started\": " << rootsStarted
       << ", \"roots_completed\": " << rootsCompleted
       << ", \"roots_failed\": " << rootsFailed
       << ", \"roots_degraded\": " << rootsDegraded
       << ", \"root_latency_cycles\": " << rootLatencyCycles.summaryJson()
       << ", \"graph_requests_arrived\": " << graphRequestsArrived
       << ", \"graph_requests_completed\": " << graphRequestsCompleted
       << ", \"graph_requests_shed\": " << graphRequestsShed
       << ", \"graph_requests_failed\": " << graphRequestsFailed
       << ", \"nodes\": [";
    for (size_t i = 0; i < nodes.size(); ++i)
        os << (i == 0 ? "" : ", ") << nodes[i].summaryJson();
    os << "], \"edges\": [";
    for (size_t i = 0; i < edges.size(); ++i)
        os << (i == 0 ? "" : ", ") << edges[i].summaryJson();
    os << "], \"shared_tiers\": [";
    for (size_t i = 0; i < sharedTiers.size(); ++i)
        os << (i == 0 ? "" : ", ") << sharedTiers[i].summaryJson();
    os << "]}";
    return os.str();
}

// --------------------------------------------------------------------
// Assembly
// --------------------------------------------------------------------

ServiceGraph::ServiceGraph(std::uint64_t seed) : seed_(seed) {}

ServiceGraph &
ServiceGraph::addService(const ServiceSpec &spec)
{
    specs_.push_back(spec);
    return *this;
}

ServiceGraph &
ServiceGraph::addSharedTier(const std::string &tierName,
                            const AcceleratorConfig &device,
                            const TierConfig &tier)
{
    sharedTierDefs_.push_back(SharedTierDef{tierName, device, tier});
    return *this;
}

ServiceGraph &
ServiceGraph::addEdge(const EdgeConfig &edge)
{
    edges_.push_back(edge);
    return *this;
}

ServiceGraph &
ServiceGraph::rootDeadline(double cycles)
{
    require(std::isfinite(cycles) && cycles >= 0,
            "ServiceGraph::rootDeadline must be finite and >= 0");
    rootDeadlineCycles_ = cycles;
    return *this;
}

std::uint32_t
ServiceGraph::nodeIndex(const std::string &name) const
{
    for (size_t i = 0; i < specs_.size(); ++i) {
        if (specs_[i].name() == name)
            return static_cast<std::uint32_t>(i);
    }
    fatal("ServiceGraph: no service named '" + name + "'");
}

bool
ServiceGraph::hasInEdge(std::uint32_t node) const
{
    const std::string &name = specs_[node].name();
    return std::any_of(edges_.begin(), edges_.end(),
                       [&name](const EdgeConfig &e) {
                           return e.callee == name;
                       });
}

std::vector<std::string>
ServiceGraph::errors() const
{
    std::vector<std::string> out;
    if (specs_.empty())
        out.push_back("graph has no services");

    // Node names must be unique: they are the edge address space.
    for (size_t i = 0; i < specs_.size(); ++i) {
        if (specs_[i].name().empty())
            out.push_back("service " + std::to_string(i) +
                          " has an empty name");
        for (size_t j = i + 1; j < specs_.size(); ++j) {
            if (specs_[i].name() == specs_[j].name())
                out.push_back("duplicate service name '" +
                              specs_[i].name() + "'");
        }
    }

    for (const ServiceSpec &spec : specs_) {
        for (const std::string &err : spec.errors())
            out.push_back("node '" + spec.name() + "': " + err);
    }

    // All nodes share one tick clock; mixed frequencies would make the
    // shared queue's ticks mean different wall times per node.
    for (const ServiceSpec &spec : specs_) {
        if (spec.service().clockGHz != specs_.front().service().clockGHz)
            out.push_back("node '" + spec.name() + "': clockGHz " +
                          std::to_string(spec.service().clockGHz) +
                          " differs from '" + specs_.front().name() +
                          "' (" +
                          std::to_string(
                              specs_.front().service().clockGHz) +
                          "); the shared clock needs one frequency");
    }

    // Shared tiers: unique names, valid configs, every definition used,
    // every reference resolved, and no hedging into Sync-design nodes
    // (the same cross-check ServiceSpec applies to its own tier).
    for (size_t i = 0; i < sharedTierDefs_.size(); ++i) {
        const SharedTierDef &def = sharedTierDefs_[i];
        if (def.name.empty())
            out.push_back("shared tier " + std::to_string(i) +
                          " has an empty name");
        for (size_t j = i + 1; j < sharedTierDefs_.size(); ++j) {
            if (def.name == sharedTierDefs_[j].name)
                out.push_back("duplicate shared tier name '" + def.name +
                              "'");
        }
        collectFatal(out, "shared tier '" + def.name + "': ",
                [&def] { def.device.validate(); });
        collectFatal(out, "shared tier '" + def.name + "': ",
                [&def] { def.config.validate(); });
        bool used = false;
        for (const ServiceSpec &spec : specs_) {
            if (spec.sharedTierName() != def.name)
                continue;
            used = true;
            if (def.config.hedge.enabled &&
                spec.service().design == model::ThreadingDesign::Sync) {
                out.push_back(
                    "node '" + spec.name() + "': shared tier '" +
                    def.name +
                    "' hedges, but the node runs the Sync design (the "
                    "blocked driver waits on its single offload)");
            }
        }
        if (!used)
            out.push_back("shared tier '" + def.name +
                          "' is not referenced by any service");
    }
    for (const ServiceSpec &spec : specs_) {
        if (spec.sharedTierName().empty())
            continue;
        bool found = false;
        for (const SharedTierDef &def : sharedTierDefs_) {
            if (def.name == spec.sharedTierName())
                found = true;
        }
        if (!found)
            out.push_back("node '" + spec.name() +
                          "': names unknown shared tier '" +
                          spec.sharedTierName() + "'");
    }

    // Edges: valid shapes, known endpoints, no self-calls.
    auto known = [this](const std::string &name) {
        return std::any_of(specs_.begin(), specs_.end(),
                           [&name](const ServiceSpec &spec) {
                               return spec.name() == name;
                           });
    };
    for (const EdgeConfig &edge : edges_) {
        const std::string where =
            "edge " + edge.caller + " -> " + edge.callee + ": ";
        collectFatal(out, where, [&edge] { edge.validate(); });
        bool endpoints = true;
        for (const std::string &end : {edge.caller, edge.callee}) {
            if (!end.empty() && !known(end)) {
                out.push_back(where + "no service named '" + end + "'");
                endpoints = false;
            }
        }
        if (endpoints && !edge.caller.empty() &&
            edge.caller == edge.callee)
            out.push_back(where + "a service cannot call itself");
    }

    // The graph must be a DAG: a cycle would recurse forever (every
    // completion at a node on the cycle re-injects into the cycle).
    bool resolvable = std::all_of(
        edges_.begin(), edges_.end(), [&known](const EdgeConfig &edge) {
            return known(edge.caller) && known(edge.callee);
        });
    if (resolvable && !specs_.empty()) {
        // Iterative DFS three-colouring over node indices.
        std::vector<std::vector<std::uint32_t>> adj(specs_.size());
        for (const EdgeConfig &edge : edges_) {
            if (edge.caller != edge.callee)
                adj[nodeIndex(edge.caller)].push_back(
                    nodeIndex(edge.callee));
        }
        std::vector<int> colour(specs_.size(), 0); // 0 white 1 grey 2 black
        for (std::uint32_t root = 0; root < specs_.size(); ++root) {
            if (colour[root] != 0)
                continue;
            std::vector<std::pair<std::uint32_t, size_t>> stack;
            stack.emplace_back(root, 0);
            colour[root] = 1;
            while (!stack.empty()) {
                auto &[n, next] = stack.back();
                if (next < adj[n].size()) {
                    std::uint32_t m = adj[n][next++];
                    if (colour[m] == 1) {
                        out.push_back("cycle through '" +
                                      specs_[m].name() +
                                      "': the graph must be a DAG");
                        colour[m] = 2;
                    } else if (colour[m] == 0) {
                        colour[m] = 1;
                        stack.emplace_back(m, 0);
                    }
                } else {
                    colour[n] = 2;
                    stack.pop_back();
                }
            }
        }
    }
    return out;
}

void
ServiceGraph::validate() const
{
    std::vector<std::string> errs = errors(); // walks specs_ and edges_
    if (errs.empty())
        return;
    std::string msg = "ServiceGraph (" + std::to_string(specs_.size()) +
        " services, " + std::to_string(edges_.size()) + " edges):";
    for (const std::string &e : errs)
        msg += "\n  - " + e;
    fatal(msg);
}

// --------------------------------------------------------------------
// Run
// --------------------------------------------------------------------

void
ServiceGraph::initWindowStats()
{
    GraphMetrics fresh;
    fresh.graphMeasuredSeconds = metrics_.graphMeasuredSeconds;
    fresh.nodes.reserve(specs_.size());
    for (const ServiceSpec &spec : specs_) {
        GraphNodeMetrics nm;
        nm.node = spec.name();
        fresh.nodes.push_back(std::move(nm));
    }
    fresh.edges.reserve(edges_.size());
    for (const EdgeConfig &edge : edges_) {
        EdgeStats es;
        es.caller = edge.caller;
        es.callee = edge.callee;
        fresh.edges.push_back(std::move(es));
    }
    metrics_ = std::move(fresh);
}

GraphMetrics
ServiceGraph::run(double measureSeconds, double warmupSeconds)
{
    require(measureSeconds > 0,
            "ServiceGraph::run: window must be positive");
    require(warmupSeconds >= 0, "ServiceGraph::run: negative warmup");
    ensure(!ran_, "ServiceGraph::run: single-use object");
    ran_ = true;
    validate();

    eq_ = std::make_unique<sim::EventQueue>();

    sharedTiers_.reserve(sharedTierDefs_.size());
    for (const SharedTierDef &def : sharedTierDefs_) {
        sharedTiers_.push_back(std::make_unique<AcceleratorTier>(
            *eq_, def.device, def.config));
    }

    sims_.reserve(specs_.size());
    outEdges_.assign(specs_.size(), {});
    calleeIdx_.clear();
    calleeIdx_.reserve(edges_.size());
    for (size_t e = 0; e < edges_.size(); ++e) {
        outEdges_[nodeIndex(edges_[e].caller)].push_back(e);
        calleeIdx_.push_back(nodeIndex(edges_[e].callee));
        // One seeded stream per edge keeps jitter draws independent of
        // node count and of the other edges' traffic.
        edgeRngs_.emplace_back(seed_ ^ 0x6772617068ULL,
                               0xed6e0000ULL + e);
    }
    edgeFaultSeq_.assign(edges_.size(), 0);
    edgeBreakers_.clear();
    edgeBreakers_.reserve(edges_.size());
    edgeRetryTokens_.clear();
    edgeRetryTokens_.reserve(edges_.size());
    for (const EdgeConfig &edge : edges_) {
        edgeBreakers_.emplace_back(edge.breaker);
        edgeRetryTokens_.push_back(edge.retryBudget.cap); // start full
    }

    for (size_t i = 0; i < specs_.size(); ++i) {
        AcceleratorTier *shared = nullptr;
        for (size_t t = 0; t < sharedTierDefs_.size(); ++t) {
            if (sharedTierDefs_[t].name == specs_[i].sharedTierName())
                shared = sharedTiers_[t].get();
        }
        sims_.push_back(std::make_unique<ServiceSim>(
            specs_[i], *eq_, shared,
            hasInEdge(static_cast<std::uint32_t>(i))));
        std::uint32_t node = static_cast<std::uint32_t>(i);
        sims_[i]->setCompletionHook(
            [this, node](std::uint64_t token, sim::Tick arrivedAt,
                         bool failed) {
                onNodeCompletion(node, token, arrivedAt, failed);
            });
    }

    metrics_.graphMeasuredSeconds = measureSeconds;
    initWindowStats();

    // Node windows first: a single-node graph then replays the exact
    // standalone event sequence, with the graph's own warmup reset
    // appended after every node's (same tick and priority, later
    // insertion order).
    for (const std::unique_ptr<ServiceSim> &sim : sims_)
        sim->beginWindow(measureSeconds, warmupSeconds);
    sim::Tick end_tick = sims_.front()->windowEndTick();

    if (warmupSeconds > 0) {
        double cycles_per_second =
            specs_.front().service().clockGHz * 1e9;
        sim::Tick warmup_tick =
            static_cast<sim::Tick>(warmupSeconds * cycles_per_second);
        eq_->schedule(warmup_tick, [this]() {
            initWindowStats();
            // Shared tiers reset here, once — the nodes each skipped
            // their own tier reset for exactly this reason.
            for (const std::unique_ptr<AcceleratorTier> &tier :
                 sharedTiers_)
                tier->resetStats();
        }, /*priority=*/-100);
    }

    eq_->runUntil(end_tick);

    for (size_t i = 0; i < sims_.size(); ++i) {
        metrics_.nodes[i].service = sims_[i]->collectMetrics();
        const ServiceMetrics &sm = metrics_.nodes[i].service;
        metrics_.graphRequestsArrived += sm.requestsArrived;
        metrics_.graphRequestsCompleted += sm.requestsCompleted;
        metrics_.graphRequestsShed += sm.requestsShed;
        metrics_.graphRequestsFailed += sm.requestsFailed;
    }
    metrics_.sharedTiers.reserve(sharedTierDefs_.size());
    for (size_t t = 0; t < sharedTierDefs_.size(); ++t) {
        SharedTierMetrics st;
        st.tierName = sharedTierDefs_[t].name;
        st.aggregateDevice = sharedTiers_[t]->aggregateDeviceStats();
        st.tierStats = sharedTiers_[t]->snapshot();
        metrics_.sharedTiers.push_back(std::move(st));
    }
    return metrics_;
}

// --------------------------------------------------------------------
// Call flow
// --------------------------------------------------------------------

void
ServiceGraph::onNodeCompletion(std::uint32_t node, std::uint64_t token,
                               sim::Tick arrivedAt, bool failed)
{
    std::uint64_t tok = token;
    if (token == 0) {
        // A locally-originated request: it roots a fresh subtree.
        Call root;
        root.node = node;
        root.arrivedAt = arrivedAt;
        root.issuedAt = arrivedAt;
        root.serviceDone = true;
        root.failed = failed;
        if (rootDeadlineCycles_ > 0)
            root.deadline = arrivedAt + static_cast<sim::Tick>(
                                std::llround(rootDeadlineCycles_));
        tok = calls_.acquire(root);
        ++metrics_.rootsStarted;
        ++metrics_.nodes[node].subtreesStarted;
    } else {
        Call &c = calls_.at(token);
        ensure(c.node == node,
               "ServiceGraph: call completed on wrong node");
        c.serviceDone = true;
        if (failed)
            c.failed = true;
        ++metrics_.nodes[node].subtreesStarted;
    }
    Call &c = calls_.at(tok);
    if (c.deadline != faults::kNeverTick && eq_->now() >= c.deadline) {
        // The budget died during this node's own work: fanning out
        // would burn downstream cycles on an answer nobody can use
        // in time. Prune the subtree and answer degraded instead.
        c.degraded = true;
        ++metrics_.nodes[node].subtreesPrunedBudget;
    } else {
        issueCalls(tok);
    }
    maybeFinishCall(tok);
}

void
ServiceGraph::issueCalls(std::uint64_t token)
{
    Call &c = calls_.at(token);
    sim::Tick parentDeadline = c.deadline;
    for (size_t e : outEdges_[c.node]) {
        const EdgeConfig &edge = edges_[e];
        if (edge.resilient()) {
            // Resilient (always sync) edges go through the chain
            // machinery. A chain can settle synchronously (open
            // breaker, spent budget), and a settle may finish the
            // parent — so every chain starts as its own event, after
            // this loop has registered all pending children.
            for (std::uint32_t k = 0; k < edge.fanout; ++k) {
                ++c.pendingChildren;
                eq_->scheduleIn(0, [this, e, token, parentDeadline]() {
                    startChain(e, token, parentDeadline);
                });
            }
            continue;
        }
        // A plain edge sends each call once, with no chain and no
        // timer; only a fault plan makes its single attempt worth
        // counting.
        bool faulty = edge.faultPlan && edge.faultPlan->active();
        for (std::uint32_t k = 0; k < edge.fanout; ++k) {
            ++metrics_.edges[e].callsIssued;
            if (faulty)
                ++metrics_.edges[e].attemptsIssued;
            // Only async edges may lose calls without a timeout
            // (validate() enforces it), and async callers never join.
            if (send(e, token, /*chainId=*/0, /*attemptNo=*/0,
                     eq_->now(), parentDeadline) &&
                edge.style == CallStyle::Sync)
                ++c.pendingChildren;
        }
    }
}

bool
ServiceGraph::send(std::size_t edge, std::uint64_t parentToken,
                   std::uint64_t chainId, std::uint32_t attemptNo,
                   sim::Tick issuedAt, sim::Tick deadline)
{
    sim::Tick spike = 0;
    const faults::EdgeFaultPlan *plan = edges_[edge].faultPlan.get();
    if (plan && plan->active()) {
        sim::Tick now = eq_->now();
        faults::EdgeFaultDraw d = plan->draw(edgeFaultSeq_[edge]++);
        if (plan->blackholedAt(now)) {
            ++metrics_.edges[edge].callsBlackholed;
            return false;
        }
        if (d.drop) {
            ++metrics_.edges[edge].callsDropped;
            return false;
        }
        if (plan->spikeActiveAt(now))
            spike = static_cast<sim::Tick>(
                std::llround(d.extraLatencyCycles));
    }
    eq_->scheduleIn(drawEdgeLatency(edge) + spike,
                    [this, edge, parentToken, chainId, attemptNo, issuedAt,
                     deadline]() {
                        deliver(edge, parentToken, chainId, attemptNo,
                                issuedAt, deadline);
                    });
    return true;
}

void
ServiceGraph::deliver(std::size_t edge, std::uint64_t parentToken,
                      std::uint64_t chainId, std::uint32_t attemptNo,
                      sim::Tick issuedAt, sim::Tick deadline)
{
    // A chained delivery is live while its chain still waits on this
    // attempt. Once the chain has timed the attempt out or settled,
    // the delivery is a zombie: without a budget the callee has no
    // way to know and runs it anyway, and its completion is
    // attributed as callsCompletedIgnored.
    EdgeCall *chain = liveChain(chainId, attemptNo);
    bool joins = chainId == 0 && edges_[edge].style == CallStyle::Sync;
    if (!chain && deadline != faults::kNeverTick &&
        eq_->now() >= deadline) {
        // Cancelled at the door: the budget died in transit, so the
        // callee never spends a cycle on it. A plain sync caller's
        // join degrades rather than fails — upstream still answers. A
        // live attempt is left to its timer, clipped to the same
        // budget.
        ++metrics_.edges[edge].callsCancelledBudget;
        if (joins)
            settleChild(parentToken, /*childFailed=*/false,
                        /*childDegraded=*/true);
        return;
    }
    std::uint32_t callee = calleeIdx_[edge];
    Call c;
    c.node = callee;
    c.arrivedAt = eq_->now();
    c.issuedAt = issuedAt;
    c.parentToken = parentToken;
    c.viaEdge = static_cast<std::int32_t>(edge);
    c.deadline = deadline;
    c.chainId = chainId;
    c.attemptNo = attemptNo;
    std::uint64_t tok = calls_.acquire(c);
    if (sims_[callee]->injectArrival(tok))
        return;
    // Shed at the callee's admission queue: the call never ran, so its
    // slot goes straight back. A shed zombie has nobody to notify.
    calls_.release(tok);
    if (chainId != 0 && !chain)
        return;
    ++metrics_.edges[edge].callsShed;
    if (chain) {
        // A live attempt fails fast and lets the retry ladder decide
        // what happens next.
        if (chain->timer != sim::kInvalidTimer) {
            eq_->cancelTimer(chain->timer);
            chain->timer = sim::kInvalidTimer;
        }
        retryOrFail(chainId);
    } else if (joins) {
        // A plain sync caller learns immediately (degenerate
        // "rejection response") and the failure joins into its
        // subtree.
        settleChild(parentToken, /*childFailed=*/true,
                    /*childDegraded=*/false);
    }
}

void
ServiceGraph::maybeFinishCall(std::uint64_t token)
{
    Call &c = calls_.at(token);
    if (!c.serviceDone || c.pendingChildren > 0)
        return;
    sim::Tick now = eq_->now();
    GraphNodeMetrics &nm = metrics_.nodes[c.node];
    ++nm.subtreesCompleted;
    if (c.failed)
        ++nm.subtreesFailed;
    if (c.degraded)
        ++nm.subtreesDegraded;
    nm.subtreeLatencyCycles.add(static_cast<double>(now - c.arrivedAt));
    if (c.viaEdge < 0) {
        ++metrics_.rootsCompleted;
        if (c.failed)
            ++metrics_.rootsFailed;
        if (c.degraded)
            ++metrics_.rootsDegraded;
        metrics_.rootLatencyCycles.add(
            static_cast<double>(now - c.arrivedAt));
        calls_.release(token);
        return;
    }
    size_t e = static_cast<size_t>(c.viaEdge);
    std::uint64_t parent = c.parentToken;
    bool failed = c.failed;
    bool degraded = c.degraded;
    std::uint64_t chainId = c.chainId;
    std::uint32_t attemptNo = c.attemptNo;
    sim::Tick issued = c.issuedAt;
    calls_.release(token);
    // A sync response pays the return hop, then joins at the caller. An
    // async caller joined long ago, so its response only closes the
    // edge's books at once: failures are counted, never propagated.
    auto respond = [this, e, parent, failed, degraded, chainId, attemptNo,
                    issued]() {
        if (!bookResponse(e, chainId, attemptNo, issued, failed, degraded))
            return;
        if (chainId != 0)
            settleChain(chainId, ChainOutcome::Success, failed, degraded);
        else if (edges_[e].style == CallStyle::Sync)
            settleChild(parent, failed, degraded);
    };
    if (edges_[e].style == CallStyle::Async)
        respond();
    else
        eq_->scheduleIn(drawEdgeLatency(e), std::move(respond));
}

bool
ServiceGraph::bookResponse(std::size_t edge, std::uint64_t chainId,
                           std::uint32_t attemptNo, sim::Tick issuedAt,
                           bool childFailed, bool childDegraded)
{
    EdgeStats &es = metrics_.edges[edge];
    if (chainId != 0 && !liveChain(chainId, attemptNo)) {
        // A straggler from an abandoned attempt. The callee's cycles
        // are already spent; all that is left is honest accounting.
        ++es.callsCompletedIgnored;
        return false;
    }
    ++es.callsCompleted;
    if (childFailed)
        ++es.failuresPropagated;
    if (childDegraded)
        ++es.degradedPropagated;
    es.rttCycles.add(static_cast<double>(eq_->now() - issuedAt));
    return true;
}

void
ServiceGraph::settleChild(std::uint64_t parentToken, bool childFailed,
                          bool childDegraded)
{
    Call &p = calls_.at(parentToken);
    ensure(p.pendingChildren > 0, "settleChild: no pending children");
    --p.pendingChildren;
    if (childFailed)
        p.failed = true;
    if (childDegraded)
        p.degraded = true;
    maybeFinishCall(parentToken);
}

sim::Tick
ServiceGraph::drawEdgeLatency(std::size_t edge)
{
    const EdgeConfig &cfg = edges_[edge];
    double lat = cfg.latencyCycles;
    if (cfg.latencyJitterCycles > 0)
        lat += edgeRngs_[edge].exponential(cfg.latencyJitterCycles);
    return std::max<sim::Tick>(
        1, static_cast<sim::Tick>(std::llround(lat)));
}

// --------------------------------------------------------------------
// Resilient edge chains
// --------------------------------------------------------------------

ServiceGraph::EdgeCall *
ServiceGraph::liveChain(std::uint64_t chainId, std::uint32_t attemptNo)
{
    // A plain call has no chain (handle 0); a settled chain's handle is
    // stale.
    EdgeCall *ec = chains_.find(chainId);
    if (ec == nullptr || ec->attempt != attemptNo)
        return nullptr;
    return ec;
}

void
ServiceGraph::startChain(std::size_t edge, std::uint64_t parentToken,
                         sim::Tick parentDeadline)
{
    CircuitBreaker::Gate gate = edgeBreakers_[edge].gate(eq_->now());
    if (!gate.pass) {
        // Open breaker: skip the subtree instead of piling onto a
        // sick callee. The caller degrades — it answers without this
        // child's contribution — rather than failing outright.
        ++metrics_.edges[edge].callsShortCircuited;
        settleChild(parentToken, /*childFailed=*/false,
                    /*childDegraded=*/true);
        return;
    }
    EdgeCall ec;
    ec.edge = edge;
    ec.parentToken = parentToken;
    ec.issuedAt = eq_->now();
    ec.deadline = parentDeadline;
    ec.probe = gate.probe;
    std::uint64_t id = chains_.acquire(ec);
    ++metrics_.edges[edge].callsIssued;
    if (gate.probe)
        ++metrics_.edges[edge].breakerProbes;
    startAttempt(id);
}

void
ServiceGraph::startAttempt(std::uint64_t chainId)
{
    EdgeCall &ec = chains_.at(chainId);
    const EdgeConfig &cfg = edges_[ec.edge];
    sim::Tick now = eq_->now();

    if (ec.deadline != faults::kNeverTick && now >= ec.deadline) {
        ++metrics_.edges[ec.edge].callsDeadlineExceeded;
        settleChain(chainId, ChainOutcome::Degraded, false, false);
        return;
    }

    ++ec.attempt;
    ++metrics_.edges[ec.edge].attemptsIssued;

    // The attempt's budget slice. Even hands each attempt the whole
    // chain deadline (a retry inherits whatever is left);
    // ReserveForRetry divides the remainder by the attempts still
    // available so a full retry ladder fits inside the budget.
    sim::Tick sliceEnd = ec.deadline;
    if (ec.deadline != faults::kNeverTick &&
        cfg.budgetSplit == BudgetSplit::ReserveForRetry) {
        double remaining = static_cast<double>(ec.deadline - now);
        std::uint32_t left = cfg.maxAttempts - ec.attempt + 1;
        sliceEnd = now + std::max<sim::Tick>(
                             1, static_cast<sim::Tick>(std::llround(
                                    remaining / left)));
    }

    // The child's deadline is the attempt slice — never the RPC
    // timeout. A caller without a deadline budget gets no cancellation
    // help: its abandoned attempts run to completion downstream, which
    // is exactly the waste the budgeted arm of the cascade bench
    // eliminates.
    bool lost = !send(ec.edge, ec.parentToken, chainId, ec.attempt,
                      ec.issuedAt, sliceEnd);

    // Arm the attempt timer: the RPC timeout, clipped to the slice so
    // an attempt never outlives the budget it was given.
    sim::Tick timeoutAt = faults::kNeverTick;
    if (cfg.rpcTimeoutCycles > 0)
        timeoutAt = now + static_cast<sim::Tick>(
                              std::llround(cfg.rpcTimeoutCycles));
    if (sliceEnd != faults::kNeverTick)
        timeoutAt = std::min(timeoutAt, sliceEnd);
    if (timeoutAt != faults::kNeverTick) {
        ec.timer = eq_->scheduleTimerIn(
            timeoutAt > now ? timeoutAt - now : 1,
            [this, chainId]() { onAttemptTimeout(chainId); });
    } else {
        // No timeout and no deadline: only a lossless edge may wait
        // forever (validate() rejects lossy plans without timeouts).
        ensure(!lost, "startAttempt: lost attempt with no timer armed");
    }
}

void
ServiceGraph::onAttemptTimeout(std::uint64_t chainId)
{
    EdgeCall &ec = chains_.at(chainId);
    ec.timer = sim::kInvalidTimer;
    ++metrics_.edges[ec.edge].attemptsTimedOut;
    retryOrFail(chainId);
}

void
ServiceGraph::retryOrFail(std::uint64_t chainId)
{
    EdgeCall &ec = chains_.at(chainId);
    const EdgeConfig &cfg = edges_[ec.edge];
    if (ec.deadline != faults::kNeverTick &&
        eq_->now() >= ec.deadline) {
        ++metrics_.edges[ec.edge].callsDeadlineExceeded;
        settleChain(chainId, ChainOutcome::Degraded, false, false);
        return;
    }
    if (ec.attempt >= cfg.maxAttempts) {
        settleChain(chainId, ChainOutcome::Failed, false, false);
        return;
    }
    if (cfg.retryBudget.enabled()) {
        if (edgeRetryTokens_[ec.edge] < 1.0) {
            // The bucket is dry: the edge's recent success rate no
            // longer pays for retries, so the storm is cut here.
            ++metrics_.edges[ec.edge].retriesSuppressed;
            settleChain(chainId, ChainOutcome::Failed, false, false);
            return;
        }
        edgeRetryTokens_[ec.edge] -= 1.0;
    }
    ++metrics_.edges[ec.edge].attemptsRetried;
    startAttempt(chainId);
}

void
ServiceGraph::settleChain(std::uint64_t chainId, ChainOutcome outcome,
                          bool childFailed, bool childDegraded)
{
    EdgeCall ec = chains_.at(chainId);
    chains_.release(chainId);
    if (ec.timer != sim::kInvalidTimer)
        eq_->cancelTimer(ec.timer);
    const EdgeConfig &cfg = edges_[ec.edge];
    // The breaker watches transport health: a delivered response is a
    // success even when the child's subtree failed — the callee is
    // answering, which is all the breaker protects.
    switch (edgeBreakers_[ec.edge].record(outcome == ChainOutcome::Success,
                                          ec.probe, eq_->now())) {
      case CircuitBreaker::Transition::Opened:
        ++metrics_.edges[ec.edge].breakerOpens;
        warn("edge breaker " + cfg.caller + " -> " + cfg.callee +
             " opened at tick " + std::to_string(eq_->now()) +
             ": callers short-circuit to degraded responses");
        break;
      case CircuitBreaker::Transition::Closed:
        ++metrics_.edges[ec.edge].breakerCloses;
        break;
      case CircuitBreaker::Transition::None:
        break;
    }
    if (cfg.retryBudget.enabled() && outcome == ChainOutcome::Success)
        edgeRetryTokens_[ec.edge] =
            std::min(cfg.retryBudget.cap,
                     edgeRetryTokens_[ec.edge] + cfg.retryBudget.ratio);
    if (outcome == ChainOutcome::Failed)
        ++metrics_.edges[ec.edge].callsFailed;
    switch (outcome) {
      case ChainOutcome::Success:
        settleChild(ec.parentToken, childFailed, childDegraded);
        return;
      case ChainOutcome::Degraded:
        settleChild(ec.parentToken, /*childFailed=*/false,
                    /*childDegraded=*/true);
        return;
      case ChainOutcome::Failed:
        settleChild(ec.parentToken, /*childFailed=*/true,
                    /*childDegraded=*/false);
        return;
    }
    panic("settleChain: unreachable outcome");
}

} // namespace accel::microsim
