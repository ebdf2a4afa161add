/**
 * @file
 * Extension bench: retry-storm metastability and cascade containment.
 *
 * The paper accelerates services in isolation; at hyperscale the
 * dominant *availability* risk is graph-level: a transient brown-out
 * at one tier turns into a self-sustaining retry storm at its callers,
 * and the fleet stays degraded long after the fault clears. This bench
 * reproduces that failure mode on the ServiceGraph simulator and
 * measures how much of it the containment layer (deadline budgets,
 * retry budgets, per-edge circuit breakers) removes.
 *
 * Topology: web (open loop, 10k roots/s) -sync-> ads -sync-> cache,
 * where cache is a single-thread tier at ~50% utilization. The fault
 * is a windowed latency spike on the ads->cache edge ([0.3s, 0.5s):
 * every call delivered 400k cycles late, 2x the RPC timeout), so the
 * callee still runs every late call — the zombie-work regime that
 * makes naive retries self-amplifying:
 *
 *   naive arm:     timeout + 6 attempts, no budgets, no breaker. Every
 *                  timed-out attempt still lands in cache's unbounded
 *                  queue; retries multiply the offered load ~6x over a
 *                  1x-capacity tier, the backlog outlives the fault
 *                  window, and post-fault RTT stays above the timeout:
 *                  metastable collapse.
 *   contained arm: the same edge with a root deadline budget
 *                  (reserve-for-retry split), a retry token bucket,
 *                  and a per-edge breaker. Over-budget deliveries are
 *                  cancelled at cache's door, the bucket and breaker
 *                  cut the storm, callers degrade instead of failing,
 *                  and the graph snaps back when the fault clears.
 *
 * Each (arm, phase) figure is measured by replaying the same seeded
 * trajectory with a different (warmup, measure) split — the warmup
 * reset only discards counters, so healthy/fault/post windows come
 * from one deterministic timeline.
 *
 * Usage: cascade_containment [--seed N] [--json PATH]
 *
 * Exits non-zero unless ALL acceptance criteria hold:
 *  (a) storm: in the fault window the naive arm's sick edge issues
 *      >= 2x as many attempts as logical calls (retry amplification);
 *  (b) metastability: naive post-fault goodput < 0.5x its healthy
 *      goodput (the storm outlives the fault);
 *  (c) containment: contained goodput >= 0.9x its healthy figure in
 *      BOTH the fault window and the post window (degraded responses
 *      count toward goodput; failed ones do not);
 *  (d) waste: naive post-fault ignored completions (zombie work cache
 *      executed for nobody) exceed 10x the contained arm's;
 *  (e) honest attribution: the contained arm's saves are visible in
 *      its own counters (short-circuits + deadline exceeded > 0,
 *      degraded roots > 0, breaker opens in the fault window and
 *      closes after it), and the naive arm shows none (no degraded
 *      roots, no drops/blackholes from a spike-only plan).
 */

#include "bench_common.hh"
#include "graph_fixtures.hh"
#include "microsim/service_graph.hh"
#include "util/thread_pool.hh"

using namespace accel;

namespace {

constexpr double kClockGHz = 1.0;
constexpr double kRootPerSec = 10e3;
constexpr double kRootDeadline = 1e6;   //!< 1 ms budget at 1 GHz
// The timeout clears the healthy RTT tail (~70k + queueing at 50%
// utilization) by a wide margin, so the naive arm is stable until the
// fault; the spike exceeds the timeout, so every faulted call times
// out at the caller yet still executes at the callee — zombies.
constexpr double kRpcTimeout = 600e3;   //!< per-attempt, ads->cache
constexpr double kSpikeCycles = 700e3;  //!< > timeout: all zombies
constexpr sim::Tick kFaultBegin = 300'000'000; //!< 0.3 s in ticks
constexpr sim::Tick kFaultEnd = 500'000'000;   //!< 0.5 s

struct Phase
{
    const char *name;
    double warmupSeconds;
    double measureSeconds;
};

/** healthy ends at the fault's onset; post starts at its clearance. */
constexpr Phase kPhases[] = {
    {"healthy", 0.05, 0.25},
    {"fault", 0.30, 0.20},
    {"post", 0.50, 0.30},
};

/**
 * The two-edge chain with the sick ads->cache edge. The naive and
 * contained arms differ ONLY in the containment layer.
 */
microsim::ServiceGraph
buildArm(bool contained, std::uint64_t seed)
{
    microsim::ServiceGraph g(seed);
    g.addService(bench::lightTier("web", kClockGHz, /*threads=*/2,
                                  kRootPerSec, /*meanCycles=*/10e3,
                                  seed));
    g.addService(bench::lightTier("ads", kClockGHz, /*threads=*/2,
                                  /*arrivalsPerSec=*/0,
                                  /*meanCycles=*/20e3, seed + 1));
    // cache: one thread, 50k-cycle requests => 20k/s capacity, ~50%
    // utilized by healthy traffic. Unbounded queue: the storm shows up
    // as backlog, not shedding.
    g.addService(bench::lightTier("cache", kClockGHz, /*threads=*/1,
                                  /*arrivalsPerSec=*/0,
                                  /*meanCycles=*/50e3, seed + 2));

    microsim::EdgeConfig front;
    front.caller = "web";
    front.callee = "ads";
    front.latencyCycles = 10e3;
    g.addEdge(front);

    microsim::EdgeConfig sick;
    sick.caller = "ads";
    sick.callee = "cache";
    sick.latencyCycles = 10e3;
    sick.rpcTimeoutCycles = kRpcTimeout;
    sick.maxAttempts = 6; // the storm: up to 5 retries per call
    auto plan = std::make_shared<faults::EdgeFaultPlan>();
    plan->seed = seed ^ 0xedfeULL;
    plan->spikeProbability = 1.0;
    plan->spikeLatencyCycles = kSpikeCycles;
    plan->spikeWindows = {{kFaultBegin, kFaultEnd}};
    sick.faultPlan = std::move(plan);

    if (contained) {
        sick.maxAttempts = 3;
        sick.budgetSplit = microsim::BudgetSplit::ReserveForRetry;
        sick.retryBudget.cap = 20;
        sick.retryBudget.ratio = 0.05;
        sick.breaker.enabled = true;
        sick.breaker.openThreshold = 0.5;
        sick.breaker.window = 32;
        sick.breaker.minSamples = 8;
        sick.breaker.probeAfterCycles = 2e6;
        g.rootDeadline(kRootDeadline);
    }
    g.addEdge(sick);
    return g;
}

struct Cell
{
    bool contained = false;
    Phase phase;
    microsim::GraphMetrics m;
};

const microsim::EdgeStats &
sickEdge(const microsim::GraphMetrics &m)
{
    for (const microsim::EdgeStats &es : m.edges) {
        if (es.caller == "ads" && es.callee == "cache")
            return es;
    }
    fatal("cascade_containment: no ads->cache edge in metrics");
}

} // namespace

int
main(int argc, char **argv)
{
    const bench::BenchArgs args =
        bench::BenchArgs::parse("cascade_containment", argc, argv);
    const std::uint64_t seed = args.seed;

    bench::banner("Cascade containment: retry storms vs deadline "
                  "budgets, retry budgets, per-edge breakers "
                  "(extension)");

    std::vector<Cell> cells;
    for (bool contained : {false, true})
        for (const Phase &phase : kPhases)
            cells.push_back(Cell{contained, phase, {}});
    cells = parallelMap(cells, [&](Cell cell) {
        cell.m = buildArm(cell.contained, seed)
                     .run(cell.phase.measureSeconds,
                          cell.phase.warmupSeconds);
        return cell;
    });
    auto at = [&cells](bool contained, const char *phase)
        -> const microsim::GraphMetrics & {
        for (const Cell &cell : cells) {
            if (cell.contained == contained &&
                std::string(cell.phase.name) == phase)
                return cell.m;
        }
        fatal("cascade_containment: missing cell");
    };

    TextTable table({"arm", "phase", "goodput/s", "roots failed",
                     "roots degraded", "attempts", "calls", "ignored",
                     "root p99 cyc"});
    for (size_t c = 2; c <= 8; ++c)
        table.setAlign(c, Align::Right);
    std::ostringstream csv_text;
    CsvWriter csv(csv_text,
                  {"arm", "phase", "goodput_qps", "roots_failed",
                   "roots_degraded", "attempts_issued", "calls_issued",
                   "calls_completed_ignored", "root_p99_cycles"});
    for (const Cell &cell : cells) {
        const microsim::EdgeStats &es = sickEdge(cell.m);
        const char *arm = cell.contained ? "contained" : "naive";
        table.addRow({arm, cell.phase.name,
                      fmtF(cell.m.rootGoodputQps(), 0),
                      std::to_string(cell.m.rootsFailed),
                      std::to_string(cell.m.rootsDegraded),
                      std::to_string(es.attemptsIssued),
                      std::to_string(es.callsIssued),
                      std::to_string(es.callsCompletedIgnored),
                      fmtF(cell.m.rootLatencyCycles.p99(), 0)});
        csv.row({arm, cell.phase.name, fmtF(cell.m.rootGoodputQps(), 1),
                 std::to_string(cell.m.rootsFailed),
                 std::to_string(cell.m.rootsDegraded),
                 std::to_string(es.attemptsIssued),
                 std::to_string(es.callsIssued),
                 std::to_string(es.callsCompletedIgnored),
                 fmtF(cell.m.rootLatencyCycles.p99(), 0)});
    }
    std::cout << table.str() << "\ncsv:\n" << csv_text.str() << "\n";

    // ---- (a) retry amplification at the sick edge ----
    const microsim::EdgeStats &naive_fault = sickEdge(at(false, "fault"));
    double amplification = naive_fault.callsIssued == 0
        ? 0.0
        : static_cast<double>(naive_fault.attemptsIssued) /
            static_cast<double>(naive_fault.callsIssued);
    bool storm_ok = amplification >= 2.0;
    std::cout << "storm check: naive fault-window attempts/calls = "
              << fmtF(amplification, 2) << " (>= 2 means the retry "
              << "ladder multiplies load on the sick tier) -> "
              << (storm_ok ? "pass" : "FAIL") << "\n";

    // ---- (b) naive metastability ----
    double naive_healthy = at(false, "healthy").rootGoodputQps();
    double naive_post = at(false, "post").rootGoodputQps();
    bool metastable_ok =
        naive_healthy > 0 && naive_post < 0.5 * naive_healthy;
    std::cout << "metastability check: naive post-fault goodput "
              << fmtF(naive_post, 0) << "/s vs healthy "
              << fmtF(naive_healthy, 0)
              << "/s (< 0.5x: the storm outlives the fault) -> "
              << (metastable_ok ? "pass" : "FAIL") << "\n";

    // ---- (c) containment ----
    double cont_healthy = at(true, "healthy").rootGoodputQps();
    double cont_fault = at(true, "fault").rootGoodputQps();
    double cont_post = at(true, "post").rootGoodputQps();
    bool contain_ok = cont_healthy > 0 &&
        cont_fault >= 0.9 * cont_healthy &&
        cont_post >= 0.9 * cont_healthy;
    std::cout << "containment check: contained goodput fault "
              << fmtF(cont_fault, 0) << "/s, post " << fmtF(cont_post, 0)
              << "/s vs healthy " << fmtF(cont_healthy, 0)
              << "/s (both >= 0.9x: held through the fault and "
              << "recovered) -> " << (contain_ok ? "pass" : "FAIL")
              << "\n";

    // ---- (d) wasted downstream work ----
    std::uint64_t naive_waste =
        sickEdge(at(false, "post")).callsCompletedIgnored;
    std::uint64_t cont_waste =
        sickEdge(at(true, "post")).callsCompletedIgnored;
    bool waste_ok = naive_waste >= 500 && cont_waste * 10 <= naive_waste;
    std::cout << "waste check: post-fault zombie completions naive "
              << naive_waste << " vs contained " << cont_waste
              << " (cancel-at-door + breaker cut >= 10x) -> "
              << (waste_ok ? "pass" : "FAIL") << "\n";

    // ---- (e) honest attribution ----
    const microsim::GraphMetrics &cf = at(true, "fault");
    const microsim::EdgeStats &cf_edge = sickEdge(cf);
    const microsim::EdgeStats &cp_edge = sickEdge(at(true, "post"));
    bool attrib_ok = cf_edge.callsShortCircuited +
                cf_edge.callsDeadlineExceeded > 0 &&
        cf.rootsDegraded > 0 && cf_edge.breakerOpens >= 1 &&
        cp_edge.breakerCloses >= 1 &&
        at(false, "fault").rootsDegraded == 0 &&
        naive_fault.callsDropped == 0 &&
        naive_fault.callsBlackholed == 0;
    std::cout << "attribution check: contained saves are labelled "
              << "(short-circuited " << cf_edge.callsShortCircuited
              << ", deadline-exceeded " << cf_edge.callsDeadlineExceeded
              << ", degraded roots " << cf.rootsDegraded
              << ", breaker opens " << cf_edge.breakerOpens
              << ", closes post " << cp_edge.breakerCloses
              << "), naive shows none -> "
              << (attrib_ok ? "pass" : "FAIL") << "\n";

    std::cout
        << "\nReading: with zombie work and unbounded retries, a 0.2 s "
           "brown-out permanently collapses the naive arm — retries "
           "multiply offered load past the sick tier's capacity, and "
           "the backlog keeps RTT above the timeout after the fault "
           "clears (metastable failure). The contained arm converts "
           "the same fault into labelled degraded responses: budgets "
           "cancel over-deadline work before the callee pays for it, "
           "the token bucket and breaker stop the storm at its source, "
           "and goodput recovers as soon as the breaker's probe "
           "succeeds.\n";

    bool ok = storm_ok && metastable_ok && contain_ok && waste_ok &&
        attrib_ok;
    if (!args.jsonPath.empty()) {
        std::ostringstream json;
        json << "{\n  \"seed\": " << seed
             << ",\n  \"amplification\": " << fmtF(amplification, 4)
             << ",\n  \"goodput\": {\"naive_healthy\": "
             << fmtF(naive_healthy, 1) << ", \"naive_post\": "
             << fmtF(naive_post, 1) << ", \"contained_healthy\": "
             << fmtF(cont_healthy, 1) << ", \"contained_fault\": "
             << fmtF(cont_fault, 1) << ", \"contained_post\": "
             << fmtF(cont_post, 1)
             << "},\n  \"waste\": {\"naive_post_ignored\": "
             << naive_waste << ", \"contained_post_ignored\": "
             << cont_waste << "},\n  \"cells\": [\n";
        for (size_t i = 0; i < cells.size(); ++i) {
            json << (i == 0 ? "" : ",\n") << "    {\"arm\": \""
                 << (cells[i].contained ? "contained" : "naive")
                 << "\", \"phase\": \"" << cells[i].phase.name
                 << "\", \"summary\": " << cells[i].m.summaryJson()
                 << "}";
        }
        json << "\n  ],\n  \"storm_pass\": "
             << (storm_ok ? "true" : "false")
             << ",\n  \"metastability_pass\": "
             << (metastable_ok ? "true" : "false")
             << ",\n  \"containment_pass\": "
             << (contain_ok ? "true" : "false") << ",\n  \"waste_pass\": "
             << (waste_ok ? "true" : "false")
             << ",\n  \"attribution_pass\": "
             << (attrib_ok ? "true" : "false") << ",\n  \"pass\": "
             << (ok ? "true" : "false") << "\n}\n";
        args.writeJson(json.str());
    }
    return ok ? 0 : 1;
}
