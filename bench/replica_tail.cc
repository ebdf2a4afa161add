/**
 * @file
 * Extension bench: tail latency and goodput of a replicated remote
 * accelerator tier, swept over replica count x dispatch policy x
 * hedging x per-replica fault rate.
 *
 * The paper's remote case study (Ads1 inference, Table 6) models the
 * remote accelerator as a single device with a large L; a production
 * remote tier is a replicated fleet whose p99 is set by its slowest
 * replica. This bench asks the two operational questions for that
 * fleet: does hedging defend the tail against a brown-out replica at
 * acceptable duplicate-work cost, and does health-checked failover
 * keep goodput when a replica hard-fails?
 *
 * Usage: replica_tail [--seed N] [--json PATH]
 *
 * Exits non-zero unless BOTH acceptance criteria hold:
 *  (a) with one of four replicas serving 25% of its responses 30k
 *      cycles late, hedging (delay = healthy-tier p99, quantile-
 *      derived) improves p99 offload latency >= 2x over no hedging at
 *      <= 10% duplicate-work overhead;
 *  (b) with one of four replicas hard-failed from tick 0, ejection +
 *      failover keep goodput within 5% of the healthy-tier baseline —
 *      no host fallback configured.
 */

#include "bench_common.hh"
#include "faults/fault_plan.hh"
#include "microsim/service_spec.hh"
#include "microsim/service_sim.hh"
#include "microsim/tier.hh"
#include "util/thread_pool.hh"

using namespace accel;
using model::Strategy;
using model::ThreadingDesign;

namespace {

/** Healthy-tier latency quantile the hedge delay derives from. */
constexpr double kHedgeQuantile = 0.99;

/** The brown-out replica: a quarter of its completions are this late. */
constexpr double kLateProbability = 0.25;
constexpr double kLateDelayCycles = 30000;

microsim::WorkloadSpec
workload()
{
    microsim::WorkloadSpec w;
    w.nonKernelCyclesMean = 4000;
    w.nonKernelCv = 0.3;
    w.kernelsPerRequest = 1;
    w.granularity = std::make_shared<const BucketDist>(
        std::vector<DistBucket>{{400, 600, 1.0}});
    w.cyclesPerByte = 2.0; // ~1000 host cycles per kernel
    return w;
}

microsim::ServiceConfig
service()
{
    microsim::ServiceConfig svc;
    svc.cores = 2;
    svc.threads = 2;
    svc.design = ThreadingDesign::AsyncSameThread;
    svc.strategy = Strategy::Remote;
    svc.driverWaitsForAck = false; // remote: transfer overlaps host work
    svc.clockGHz = 1.0;
    svc.offloadSetupCycles = 20;
    return svc;
}

microsim::AcceleratorConfig
device()
{
    microsim::AcceleratorConfig acc;
    acc.speedupFactor = 5; // ~200-cycle service per kernel
    acc.fixedLatencyCycles = 50;
    acc.latencyCyclesPerByte = 0.1;
    return acc;
}

/** Replica @p index responds late with probability @p late_p. */
std::shared_ptr<const faults::FaultPlan>
latePlan(double late_p, std::uint64_t seed)
{
    auto plan = std::make_shared<faults::FaultPlan>();
    plan->seed = seed;
    plan->lateProbability = late_p;
    plan->lateDelayCycles = kLateDelayCycles;
    return plan;
}

/** Replica dead from tick 0, never recovering. */
std::shared_ptr<const faults::FaultPlan>
deadPlan()
{
    auto plan = std::make_shared<faults::FaultPlan>();
    plan->deviceFailAtTick = 0;
    return plan;
}

microsim::TierConfig
tierConfig(std::uint32_t replicas, microsim::DispatchPolicy policy,
           double hedgeDelay, std::uint64_t seed)
{
    microsim::TierConfig tier;
    tier.replicas = replicas;
    tier.policy = policy;
    tier.seed = seed;
    if (hedgeDelay > 0) {
        tier.hedge.enabled = true;
        tier.hedge.delayCycles = hedgeDelay;
    }
    return tier;
}

/** Health tracking for the hard-failure scenario (criterion b). */
void
enableHealth(microsim::TierConfig &tier)
{
    tier.healthTimeoutCycles = 3000; // ~10x the healthy offload path
    tier.ejectAfterFailures = 3;
    tier.readmitAfterCycles = 1e6;
    tier.maxFailovers = 3;
}

microsim::ServiceMetrics
runTier(const microsim::TierConfig &tier, std::uint64_t seed)
{
    microsim::ServiceSim sim(microsim::ServiceSpec("replica-tail")
                                 .service(service())
                                 .accelerator(device())
                                 .tier(tier)
                                 .workload(workload())
                                 .seed(seed));
    return sim.run(/*measureSeconds=*/0.05, /*warmupSeconds=*/0.01);
}

} // namespace

int
main(int argc, char **argv)
{
    const bench::BenchArgs args =
        bench::BenchArgs::parse("replica_tail", argc, argv);
    const std::uint64_t seed = args.seed;

    bench::banner("Replica tail: hedged offloads and brown-out "
                  "failover on a replicated remote tier (extension)");

    // Calibration: a healthy 4-replica round-robin tier with no
    // hedging. The hedge delay is quantile-derived from its offload
    // latency distribution, so hedges fire only past the healthy tail.
    microsim::ServiceMetrics healthy = runTier(
        tierConfig(4, microsim::DispatchPolicy::RoundRobin, 0, seed),
        seed);
    double hedge_delay =
        healthy.tier.offloadLatencyCycles.quantile(kHedgeQuantile);
    std::cout << "hedge delay = healthy p99 offload latency = "
              << fmtF(hedge_delay, 0) << " cycles\n\n";

    // ---- Sweep: replicas x policy x hedge x slow-replica fault ----
    const std::vector<std::uint32_t> replica_counts = {2, 4};
    const std::vector<microsim::DispatchPolicy> policies = {
        microsim::DispatchPolicy::RoundRobin,
        microsim::DispatchPolicy::LeastOutstanding,
        microsim::DispatchPolicy::PowerOfTwoChoices};
    const std::vector<double> hedge_delays = {0.0, hedge_delay};
    const std::vector<double> late_rates = {0.0, kLateProbability};

    struct Cell
    {
        std::uint32_t replicas;
        microsim::DispatchPolicy policy;
        double hedgeDelay;
        double lateP;
        microsim::ServiceMetrics m;
    };
    std::vector<Cell> cells;
    for (std::uint32_t n : replica_counts)
        for (microsim::DispatchPolicy p : policies)
            for (double h : hedge_delays)
                for (double late_p : late_rates)
                    cells.push_back({n, p, h, late_p, {}});
    cells = parallelMap(cells, [&](Cell cell) {
        microsim::TierConfig tier =
            tierConfig(cell.replicas, cell.policy, cell.hedgeDelay, seed);
        if (cell.lateP > 0) {
            // The last replica browns out; the rest stay healthy.
            tier.replicaFaultPlans.resize(cell.replicas);
            tier.replicaFaultPlans[cell.replicas - 1] =
                latePlan(cell.lateP, seed);
        }
        cell.m = runTier(tier, seed);
        return cell;
    });

    TextTable table({"replicas", "policy", "hedge", "late p",
                     "p99 off cyc", "goodput QPS", "hedges", "dup work",
                     "wins/losses"});
    for (size_t c = 3; c <= 8; ++c)
        table.setAlign(c, Align::Right);
    std::ostringstream csv_text;
    CsvWriter csv(csv_text,
                  {"replicas", "policy", "hedge_delay", "late_p",
                   "p99_offload_cycles", "p50_offload_cycles",
                   "goodput_qps", "hedges_issued", "hedge_wins",
                   "hedge_losses", "duplicates", "dup_work_fraction",
                   "watchdog_expiries", "failovers", "ejections"});
    for (const Cell &cell : cells) {
        const microsim::TierStats &t = cell.m.tier;
        table.addRow(
            {std::to_string(cell.replicas), toString(cell.policy),
             cell.hedgeDelay > 0 ? "on" : "off", fmtF(cell.lateP, 2),
             fmtF(t.offloadLatencyCycles.p99(), 0),
             fmtF(cell.m.goodputQps(), 0),
             fmtF(static_cast<double>(t.hedgesIssued), 0),
             fmtPct(t.duplicateWorkFraction(), 1),
             std::to_string(t.hedgeWins) + "/" +
                 std::to_string(t.hedgeLosses)});
        csv.row({std::to_string(cell.replicas), toString(cell.policy),
                 fmtF(cell.hedgeDelay, 0), fmtF(cell.lateP, 2),
                 fmtF(t.offloadLatencyCycles.p99(), 0),
                 fmtF(t.offloadLatencyCycles.p50(), 0),
                 fmtF(cell.m.goodputQps(), 1),
                 std::to_string(t.hedgesIssued),
                 std::to_string(t.hedgeWins),
                 std::to_string(t.hedgeLosses),
                 std::to_string(t.duplicateCompletions),
                 fmtF(t.duplicateWorkFraction(), 4),
                 std::to_string(t.watchdogExpiries),
                 std::to_string(t.failovers),
                 std::to_string(t.ejections)});
    }
    std::cout << table.str() << "\ncsv:\n" << csv_text.str() << "\n";

    // ---- Criterion (a): hedging defends p99 under a brown-out ----
    auto find = [&](double hedge, double late_p) -> const Cell & {
        for (const Cell &cell : cells) {
            if (cell.replicas == 4 &&
                cell.policy == microsim::DispatchPolicy::RoundRobin &&
                (cell.hedgeDelay > 0) == (hedge > 0) &&
                cell.lateP == late_p) {
                return cell;
            }
        }
        fatal("replica_tail: sweep cell missing");
    };
    const Cell &no_hedge = find(0.0, kLateProbability);
    const Cell &hedged = find(hedge_delay, kLateProbability);
    double p99_no_hedge = no_hedge.m.tier.offloadLatencyCycles.p99();
    double p99_hedged = hedged.m.tier.offloadLatencyCycles.p99();
    double p99_improvement = p99_no_hedge / p99_hedged;
    double dup_work = hedged.m.tier.duplicateWorkFraction();
    bool hedge_ok = p99_improvement >= 2.0 && dup_work <= 0.10;
    std::cout << "hedge check: p99 " << fmtF(p99_no_hedge, 0) << " -> "
              << fmtF(p99_hedged, 0) << " cycles ("
              << fmtF(p99_improvement, 1) << "x, criterion: >= 2x) at "
              << fmtPct(dup_work, 1)
              << " duplicate work (criterion: <= 10%) -> "
              << (hedge_ok ? "pass" : "FAIL") << "\n";

    // ---- Criterion (b): goodput survives a hard-failed replica ----
    // Health tracking + failover only; no ServiceSim retry policy, so
    // there is no host fallback to hide behind.
    microsim::TierConfig healthy_tier =
        tierConfig(4, microsim::DispatchPolicy::RoundRobin, 0, seed);
    enableHealth(healthy_tier);
    microsim::TierConfig dead_tier = healthy_tier;
    dead_tier.replicaFaultPlans.resize(4);
    dead_tier.replicaFaultPlans[3] = deadPlan();

    struct Arm
    {
        microsim::TierConfig tier;
        microsim::ServiceMetrics m;
    };
    std::vector<Arm> arms = {{healthy_tier, {}}, {dead_tier, {}}};
    arms = parallelMap(arms, [&](Arm arm) {
        arm.m = runTier(arm.tier, seed);
        return arm;
    });
    const microsim::ServiceMetrics &healthy_m = arms[0].m;
    const microsim::ServiceMetrics &dead_m = arms[1].m;
    double goodput_ratio = dead_m.goodputQps() / healthy_m.goodputQps();
    bool failover_ok = goodput_ratio >= 0.95 && goodput_ratio <= 1.05;
    std::cout << "failover check: goodput with 1/4 replicas dead is "
              << fmtF(goodput_ratio, 3)
              << "x healthy tier (criterion: within 5%), "
              << dead_m.tier.ejections << " ejections, "
              << dead_m.tier.failovers << " failovers -> "
              << (failover_ok ? "pass" : "FAIL") << "\n";

    // Per-replica breakdown of the hard-failure run: the dashboard
    // view of which replica died and who absorbed its load.
    TextTable rep_table({"replica", "dispatched", "wins", "duplicates",
                         "failures", "ejections", "served", "busy cyc"});
    for (size_t c = 1; c <= 7; ++c)
        rep_table.setAlign(c, Align::Right);
    std::ostringstream rep_csv_text;
    CsvWriter rep_csv(rep_csv_text,
                      {"replica", "dispatched", "wins", "duplicates",
                       "wasted_cycles", "failures", "ejections",
                       "readmissions", "served", "busy_cycles"});
    for (size_t r = 0; r < dead_m.tier.replicas.size(); ++r) {
        const microsim::TierReplicaStats &rs = dead_m.tier.replicas[r];
        const microsim::AcceleratorStats &ds = dead_m.tier.deviceStats[r];
        rep_table.addRow({std::to_string(r),
                          std::to_string(rs.dispatched),
                          std::to_string(rs.wins),
                          std::to_string(rs.duplicates),
                          std::to_string(rs.failures),
                          std::to_string(rs.ejections),
                          std::to_string(ds.served),
                          fmtF(ds.busyCycles, 0)});
        rep_csv.row({std::to_string(r), std::to_string(rs.dispatched),
                     std::to_string(rs.wins),
                     std::to_string(rs.duplicates),
                     fmtF(rs.wastedServiceCycles, 0),
                     std::to_string(rs.failures),
                     std::to_string(rs.ejections),
                     std::to_string(rs.readmissions),
                     std::to_string(ds.served),
                     fmtF(ds.busyCycles, 0)});
    }
    std::cout << "\nper-replica breakdown (1-of-4 hard-failed run):\n"
              << rep_table.str() << "\ncsv:\n" << rep_csv_text.str();

    std::cout << "\nReading: round-robin keeps routing a quarter of "
                 "offloads at the brown-out replica, so its 30k-cycle "
                 "late tail lands squarely on p99; a hedge at the "
                 "healthy p99 re-issues exactly those offloads and the "
                 "fast replica's completion wins the race. "
                 "Least-outstanding dodges much of the tail without "
                 "hedging — late responses hold the slow replica's "
                 "outstanding count high, steering new work away. A "
                 "hard-failed replica is ejected after consecutive "
                 "watchdog expiries and its load spreads over the "
                 "survivors; only the readmission probes keep paying "
                 "the timeout.\n";

    bool ok = hedge_ok && failover_ok;
    if (!args.jsonPath.empty()) {
        std::ostringstream json;
        json << "{\n  \"seed\": " << seed << ",\n  \"hedge_delay\": "
             << fmtF(hedge_delay, 0) << ",\n  \"p99_no_hedge\": "
             << fmtF(p99_no_hedge, 0) << ",\n  \"p99_hedged\": "
             << fmtF(p99_hedged, 0) << ",\n  \"p99_improvement\": "
             << fmtF(p99_improvement, 2)
             << ",\n  \"duplicate_work_fraction\": " << fmtF(dup_work, 4)
             << ",\n  \"hedge_criterion_pass\": "
             << (hedge_ok ? "true" : "false")
             << ",\n  \"failover_goodput_ratio\": "
             << fmtF(goodput_ratio, 4) << ",\n  \"ejections\": "
             << dead_m.tier.ejections << ",\n  \"failovers\": "
             << dead_m.tier.failovers
             << ",\n  \"failover_criterion_pass\": "
             << (failover_ok ? "true" : "false")
             << ",\n  \"replicas\": [\n";
        for (size_t r = 0; r < dead_m.tier.replicas.size(); ++r) {
            const microsim::TierReplicaStats &rs =
                dead_m.tier.replicas[r];
            json << (r == 0 ? "" : ",\n") << "    {\"replica\": " << r
                 << ", \"dispatched\": " << rs.dispatched
                 << ", \"wins\": " << rs.wins
                 << ", \"duplicates\": " << rs.duplicates
                 << ", \"failures\": " << rs.failures
                 << ", \"ejections\": " << rs.ejections
                 << ", \"readmissions\": " << rs.readmissions << "}";
        }
        // Complete tier dump for the adjudicated runs: every counter
        // the tier collected (failover exhaustion, readmission
        // probes, useful/wasted cycles, per-replica device stats),
        // not just the headline fields above.
        json << "\n  ],\n  \"hedged_tier_detail\": "
             << hedged.m.tier.summaryJson()
             << ",\n  \"dead_tier_detail\": "
             << dead_m.tier.summaryJson()
             << ",\n  \"pass\": " << (ok ? "true" : "false")
             << "\n}\n";
        args.writeJson(json.str());
    }
    return ok ? 0 : 1;
}
