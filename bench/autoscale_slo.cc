/**
 * @file
 * Extension bench: SLO-driven autoscaling of a replicated accelerator
 * tier under time-varying traffic.
 *
 * The paper sizes accelerator capacity for a fixed offered load; a
 * production tier faces diurnal traffic and flash crowds, and the
 * operational question is whether a reactive controller can track the
 * load with materially fewer provisioned replica-cycles than static
 * peak provisioning — without giving the latency SLO away while it
 * reacts. A graceful brown-out gate bounds the damage inside the
 * controller's reaction window by shedding early instead of queueing
 * to collapse.
 *
 * Usage: autoscale_slo [--seed N] [--json PATH]
 *
 * Exits non-zero unless ALL acceptance criteria hold:
 *  (a) day trace: static-peak and autoscaled arms both hold request
 *      p99 <= the 1M-cycle (1 ms at 1 GHz) SLO budget, and the
 *      autoscaled arm consumes <= 80% of the static arm's provisioned
 *      replica-cycles at a bounded shed fraction;
 *  (b) flash crowd: same criteria against a 4x traffic spike;
 *  (c) stationary limit: under a constant-rate program at moderate
 *      load the controller takes no scaling actions and the measured
 *      per-offload queue wait lands in the open-loop model band
 *      [0.5 x M/M/k, k x M/M/1] around model::mmkWaitCycles.
 */

#include "bench_common.hh"
#include "microsim/arrival_program.hh"
#include "microsim/service_spec.hh"
#include "microsim/service_sim.hh"
#include "microsim/tier.hh"
#include "model/queueing.hh"
#include "util/thread_pool.hh"

using namespace accel;
using model::ThreadingDesign;

namespace {

constexpr double kClockHz = 1e9;

/** Acceptance SLO: request p99 within 1 ms at 1 GHz. */
constexpr double kBudgetCycles = 1e6;

/** Autoscaled arm must use at most this fraction of static cycles. */
constexpr double kSavingsTarget = 0.80;

/** Shed budget for the autoscaled arms (fraction of arrivals). */
constexpr double kShedBudget = 0.05;

/**
 * Trace arms: ~1000-byte kernels at 200 host cycles/byte, A = 10 plus
 * transfer overheads — a ~20.2k-cycle offload service, so one replica
 * serves ~49k offloads/s and the traces below span 1..4 replicas of
 * demand.
 */
constexpr double kTraceServiceCycles = 20200;

microsim::WorkloadSpec
traceWorkload()
{
    microsim::WorkloadSpec w;
    w.nonKernelCyclesMean = 1000;
    w.nonKernelCv = 0.3;
    w.kernelsPerRequest = 1;
    w.granularity = std::make_shared<const BucketDist>(
        std::vector<DistBucket>{{900, 1100, 1.0}});
    w.cyclesPerByte = 200.0; // ~200k host cycles per kernel
    return w;
}

microsim::AcceleratorConfig
traceDevice()
{
    microsim::AcceleratorConfig acc;
    acc.speedupFactor = 10;
    acc.fixedLatencyCycles = 100;
    acc.latencyCyclesPerByte = 0.1;
    return acc;
}

/**
 * Stationary arm: exponential-ish granularity (CV ~1.2) so service
 * times approach the M/M/k assumptions, and a bare device (no fixed
 * or per-byte latency) so the analytic service time is exact:
 * 20 cycles per byte of kernel.
 */
const std::vector<DistBucket> kStationaryBuckets = {
    {100, 300, 0.40}, {300, 700, 0.30}, {700, 1500, 0.20},
    {1500, 3100, 0.08}, {3100, 6300, 0.02}};

microsim::WorkloadSpec
stationaryWorkload()
{
    microsim::WorkloadSpec w;
    w.nonKernelCyclesMean = 1000;
    w.nonKernelCv = 0.3;
    w.kernelsPerRequest = 1;
    w.granularity =
        std::make_shared<const BucketDist>(kStationaryBuckets);
    w.cyclesPerByte = 200.0;
    return w;
}

microsim::AcceleratorConfig
stationaryDevice()
{
    microsim::AcceleratorConfig acc;
    acc.speedupFactor = 10; // service = 20 x bytes, nothing else
    return acc;
}

double
stationaryMeanServiceCycles()
{
    double mean_bytes = 0, mass = 0;
    for (const DistBucket &b : kStationaryBuckets) {
        mean_bytes += 0.5 * (b.lo + b.hi) * b.mass;
        mass += b.mass;
    }
    return 20.0 * mean_bytes / mass;
}

microsim::ServiceConfig
serviceConfig(std::uint32_t threads)
{
    microsim::ServiceConfig svc;
    svc.cores = threads;
    svc.threads = threads;
    svc.design = ThreadingDesign::Sync;
    svc.clockGHz = kClockHz / 1e9;
    svc.offloadSetupCycles = 20;
    return svc;
}

microsim::TierConfig
tierConfig(std::uint32_t replicas, std::uint64_t seed)
{
    microsim::TierConfig tier;
    tier.replicas = replicas;
    tier.policy = microsim::DispatchPolicy::LeastOutstanding;
    tier.seed = seed;
    return tier;
}

/** The reactive controller shared by both autoscaled trace arms. */
microsim::AutoscalerConfig
controller(std::uint32_t maxReplicas)
{
    microsim::AutoscalerConfig a;
    a.enabled = true;
    a.intervalCycles = 5e5; // 0.5 ms control ticks
    a.sloLatencyCycles = 400000;
    a.scaleUpPressure = 0.5;   // act at p99 >= 200k cycles
    a.scaleDownPressure = 0.12; // relax below p99 ~48k cycles
    a.upWindows = 1;
    a.downWindows = 10;
    a.cooldownCycles = 1.5e6;
    a.minReplicas = 1;
    a.maxReplicas = maxReplicas;
    a.scaleStep = 1;
    a.brownout = true;
    a.brownoutFloor = 32;
    return a;
}

struct Arm
{
    std::string name;
    microsim::ServiceConfig svc;
    microsim::AcceleratorConfig dev;
    microsim::TierConfig tier;
    microsim::WorkloadSpec work;
    double measureSeconds;
    double warmupSeconds;
    microsim::ServiceMetrics m;
};

} // namespace

int
main(int argc, char **argv)
{
    const bench::BenchArgs args =
        bench::BenchArgs::parse("autoscale_slo", argc, argv);
    const std::uint64_t seed = args.seed;

    bench::banner("Autoscale SLO: time-varying traffic vs static peak "
                  "provisioning (extension)");

    // ---- Offered-load programs ----
    // Day trace: eight 50 ms steps between 0.4x and 2.8x of 50k/s
    // (peak 140k/s, mean ~66k/s).
    microsim::ArrivalProgram day = microsim::ArrivalProgram::dayTrace(
        50000, {0.4, 0.7, 1.2, 2.0, 2.8, 2.0, 1.0, 0.5}, 0.05);
    // Flash crowd: steady 40k/s plus a 120k/s surge at t = 0.1 s
    // (20 ms ramps around a 100 ms hold, peak 160k/s).
    microsim::ArrivalProgram flash = microsim::ArrivalProgram::compose(
        {microsim::ArrivalProgram::constant(40000),
         microsim::ArrivalProgram::flashCrowd(120000, 0.10, 0.02,
                                              0.10)});

    // Static arms provision for the trace peak: the smallest replica
    // count whose M/M/k wait meets a 20k-cycle queue budget at peak.
    auto peakReplicas = [](const microsim::ArrivalProgram &p) {
        return model::minServersForWait(kTraceServiceCycles,
                                        p.peakRate(), kClockHz,
                                        /*waitBudgetCycles=*/20000);
    };
    std::uint32_t day_k = peakReplicas(day);
    std::uint32_t flash_k = peakReplicas(flash);
    std::cout << "static peak provisioning: day trace " << day_k
              << " replicas, flash crowd " << flash_k << " replicas\n";

    auto traceArm = [&](const std::string &name,
                        const microsim::ArrivalProgram &program,
                        std::uint32_t replicas, bool autoscaled) {
        Arm arm;
        arm.name = name;
        arm.svc = serviceConfig(/*threads=*/24);
        arm.svc.arrivalProgram = program;
        arm.svc.maxArrivalQueue = 256;
        if (autoscaled)
            arm.svc.autoscaler = controller(replicas);
        arm.dev = traceDevice();
        arm.tier = tierConfig(replicas, seed);
        arm.work = traceWorkload();
        arm.measureSeconds = 0.4;
        arm.warmupSeconds = 0.05;
        return arm;
    };

    // Stationary arm: constant program at rho ~0.65 over 3 replicas,
    // with the controller pinned (min == max) so any scaling action
    // is a bug, not a tuning artifact.
    double stat_service = stationaryMeanServiceCycles();
    double stat_rate = 0.65 * 3.0 * kClockHz / stat_service;
    Arm stationary;
    stationary.name = "stationary";
    stationary.svc = serviceConfig(/*threads=*/16);
    stationary.svc.arrivalProgram =
        microsim::ArrivalProgram::constant(stat_rate);
    stationary.svc.autoscaler = controller(3);
    stationary.svc.autoscaler.minReplicas = 3;
    stationary.svc.autoscaler.brownout = false;
    stationary.svc.maxArrivalQueue = 0;
    stationary.dev = stationaryDevice();
    stationary.tier = tierConfig(3, seed);
    stationary.work = stationaryWorkload();
    stationary.measureSeconds = 0.25;
    stationary.warmupSeconds = 0.05;

    std::vector<Arm> arms = {
        traceArm("day/static", day, day_k, false),
        traceArm("day/autoscaled", day, day_k, true),
        traceArm("flash/static", flash, flash_k, false),
        traceArm("flash/autoscaled", flash, flash_k, true),
        stationary,
    };
    arms = parallelMap(arms, [&](Arm arm) {
        microsim::ServiceSim sim(microsim::ServiceSpec(arm.name)
                                     .service(arm.svc)
                                     .accelerator(arm.dev)
                                     .tier(arm.tier)
                                     .workload(arm.work)
                                     .seed(seed));
        arm.m = sim.run(arm.measureSeconds, arm.warmupSeconds);
        return arm;
    });

    TextTable table({"arm", "p99 cyc", "QPS", "shed %", "overload %",
                     "replica-cyc", "ups/downs", "final k"});
    for (size_t c = 1; c <= 7; ++c)
        table.setAlign(c, Align::Right);
    std::ostringstream csv_text;
    CsvWriter csv(csv_text,
                  {"arm", "p99_cycles", "qps", "shed_fraction",
                   "overload_shed_fraction", "replica_cycles",
                   "scale_ups", "scale_downs", "final_replicas",
                   "control_windows", "breach_windows",
                   "admission_tightenings"});
    auto shedFrac = [](const microsim::ServiceMetrics &m) {
        return m.requestsArrived == 0
            ? 0.0
            : static_cast<double>(m.requestsShed) /
                static_cast<double>(m.requestsArrived);
    };
    for (const Arm &arm : arms) {
        const microsim::ServiceMetrics &m = arm.m;
        double overload_frac = m.requestsArrived == 0
            ? 0.0
            : static_cast<double>(m.requestsShedOverload) /
                static_cast<double>(m.requestsArrived);
        table.addRow(
            {arm.name, fmtF(m.latencySample.p99(), 0), fmtF(m.qps(), 0),
             fmtPct(shedFrac(m), 2), fmtPct(overload_frac, 2),
             fmtF(m.tier.provisionedReplicaCycles, 0),
             std::to_string(m.autoscaler.scaleUps) + "/" +
                 std::to_string(m.autoscaler.scaleDowns),
             std::to_string(m.autoscaler.finalReplicas)});
        csv.row({arm.name, fmtF(m.latencySample.p99(), 0),
                 fmtF(m.qps(), 1), fmtF(shedFrac(m), 4),
                 fmtF(overload_frac, 4),
                 fmtF(m.tier.provisionedReplicaCycles, 0),
                 std::to_string(m.autoscaler.scaleUps),
                 std::to_string(m.autoscaler.scaleDowns),
                 std::to_string(m.autoscaler.finalReplicas),
                 std::to_string(m.autoscaler.controlWindows),
                 std::to_string(m.autoscaler.breachWindows),
                 std::to_string(m.autoscaler.admissionTightenings)});
    }
    std::cout << table.str() << "\ncsv:\n" << csv_text.str() << "\n";

    // ---- Criteria (a) and (b): SLO held at >= 20% fewer cycles ----
    auto adjudicateTrace = [&](const Arm &st, const Arm &au) {
        double ratio = au.m.tier.provisionedReplicaCycles /
            st.m.tier.provisionedReplicaCycles;
        bool ok = st.m.latencySample.p99() <= kBudgetCycles &&
            au.m.latencySample.p99() <= kBudgetCycles &&
            ratio <= kSavingsTarget && shedFrac(au.m) <= kShedBudget;
        std::cout << au.name << " check: p99 "
                  << fmtF(st.m.latencySample.p99(), 0) << " static / "
                  << fmtF(au.m.latencySample.p99(), 0)
                  << " autoscaled (budget " << fmtF(kBudgetCycles, 0)
                  << "), replica-cycles ratio " << fmtF(ratio, 3)
                  << " (criterion: <= " << fmtF(kSavingsTarget, 2)
                  << "), shed " << fmtPct(shedFrac(au.m), 2)
                  << " (criterion: <= " << fmtPct(kShedBudget, 0)
                  << ") -> " << (ok ? "pass" : "FAIL") << "\n";
        return ok;
    };
    bool day_ok = adjudicateTrace(arms[0], arms[1]);
    bool flash_ok = adjudicateTrace(arms[2], arms[3]);

    // ---- Criterion (c): stationary limit converges to M/M/k ----
    const microsim::ServiceMetrics &sm = arms[4].m;
    double offered = static_cast<double>(sm.offloadsIssued) /
        sm.measuredSeconds;
    double q_sim = sm.accelerator.queueWaitCycles.mean();
    double q_mmk =
        model::mmkWaitCycles(stat_service, offered, kClockHz, 3);
    double q_mm1 =
        model::mm1WaitCycles(stat_service, offered / 3.0, kClockHz);
    bool stationary_ok = sm.autoscaler.scaleUps == 0 &&
        sm.autoscaler.scaleDowns == 0 && q_sim >= 0.5 * q_mmk &&
        q_sim <= q_mm1;
    std::cout << "stationary check: Q sim " << fmtF(q_sim, 0)
              << " cycles vs band [0.5 x M/M/3 = "
              << fmtF(0.5 * q_mmk, 0)
              << ", 3 x M/M/1 = " << fmtF(q_mm1, 0) << "], "
              << sm.autoscaler.scaleUps << " ups / "
              << sm.autoscaler.scaleDowns
              << " downs (criterion: 0/0) -> "
              << (stationary_ok ? "pass" : "FAIL") << "\n";

    std::cout
        << "\nReading: the controller tracks the day trace a control "
           "window behind the load, so the provisioned-cycle bill "
           "follows demand instead of the peak; the brown-out gate "
           "sheds the overhang while replicas spin up, which is what "
           "keeps the transient out of p99. In the stationary limit "
           "the same controller goes quiet and the tier's measured "
           "queue wait sits inside the open-loop model band — the "
           "autoscaler costs nothing when traffic is flat.\n";

    bool ok = day_ok && flash_ok && stationary_ok;
    if (!args.jsonPath.empty()) {
        std::ostringstream json;
        json << "{\n  \"seed\": " << seed << ",\n  \"budget_cycles\": "
             << fmtF(kBudgetCycles, 0) << ",\n  \"arms\": [\n";
        for (size_t i = 0; i < arms.size(); ++i) {
            const microsim::ServiceMetrics &m = arms[i].m;
            json << (i == 0 ? "" : ",\n") << "    {\"arm\": \""
                 << arms[i].name << "\", \"p99_cycles\": "
                 << fmtF(m.latencySample.p99(), 0) << ", \"qps\": "
                 << fmtF(m.qps(), 1) << ", \"shed_fraction\": "
                 << fmtF(shedFrac(m), 4) << ", \"replica_cycles\": "
                 << fmtF(m.tier.provisionedReplicaCycles, 0)
                 << ", \"summary\": " << m.summaryJson() << "}";
        }
        json << "\n  ],\n  \"day_ratio\": "
             << fmtF(arms[1].m.tier.provisionedReplicaCycles /
                         arms[0].m.tier.provisionedReplicaCycles,
                     4)
             << ",\n  \"flash_ratio\": "
             << fmtF(arms[3].m.tier.provisionedReplicaCycles /
                         arms[2].m.tier.provisionedReplicaCycles,
                     4)
             << ",\n  \"q_sim\": " << fmtF(q_sim, 1)
             << ",\n  \"q_mmk\": " << fmtF(q_mmk, 1)
             << ",\n  \"q_kxmm1\": " << fmtF(q_mm1, 1)
             << ",\n  \"day_pass\": " << (day_ok ? "true" : "false")
             << ",\n  \"flash_pass\": " << (flash_ok ? "true" : "false")
             << ",\n  \"stationary_pass\": "
             << (stationary_ok ? "true" : "false")
             << ",\n  \"pass\": " << (ok ? "true" : "false") << "\n}\n";
        args.writeJson(json.str());
    }
    return ok ? 0 : 1;
}
