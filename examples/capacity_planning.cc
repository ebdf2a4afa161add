/**
 * @file
 * Fleet-operator use case, in three acts: (1) given a service's
 * measured overheads, sweep candidate accelerators and pick the
 * strategy that holds its speedup at the expected offload rate;
 * (2) check the winner survives peak load once queueing is priced in;
 * (3) stop planning for peak at all — run the replicated tier through
 * a simulated day of traffic with an SLO-driven autoscaler and compare
 * its replica-cycle bill against static peak provisioning.
 */

#include <iostream>
#include <memory>
#include <vector>

#include "microsim/arrival_program.hh"
#include "microsim/service_spec.hh"
#include "microsim/service_sim.hh"
#include "microsim/tier.hh"
#include "model/queueing.hh"
#include "model/report.hh"
#include "util/table.hh"

int
main()
{
    using namespace accel;
    using namespace accel::model;

    // A caching tier spending 15% of cycles compressing at 40k ops/s.
    Params base;
    base.hostCycles = 2.3e9;
    base.alpha = 0.15;
    base.offloads = 40000;
    base.threadSwitchCycles = 5000;

    std::cout << "== Strategy comparison at nominal load ==\n";
    struct Candidate
    {
        const char *name;
        double factor, latency, o0;
        Strategy strategy;
        ThreadingDesign design;
    };
    const Candidate candidates[] = {
        {"on-chip ISA extension (A=4)", 4, 0, 0, Strategy::OnChip,
         ThreadingDesign::Sync},
        {"PCIe ASIC, sync driver (A=30)", 30, 2300, 200,
         Strategy::OffChip, ThreadingDesign::Sync},
        {"PCIe ASIC, async driver (A=30)", 30, 2300, 200,
         Strategy::OffChip, ThreadingDesign::AsyncSameThread},
        {"PCIe ASIC, oversubscribed (A=30)", 30, 2300, 200,
         Strategy::OffChip, ThreadingDesign::SyncOS},
        {"remote appliance (A=50)", 50, 0, 600000, Strategy::Remote,
         ThreadingDesign::AsyncDistinctThread},
    };
    TextTable table({"candidate", "speedup", "latency reduction"});
    table.setAlign(1, Align::Right);
    table.setAlign(2, Align::Right);
    for (const Candidate &c : candidates) {
        Params p = base;
        p.accelFactor = c.factor;
        p.interfaceCycles = c.latency;
        p.setupCycles = c.o0;
        p.strategy = c.strategy;
        Accelerometer m(p);
        Projection proj = m.project(c.design);
        table.addRow({c.name, fmtPct(proj.speedup - 1.0, 1),
                      fmtPct(proj.latencyReduction - 1.0, 1)});
    }
    std::cout << table.str() << "\n";

    std::cout << "== Does the async PCIe ASIC survive peak load? ==\n";
    // One shared device: queueing eats the win as utilization grows.
    Params p = base;
    p.accelFactor = 30;
    p.interfaceCycles = 2300;
    p.setupCycles = 200;
    double service_cycles = base.alpha * base.hostCycles /
        base.offloads / 30.0;
    TextTable load_table({"offloads/s", "utilization", "mean Q (cycles)",
                          "speedup"});
    for (size_t c = 1; c <= 3; ++c)
        load_table.setAlign(c, Align::Right);
    for (double load : {40e3, 400e3, 1.2e6, 2.0e6}) {
        double rho = utilization(service_cycles, load, 2.3e9);
        if (rho >= 1.0) {
            load_table.addRow({fmtF(load, 0), fmtF(rho, 2), "unstable",
                               "-"});
            continue;
        }
        Params q = p;
        q.offloads = load;
        q.queueCycles = mm1WaitCycles(service_cycles, load, 2.3e9);
        Accelerometer m(q);
        load_table.addRow(
            {fmtF(load, 0), fmtF(rho, 2), fmtF(q.queueCycles, 0),
             fmtPct(m.speedup(ThreadingDesign::AsyncSameThread) - 1.0,
                    1)});
    }
    std::cout << load_table.str();
    std::cout << "\nCapacity-planning takeaway: provision the device so "
                 "utilization stays modest, or the queuing term Q erases "
                 "the projected win.\n";

    std::cout << "\n== Planning for a day, not a peak ==\n";
    // Traffic is diurnal, so static provisioning pays for the peak all
    // day. Simulate a day-shaped trace (compressed to 50 ms steps)
    // against (a) a tier sized for peak with model::minServersForWait
    // and (b) the same tier under an SLO-driven autoscaler that grows
    // and shrinks live replicas, with a brown-out admission gate
    // covering its reaction window.
    microsim::ArrivalProgram day = microsim::ArrivalProgram::dayTrace(
        50000, {0.4, 0.7, 1.2, 2.0, 2.8, 2.0, 1.0, 0.5}, 0.05);
    const double kClockHz = 1e9;
    const double kServiceCycles = 20200; // ~1000-byte kernel, A = 10
    unsigned peak_k = model::minServersForWait(
        kServiceCycles, day.peakRate(), kClockHz,
        /*waitBudgetCycles=*/20000);
    std::cout << "peak " << fmtF(day.peakRate(), 0) << "/s needs "
              << peak_k << " replicas (M/M/k, 20k-cycle Q budget); "
              << "mean load is only " << fmtF(day.meanRate(0.4), 0)
              << "/s\n";

    microsim::WorkloadSpec work;
    work.nonKernelCyclesMean = 1000;
    work.nonKernelCv = 0.3;
    work.kernelsPerRequest = 1;
    work.granularity = std::make_shared<const BucketDist>(
        std::vector<DistBucket>{{900, 1100, 1.0}});
    work.cyclesPerByte = 200.0;
    microsim::AcceleratorConfig dev;
    dev.speedupFactor = 10;
    dev.fixedLatencyCycles = 100;
    dev.latencyCyclesPerByte = 0.1;
    microsim::TierConfig tier;
    tier.replicas = peak_k;
    tier.policy = microsim::DispatchPolicy::LeastOutstanding;

    auto runDay = [&](bool autoscaled) {
        microsim::ServiceConfig svc;
        svc.cores = 24;
        svc.threads = 24;
        svc.design = ThreadingDesign::Sync;
        svc.clockGHz = 1.0;
        svc.offloadSetupCycles = 20;
        svc.arrivalProgram = day;
        svc.maxArrivalQueue = 256;
        if (autoscaled) {
            svc.autoscaler.enabled = true;
            svc.autoscaler.intervalCycles = 5e5;
            svc.autoscaler.sloLatencyCycles = 400000;
            svc.autoscaler.scaleUpPressure = 0.5;
            svc.autoscaler.scaleDownPressure = 0.12;
            svc.autoscaler.downWindows = 10;
            svc.autoscaler.cooldownCycles = 1.5e6;
            svc.autoscaler.maxReplicas = peak_k;
            svc.autoscaler.brownout = true;
            svc.autoscaler.brownoutFloor = 32;
        }
        microsim::ServiceSim sim(microsim::ServiceSpec("capacity-day")
                                     .service(svc)
                                     .accelerator(dev)
                                     .tier(tier)
                                     .workload(work)
                                     .seed(2020));
        return sim.run(/*measureSeconds=*/0.4, /*warmupSeconds=*/0.05);
    };
    microsim::ServiceMetrics fixed = runDay(false);
    microsim::ServiceMetrics scaled = runDay(true);

    TextTable day_table({"arm", "p99 cycles", "QPS", "shed %",
                         "replica-cycles", "ups/downs"});
    for (size_t c = 1; c <= 5; ++c)
        day_table.setAlign(c, Align::Right);
    auto dayRow = [&](const char *name,
                      const microsim::ServiceMetrics &m) {
        double shed = m.requestsArrived == 0
            ? 0.0
            : static_cast<double>(m.requestsShed) / m.requestsArrived;
        day_table.addRow(
            {name, fmtF(m.latencySample.p99(), 0), fmtF(m.qps(), 0),
             fmtPct(shed, 2), fmtF(m.tier.provisionedReplicaCycles, 0),
             std::to_string(m.autoscaler.scaleUps) + "/" +
                 std::to_string(m.autoscaler.scaleDowns)});
    };
    dayRow("static peak", fixed);
    dayRow("autoscaled", scaled);
    std::cout << day_table.str();
    std::cout << "\nAutoscaling takeaway: the controller bills "
              << fmtPct(scaled.tier.provisionedReplicaCycles /
                                fixed.tier.provisionedReplicaCycles -
                            1.0,
                        1)
              << " replica-cycles vs static peak while both hold p99; "
                 "bench/autoscale_slo enforces this with exit-code "
                 "gates.\n";
    return 0;
}
