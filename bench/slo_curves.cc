/**
 * @file
 * Extension bench: latency-vs-load curves with and without
 * acceleration, open-loop Poisson arrivals. The analytical model exists
 * to answer "does acceleration let us serve more QPS without violating
 * the latency SLO?" — this bench shows the answer as the paper's
 * operators would see it: p50/p99 latency at rising offered load, with
 * the SLO crossing point shifting right under acceleration.
 */

#include "bench_common.hh"
#include "microsim/service_spec.hh"
#include "microsim/service_sim.hh"
#include "util/thread_pool.hh"

using namespace accel;
using model::ThreadingDesign;

namespace {

microsim::WorkloadSpec
workload()
{
    microsim::WorkloadSpec w;
    w.nonKernelCyclesMean = 4000;
    w.nonKernelCv = 0.3;
    w.kernelsPerRequest = 1;
    w.granularity = std::make_shared<const BucketDist>(
        std::vector<DistBucket>{{400, 600, 1.0}});
    w.cyclesPerByte = 2.0; // ~5000 cycles/request unaccelerated
    return w;
}

microsim::ServiceMetrics
run(double load, bool accelerated)
{
    microsim::ServiceConfig cfg;
    cfg.cores = 1;
    cfg.threads = 1;
    cfg.design = ThreadingDesign::Sync;
    cfg.clockGHz = 1.0;
    cfg.accelerated = accelerated;
    cfg.offloadSetupCycles = 20;
    cfg.openArrivalsPerSec = load;
    microsim::AcceleratorConfig dev;
    dev.speedupFactor = 5;
    dev.fixedLatencyCycles = 50;
    microsim::ServiceSim sim(microsim::ServiceSpec("slo-curves")
                                 .service(cfg)
                                 .accelerator(dev)
                                 .workload(workload())
                                 .seed(2020));
    return sim.run(0.2, 0.05);
}

} // namespace

int
main()
{
    bench::banner("SLO curves: latency vs offered load, with and "
                  "without acceleration (extension)");

    const double kSloCycles = 25000; // p99 SLO: 25 us at 1 GHz

    TextTable table({"offered QPS", "baseline p50", "baseline p99",
                     "accel p50", "accel p99", "SLO (p99<25k)"});
    for (size_t c = 1; c <= 4; ++c)
        table.setAlign(c, Align::Right);
    std::ostringstream csv_text;
    CsvWriter csv(csv_text, {"offered_qps", "base_p50", "base_p99",
                             "accel_p50", "accel_p99"});
    // Both arms of every load point are independent seeded runs; shard
    // them across the pool and print in input order.
    const std::vector<double> loads = {50e3,  120e3, 160e3,
                                       180e3, 200e3, 220e3};
    struct Arms
    {
        microsim::ServiceMetrics base;
        microsim::ServiceMetrics accel;
    };
    std::vector<Arms> results = parallelMap(
        loads, [](double load) {
            return Arms{run(load, false), run(load, true)};
        });
    for (size_t i = 0; i < loads.size(); ++i) {
        double load = loads[i];
        microsim::ServiceMetrics &base = results[i].base;
        microsim::ServiceMetrics &accel = results[i].accel;
        std::string verdict;
        bool base_ok = base.latencySample.p99() < kSloCycles &&
                       base.qps() > 0.95 * load;
        bool accel_ok = accel.latencySample.p99() < kSloCycles &&
                        accel.qps() > 0.95 * load;
        if (base_ok && accel_ok)
            verdict = "both hold";
        else if (accel_ok)
            verdict = "only accelerated holds";
        else
            verdict = "both violate";
        table.addRow({fmtF(load, 0), fmtF(base.latencySample.p50(), 0),
                      fmtF(base.latencySample.p99(), 0),
                      fmtF(accel.latencySample.p50(), 0),
                      fmtF(accel.latencySample.p99(), 0), verdict});
        csv.row({fmtF(load, 0), fmtF(base.latencySample.p50(), 0),
                 fmtF(base.latencySample.p99(), 0),
                 fmtF(accel.latencySample.p50(), 0),
                 fmtF(accel.latencySample.p99(), 0)});
    }
    std::cout << table.str() << "\ncsv:\n" << csv_text.str();
    std::cout << "\nReading: acceleration lowers per-request service "
                 "time, which pushes the hockey-stick of the latency "
                 "curve — and therefore the maximum SLO-compliant load "
                 "— to the right. This is the throughput-without-"
                 "violating-SLO property the model's dual speedup / "
                 "latency-reduction projections are designed to check.\n";
    return 0;
}
