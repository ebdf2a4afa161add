/**
 * @file
 * Extension bench: parallel experiment runner scaling. Runs a fleet of
 * independent, seed-deterministic ServiceSim evaluations serially
 * (1 worker) and in parallel (default ACCEL_JOBS width), verifies the
 * two result sets are bit-identical, and reports the wall-clock
 * speedup — the experiment-throughput headline the runner exists for.
 */

#include <chrono>

#include "bench_common.hh"
#include "microsim/service_spec.hh"
#include "microsim/service_sim.hh"
#include "util/thread_pool.hh"

using namespace accel;
using model::ThreadingDesign;

namespace {

/** One experiment: a seeded open-loop service run at a given load. */
struct Experiment
{
    double load;
    std::uint64_t seed;
    bool accelerated;
};

microsim::ServiceMetrics
runOne(const Experiment &e)
{
    microsim::WorkloadSpec w;
    w.nonKernelCyclesMean = 4000;
    w.nonKernelCv = 0.3;
    w.kernelsPerRequest = 1;
    w.granularity = std::make_shared<const BucketDist>(
        std::vector<DistBucket>{{400, 600, 1.0}});
    w.cyclesPerByte = 2.0;

    microsim::ServiceConfig cfg;
    cfg.cores = 1;
    cfg.threads = 1;
    cfg.design = ThreadingDesign::Sync;
    cfg.clockGHz = 1.0;
    cfg.accelerated = e.accelerated;
    cfg.offloadSetupCycles = 20;
    cfg.openArrivalsPerSec = e.load;
    microsim::AcceleratorConfig dev;
    dev.speedupFactor = 5;
    dev.fixedLatencyCycles = 50;
    microsim::ServiceSim sim(microsim::ServiceSpec("runner-scaling")
                                 .service(cfg)
                                 .accelerator(dev)
                                 .workload(w)
                                 .seed(e.seed));
    return sim.run(0.25, 0.05);
}

std::vector<microsim::ServiceMetrics>
runFleet(const std::vector<Experiment> &experiments)
{
    return parallelMap(experiments, runOne);
}

double
seconds(std::chrono::steady_clock::time_point t0,
        std::chrono::steady_clock::time_point t1)
{
    return std::chrono::duration<double>(t1 - t0).count();
}

} // namespace

int
main()
{
    bench::banner("Parallel experiment runner: serial vs parallel "
                  "wall-clock and bit-for-bit parity (extension)");

    std::vector<Experiment> experiments;
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        for (double load : {120e3, 180e3}) {
            experiments.push_back({load, seed, false});
            experiments.push_back({load, seed, true});
        }
    }

    size_t parallel_workers = ThreadPool::defaultWorkers();

    ThreadPool::setWorkers(1);
    auto t0 = std::chrono::steady_clock::now();
    std::vector<microsim::ServiceMetrics> serial =
        runFleet(experiments);
    auto t1 = std::chrono::steady_clock::now();

    ThreadPool::setWorkers(parallel_workers);
    auto t2 = std::chrono::steady_clock::now();
    std::vector<microsim::ServiceMetrics> parallel =
        runFleet(experiments);
    auto t3 = std::chrono::steady_clock::now();

    size_t mismatches = 0;
    for (size_t i = 0; i < experiments.size(); ++i) {
        if (serial[i].qps() != parallel[i].qps() ||
            serial[i].meanLatencyCycles() !=
                parallel[i].meanLatencyCycles() ||
            serial[i].latencySample.p99() !=
                parallel[i].latencySample.p99())
            ++mismatches;
    }

    double serial_s = seconds(t0, t1);
    double parallel_s = seconds(t2, t3);
    TextTable table({"configuration", "experiments", "wall (s)",
                     "speedup"});
    for (size_t c = 1; c <= 3; ++c)
        table.setAlign(c, Align::Right);
    table.addRow({"serial (1 worker)",
                  std::to_string(experiments.size()),
                  fmtF(serial_s, 3), "1.00x"});
    table.addRow({"parallel (" + std::to_string(parallel_workers) +
                      " workers)",
                  std::to_string(experiments.size()),
                  fmtF(parallel_s, 3),
                  fmtF(serial_s / parallel_s, 2) + "x"});
    std::cout << table.str();

    std::cout << "\nparity: " << (experiments.size() - mismatches)
              << "/" << experiments.size()
              << " experiments bit-identical across worker counts\n";
    if (mismatches > 0) {
        std::cout << "FAIL: parallel runner diverged from the serial "
                     "path\n";
        return 1;
    }
    std::cout << "\nReading: every evaluation is deterministic given "
                 "its seed, and the runner writes results into slots "
                 "indexed by input position — so parallelism changes "
                 "wall-clock time only, never a number in a table.\n";
    return 0;
}
