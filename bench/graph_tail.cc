/**
 * @file
 * Extension bench: RPC fan-out tail amplification across a service
 * graph, plus the Ads1 remote-inference validation re-run as a
 * Web -> Ads -> Cache graph.
 *
 * The paper measures each service's acceleration in isolation; at
 * hyperscale a user request fans out across tiers of services, and the
 * end-to-end tail is the join over the slowest child at every level.
 * This bench quantifies that amplification on the ServiceGraph
 * simulator and cross-checks the graph plumbing against the paper's
 * Ads1 case study driven through a front-end instead of a closed loop.
 *
 * Usage: graph_tail [--seed N] [--json PATH]
 *
 * Exits non-zero unless ALL acceptance criteria hold:
 *  (a) depth series: with 2-way sync fan-out and jittered hops at
 *      every level, end-to-end p99 grows strictly with fan-out depth
 *      1 -> 2 -> 3, and each depth's p99 amplification over the
 *      front-end's service-local p99 exceeds 1;
 *  (b) Ads1 in a graph: the accelerated-vs-host throughput ratio of
 *      the Ads node inside a saturated Web -> Ads -> Cache graph lands
 *      within 10 points of the standalone A/B measurement (which
 *      itself validates against the paper's 0.687x);
 *  (c) identity: a single-node graph reproduces the standalone
 *      ServiceSim metrics bit-identically (same JSON bytes).
 */

#include <cmath>

#include "bench_common.hh"
#include "graph_fixtures.hh"
#include "microsim/ab_test.hh"
#include "microsim/service_graph.hh"
#include "microsim/service_sim.hh"
#include "microsim/service_spec.hh"
#include "util/thread_pool.hh"
#include "workload/request_factory.hh"

using namespace accel;
using model::ThreadingDesign;

namespace {

/** Gate (b): graph Ads throughput ratio within 10pp of standalone. */
constexpr double kAdsTolerance = 0.10;

/** ~5000-cycle host-only request for the depth-series tiers. */
microsim::WorkloadSpec
tierWorkload()
{
    microsim::WorkloadSpec w;
    w.nonKernelCyclesMean = 4000;
    w.nonKernelCv = 0.2;
    w.kernelsPerRequest = 1;
    w.granularity = std::make_shared<const BucketDist>(
        std::vector<DistBucket>{{400, 600, 1.0}});
    w.cyclesPerByte = 2.0;
    return w;
}

microsim::ServiceConfig
tierConfig(double arrivalsPerSec, std::uint32_t threads)
{
    microsim::ServiceConfig cfg;
    cfg.cores = threads;
    cfg.threads = threads;
    cfg.design = ThreadingDesign::Sync;
    cfg.clockGHz = 1.0;
    cfg.accelerated = false;
    cfg.openArrivalsPerSec = arrivalsPerSec;
    return cfg;
}

microsim::ServiceSpec
tierNode(const std::string &name, double arrivalsPerSec,
         std::uint32_t threads, std::uint64_t seed)
{
    return microsim::ServiceSpec(name)
        .service(tierConfig(arrivalsPerSec, threads))
        .accelerator(microsim::AcceleratorConfig{})
        .workload(tierWorkload())
        .seed(seed);
}

/**
 * Depth-d chain: web fans out 2-way sync to t1, t1 to t2, ... with a
 * jittered hop both ways, so the root joins over 2^d leaf draws.
 */
microsim::GraphMetrics
runDepth(std::uint32_t depth, std::uint64_t seed)
{
    microsim::ServiceGraph graph(seed);
    graph.addService(tierNode("web", /*arrivalsPerSec=*/10000,
                              /*threads=*/1, seed));
    std::string prev = "web";
    for (std::uint32_t d = 1; d <= depth; ++d) {
        // Built by append: GCC 12's -Wrestrict false-positives on
        // operator+(const char *, std::string &&) under -O2.
        std::string name = "t";
        name += std::to_string(d);
        // Offered load doubles per level; 4 threads keep every tier
        // far from saturation so the tail is join-driven, not queueing.
        graph.addService(tierNode(name, 0, /*threads=*/4, seed + d));
        microsim::EdgeConfig e;
        e.caller = prev;
        e.callee = name;
        e.fanout = 2;
        e.style = microsim::CallStyle::Sync;
        e.latencyCycles = 1000;
        e.latencyJitterCycles = 2000;
        graph.addEdge(e);
        prev = name;
    }
    return graph.run(/*measureSeconds=*/0.25, /*warmupSeconds=*/0.05);
}

/** One arm of the Ads1-in-a-graph validation. */
struct AdsArm
{
    std::string name;
    bool accelerated = false;
    microsim::GraphMetrics m;
};

/** One arm of the Ads1-in-a-graph validation (fixture topology). */
microsim::GraphMetrics
runAdsGraph(const microsim::AbExperiment &ads, bool accelerated)
{
    return bench::webAdsCacheGraph(ads, accelerated)
        .run(ads.measureSeconds, ads.warmupSeconds);
}

} // namespace

int
main(int argc, char **argv)
{
    const bench::BenchArgs args =
        bench::BenchArgs::parse("graph_tail", argc, argv);
    const std::uint64_t seed = args.seed;

    bench::banner("Graph tail: RPC fan-out amplification and Ads1 "
                  "as a service graph (extension)");

    // ---- (a) depth series ----
    const std::vector<std::uint32_t> depths = {1, 2, 3};
    std::vector<microsim::GraphMetrics> series =
        parallelMap(depths, [&](std::uint32_t depth) {
            return runDepth(depth, seed);
        });

    TextTable depth_table({"depth", "root p99 cyc", "web-local p99",
                           "amplification", "roots/s"});
    for (size_t c = 1; c <= 4; ++c)
        depth_table.setAlign(c, Align::Right);
    std::ostringstream csv_text;
    CsvWriter csv(csv_text, {"depth", "root_p99_cycles",
                             "web_local_p99_cycles", "amplification",
                             "root_qps"});
    std::vector<double> amp(depths.size());
    bool depth_ok = true;
    for (size_t i = 0; i < depths.size(); ++i) {
        const microsim::GraphMetrics &m = series[i];
        double root_p99 = m.rootLatencyCycles.p99();
        double local_p99 =
            m.node("web").service.latencySample.p99();
        amp[i] = root_p99 / local_p99;
        depth_table.addRow({std::to_string(depths[i]),
                            fmtF(root_p99, 0), fmtF(local_p99, 0),
                            fmtF(amp[i], 2), fmtF(m.rootQps(), 0)});
        csv.row({std::to_string(depths[i]), fmtF(root_p99, 0),
                 fmtF(local_p99, 0), fmtF(amp[i], 4),
                 fmtF(m.rootQps(), 1)});
        depth_ok = depth_ok && amp[i] > 1.0 &&
            (i == 0 || series[i].rootLatencyCycles.p99() >
                           series[i - 1].rootLatencyCycles.p99());
    }
    std::cout << depth_table.str() << "\ncsv:\n" << csv_text.str()
              << "\n";
    std::cout << "depth check: p99 strictly increasing with fan-out "
                 "depth, amplification > 1 at every depth -> "
              << (depth_ok ? "pass" : "FAIL") << "\n\n";

    // ---- (b) Ads1 as Web -> Ads -> Cache ----
    workload::CaseStudy cs = workload::remoteInferenceCaseStudy();
    microsim::AbResult standalone = microsim::runAbTest(cs.experiment);
    double standalone_speedup = standalone.measuredSpeedup();

    std::vector<AdsArm> arms(2);
    arms[0].name = "host-only";
    arms[1].name = "accelerated";
    arms[1].accelerated = true;
    arms = parallelMap(arms, [&](AdsArm arm) {
        arm.m = runAdsGraph(cs.experiment, arm.accelerated);
        return arm;
    });
    double host_qps = arms[0].m.node("ads").service.qps();
    double accel_qps = arms[1].m.node("ads").service.qps();
    require(host_qps > 0, "graph_tail: host arm measured no Ads "
                          "completions");
    double graph_speedup = accel_qps / host_qps;

    TextTable ads_table({"arm", "ads QPS", "ads shed", "root p99 cyc",
                         "cache QPS"});
    for (size_t c = 1; c <= 4; ++c)
        ads_table.setAlign(c, Align::Right);
    for (const AdsArm &arm : arms) {
        const microsim::ServiceMetrics &ads =
            arm.m.node("ads").service;
        ads_table.addRow(
            {arm.name, fmtF(ads.qps(), 2),
             std::to_string(ads.requestsShed),
             fmtF(arm.m.rootLatencyCycles.p99(), 0),
             fmtF(arm.m.node("cache").service.qps(), 2)});
    }
    std::cout << ads_table.str() << "\n";
    bool ads_ok =
        std::abs(graph_speedup - standalone_speedup) <= kAdsTolerance;
    std::cout << "ads check: graph speedup "
              << fmtF(graph_speedup, 4) << "x vs standalone "
              << fmtF(standalone_speedup, 4) << "x (paper real "
              << fmtF(1.0 + cs.paperRealSpeedup, 4)
              << "x; criterion: within " << fmtF(kAdsTolerance, 2)
              << ") -> " << (ads_ok ? "pass" : "FAIL") << "\n\n";

    // ---- (c) single-node graph identity ----
    microsim::ServiceSpec solo =
        tierNode("solo", 50000, /*threads=*/1, seed);
    microsim::ServiceMetrics alone =
        microsim::ServiceSim(solo).run(0.25, 0.05);
    microsim::ServiceGraph single(seed);
    single.addService(solo);
    microsim::GraphMetrics wrapped = single.run(0.25, 0.05);
    bool identity_ok = wrapped.node("solo").service.summaryJson() ==
        alone.summaryJson();
    std::cout << "identity check: single-node graph vs standalone "
                 "ServiceSim summary JSON "
              << (identity_ok ? "bit-identical -> pass"
                              : "DIVERGED -> FAIL")
              << "\n";

    std::cout
        << "\nReading: each sync fan-out level joins on its slowest "
           "child, so the end-to-end p99 compounds hop jitter that no "
           "single service's profile shows — accelerating one tier in "
           "isolation understates (or misses) what the user sees. The "
           "Ads1 arm shows the same simulator produces the paper's "
           "case-study economics when the service sits mid-graph "
           "behind a front-end rather than in a closed loop.\n";

    bool ok = depth_ok && ads_ok && identity_ok;
    if (!args.jsonPath.empty()) {
        std::ostringstream json;
        json << "{\n  \"seed\": " << seed << ",\n  \"depths\": [\n";
        for (size_t i = 0; i < depths.size(); ++i) {
            json << (i == 0 ? "" : ",\n") << "    {\"depth\": "
                 << depths[i] << ", \"amplification\": "
                 << fmtF(amp[i], 4) << ", \"summary\": "
                 << series[i].summaryJson() << "}";
        }
        json << "\n  ],\n  \"ads\": {\"standalone_speedup\": "
             << fmtF(standalone_speedup, 4) << ", \"graph_speedup\": "
             << fmtF(graph_speedup, 4) << ", \"paper_real\": "
             << fmtF(1.0 + cs.paperRealSpeedup, 4)
             << ", \"host\": " << arms[0].m.summaryJson()
             << ", \"accelerated\": " << arms[1].m.summaryJson()
             << "},\n  \"depth_pass\": "
             << (depth_ok ? "true" : "false") << ",\n  \"ads_pass\": "
             << (ads_ok ? "true" : "false")
             << ",\n  \"identity_pass\": "
             << (identity_ok ? "true" : "false") << ",\n  \"pass\": "
             << (ok ? "true" : "false") << "\n}\n";
        args.writeJson(json.str());
    }
    return ok ? 0 : 1;
}
