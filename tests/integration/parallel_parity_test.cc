/**
 * @file
 * Serial-vs-parallel parity suite for the experiment runner.
 *
 * Every experiment in this repository is a pure function of its seed
 * and parameters, and the runner writes results into slots indexed by
 * input position. Consequences tested here: sweeps, sensitivity
 * rankings, fleet projections, and A/B results must be bit-identical —
 * not merely close — for worker counts {1, 2, 8}.
 */

#include <cmath>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "faults/fault_plan.hh"
#include "microsim/ab_test.hh"
#include "microsim/arrival_program.hh"
#include "microsim/service_graph.hh"
#include "model/fleet.hh"
#include "model/sensitivity.hh"
#include "model/sweep.hh"
#include "util/logging.hh"
#include "util/thread_pool.hh"

namespace accel {
namespace {

using model::FleetProjection;
using model::FleetService;
using model::Params;
using model::SweepPoint;
using model::ThreadingDesign;

const std::vector<size_t> kWorkerCounts = {1, 2, 8};

Params
modelParams()
{
    Params p;
    p.hostCycles = 2e9;
    p.alpha = 0.3;
    p.offloads = 2e5;
    p.setupCycles = 30;
    p.interfaceCycles = 400;
    p.threadSwitchCycles = 100;
    p.accelFactor = 10;
    return p;
}

microsim::AbExperiment
abExperiment()
{
    microsim::AbExperiment e;
    e.service.cores = 1;
    e.service.threads = 1;
    e.service.design = ThreadingDesign::Sync;
    e.service.clockGHz = 1.0;
    e.service.offloadSetupCycles = 20;
    e.accelerator.speedupFactor = 8;
    e.accelerator.fixedLatencyCycles = 40;
    e.workload.nonKernelCyclesMean = 4000;
    e.workload.kernelsPerRequest = 1;
    e.workload.granularity = std::make_shared<const BucketDist>(
        std::vector<DistBucket>{{400, 600, 1.0}});
    e.workload.cyclesPerByte = 2.0;
    e.measureSeconds = 0.05;
    e.warmupSeconds = 0.01;
    return e;
}

/** Run @p fn at every worker count and assert bitwise-equal results. */
template <typename Fn>
void
expectParity(Fn &&fn)
{
    ThreadPool::setWorkers(1);
    auto reference = fn();
    for (size_t workers : kWorkerCounts) {
        ThreadPool::setWorkers(workers);
        auto result = fn();
        EXPECT_TRUE(result == reference)
            << "diverged at " << workers << " workers";
    }
    ThreadPool::setWorkers(0); // restore ACCEL_JOBS/hardware default
}

/** Flatten sweep points into a bitwise-comparable tuple vector. */
std::vector<std::tuple<double, double, double>>
flatten(const std::vector<SweepPoint> &points)
{
    std::vector<std::tuple<double, double, double>> out;
    for (const SweepPoint &p : points) {
        out.emplace_back(p.x, p.projection.speedup,
                         p.projection.latencyReduction);
    }
    return out;
}

/** @p count values from @p lo to @p hi in a constant ratio. */
std::vector<double>
geometric(double lo, double hi, size_t count)
{
    std::vector<double> xs(count);
    double ratio = std::pow(hi / lo, 1.0 / static_cast<double>(count - 1));
    double v = lo;
    for (double &x : xs) {
        x = v;
        v *= ratio;
    }
    return xs;
}

TEST(ParallelParity, SweepBitIdentical)
{
    expectParity([] {
        return flatten(model::sweepAccelFactor(
            modelParams(), ThreadingDesign::Sync, geometric(1, 64, 61)));
    });
}

TEST(ParallelParity, SensitivityRankingBitIdentical)
{
    expectParity([] {
        auto sens = model::speedupSensitivities(
            modelParams(), ThreadingDesign::AsyncSameThread);
        // Compare the full numeric ranking.
        std::vector<std::pair<std::string, double>> flat;
        for (const auto &s : sens)
            flat.emplace_back(s.parameter, s.elasticity);
        return flat;
    });
}

TEST(ParallelParity, FleetProjectionBitIdentical)
{
    expectParity([] {
        std::vector<FleetService> services;
        for (int i = 0; i < 12; ++i) {
            FleetService svc;
            svc.name = "svc" + std::to_string(i);
            svc.servers = 1000 + 137 * i;
            svc.params = modelParams();
            svc.params.alpha = 0.05 + 0.02 * i;
            svc.design = ThreadingDesign::Sync;
            services.push_back(std::move(svc));
        }
        FleetProjection fp = model::projectFleet(services);
        return std::make_tuple(fp.fleetSpeedup, fp.serversFreed,
                               fp.totalServers, fp.perService);
    });
}

TEST(ParallelParity, AbResultBitIdentical)
{
    expectParity([] {
        microsim::AbResult r = microsim::runAbTest(abExperiment());
        return std::make_tuple(
            r.baseline.qps(), r.baseline.meanLatencyCycles(),
            r.baseline.latencySample.p99(), r.treatment.qps(),
            r.treatment.meanLatencyCycles(),
            r.treatment.latencySample.p99(), r.measuredSpeedup());
    });
}

TEST(ParallelParity, ResilienceAbBitIdentical)
{
    // Fault draws are slot-indexed by offload number, so the resilient
    // arm's retries, fallbacks, and breaker trips must replay
    // bit-identically at any worker count.
    LogLevel prev = setLogLevel(LogLevel::Silent);
    expectParity([] {
        microsim::AbExperiment e = abExperiment();
        auto plan = std::make_shared<faults::FaultPlan>();
        plan->seed = 77;
        plan->dropProbability = 0.3;
        e.accelerator.faultPlan = std::move(plan);
        e.service.retry.timeoutCycles = 2000;
        e.service.retry.maxAttempts = 2;
        e.service.retry.backoffBaseCycles = 500;
        e.service.retry.backoffCapCycles = 2000;
        e.service.breaker.enabled = true;
        e.service.breaker.window = 16;
        e.service.breaker.minSamples = 8;
        e.service.breaker.openThreshold = 0.9;
        e.service.breaker.probeAfterCycles = 50000;
        microsim::ResilienceAbResult r =
            microsim::runResilienceAbTest(e);
        return std::make_tuple(
            r.hostOnly.qps(), r.hostOnly.goodputQps(),
            r.resilient.qps(), r.resilient.goodputQps(),
            r.resilient.offloadTimeouts, r.resilient.offloadRetries,
            r.resilient.hostFallbacks, r.resilient.breakerOpens,
            r.resilient.requestsDegraded, r.goodputRatio());
    });
    setLogLevel(prev);
}

TEST(ParallelParity, TierAbBitIdentical)
{
    // Tier dispatch (p2c), hedging, and per-replica fault draws are
    // all slot-indexed, so a replicated-tier experiment must replay
    // bit-identically at any worker count.
    LogLevel prev = setLogLevel(LogLevel::Silent);
    expectParity([] {
        microsim::AbExperiment e = abExperiment();
        e.service.design = ThreadingDesign::AsyncSameThread;
        e.service.strategy = model::Strategy::Remote;
        e.service.driverWaitsForAck = false;
        e.tier.replicas = 4;
        e.tier.policy = microsim::DispatchPolicy::PowerOfTwoChoices;
        e.tier.hedge.enabled = true;
        e.tier.hedge.delayCycles = 2000;
        e.tier.healthTimeoutCycles = 5000;
        e.tier.readmitAfterCycles = 20000;
        auto slow = std::make_shared<faults::FaultPlan>();
        slow->seed = 23;
        slow->lateProbability = 0.3;
        slow->lateDelayCycles = 8000;
        e.tier.replicaFaultPlans = {nullptr, nullptr, nullptr,
                                    std::move(slow)};
        microsim::AbResult r = microsim::runAbTest(e);
        return std::make_tuple(
            r.treatment.qps(), r.treatment.meanLatencyCycles(),
            r.treatment.latencySample.p99(),
            r.treatment.tier.hedgesIssued, r.treatment.tier.hedgeWins,
            r.treatment.tier.duplicateCompletions,
            r.treatment.tier.wastedServiceCycles,
            r.treatment.tier.watchdogExpiries,
            r.treatment.tier.ejections, r.treatment.tier.failovers,
            r.treatment.tier.offloadLatencyCycles.p99(),
            r.measuredSpeedup());
    });
    setLogLevel(prev);
}

TEST(ParallelParity, ConstantArrivalProgramMatchesLegacyOpenLoop)
{
    // A constant ArrivalProgram takes the legacy single-draw arrival
    // path, so spelling the offered load either way must replay
    // bit-identically — and stay bit-identical at any worker count.
    auto runWith = [](bool program) {
        microsim::AbExperiment e = abExperiment();
        if (program) {
            e.service.arrivalProgram =
                microsim::ArrivalProgram::constant(120000);
        } else {
            e.service.openArrivalsPerSec = 120000;
        }
        microsim::AbResult r = microsim::runAbTest(e);
        auto flat = [](const microsim::ServiceMetrics &m) {
            return std::make_tuple(m.requestsArrived,
                                   m.requestsCompleted, m.qps(),
                                   m.meanLatencyCycles(),
                                   m.latencySample.p99());
        };
        return std::make_pair(flat(r.baseline), flat(r.treatment));
    };
    expectParity([&] {
        auto legacy = runWith(false);
        auto viaProgram = runWith(true);
        EXPECT_TRUE(legacy == viaProgram)
            << "constant program diverged from openArrivalsPerSec";
        return std::make_pair(legacy, viaProgram);
    });
}

TEST(ParallelParity, ServiceGraphBitIdentical)
{
    // A graph runs on one event queue, but its construction path and
    // metrics collection must not pick up any worker-count dependence
    // (and graph users will shard seeds across the pool).
    expectParity([] {
        const microsim::AbExperiment base = abExperiment();
        auto node = [&base](const std::string &name, double load) {
            microsim::ServiceConfig cfg = base.service;
            cfg.openArrivalsPerSec = load;
            return microsim::ServiceSpec(name)
                .service(cfg)
                .accelerator(base.accelerator)
                .workload(base.workload)
                .seed(19);
        };
        microsim::ServiceGraph graph(19);
        graph.addService(node("web", 15000));
        graph.addService(node("mid", 0));
        graph.addService(node("leaf", 0));
        microsim::EdgeConfig fan;
        fan.caller = "web";
        fan.callee = "mid";
        fan.fanout = 2;
        fan.latencyCycles = 1000;
        fan.latencyJitterCycles = 500;
        graph.addEdge(fan);
        microsim::EdgeConfig tail;
        tail.caller = "mid";
        tail.callee = "leaf";
        tail.style = microsim::CallStyle::Async;
        tail.latencyCycles = 2000;
        graph.addEdge(tail);
        return graph.run(0.03, 0.01).summaryJson();
    });
}

TEST(ParallelParity, ResilientServiceGraphBitIdentical)
{
    // The containment layer adds timers, retry chains, breaker state,
    // and slot-indexed fault draws; none of it may pick up a
    // worker-count dependence, and the fault-off edge beside the
    // faulted one must stay on the legacy path at every ACCEL_JOBS.
    expectParity([] {
        const microsim::AbExperiment base = abExperiment();
        auto node = [&base](const std::string &name, double load) {
            microsim::ServiceConfig cfg = base.service;
            cfg.openArrivalsPerSec = load;
            return microsim::ServiceSpec(name)
                .service(cfg)
                .accelerator(base.accelerator)
                .workload(base.workload)
                .seed(23);
        };
        microsim::ServiceGraph graph(23);
        graph.addService(node("web", 15000));
        graph.addService(node("mid", 0));
        graph.addService(node("leaf", 0));
        microsim::EdgeConfig plain;
        plain.caller = "web";
        plain.callee = "mid";
        plain.latencyCycles = 1000;
        plain.latencyJitterCycles = 500;
        graph.addEdge(plain);
        microsim::EdgeConfig sick;
        sick.caller = "mid";
        sick.callee = "leaf";
        sick.latencyCycles = 1000;
        sick.rpcTimeoutCycles = 30e3;
        sick.maxAttempts = 3;
        sick.retryBudget.cap = 10;
        sick.budgetSplit = microsim::BudgetSplit::ReserveForRetry;
        sick.breaker.enabled = true;
        sick.breaker.minSamples = 4;
        sick.breaker.probeAfterCycles = 1e5;
        auto plan = std::make_shared<faults::EdgeFaultPlan>();
        plan->seed = 29;
        plan->dropProbability = 0.2;
        plan->spikeProbability = 0.2;
        plan->spikeLatencyCycles = 50e3;
        sick.faultPlan = std::move(plan);
        graph.addEdge(sick);
        graph.rootDeadline(500e3);
        LogLevel prev = setLogLevel(LogLevel::Silent);
        std::string json = graph.run(0.03, 0.01).summaryJson();
        setLogLevel(prev);
        return json;
    });
}

TEST(ParallelParity, WorkerExceptionPropagatesFromSweep)
{
    std::vector<double> xs(32);
    for (size_t i = 0; i < xs.size(); ++i)
        xs[i] = static_cast<double>(i) / 31.0;
    ThreadPool::setWorkers(8);
    EXPECT_THROW(
        model::sweep(modelParams(), ThreadingDesign::Sync, xs,
                     [](Params &p, double x) {
                         // alpha > 1 violates the model domain.
                         p.alpha = 1.5 + x;
                     }),
        FatalError);
    ThreadPool::setWorkers(0);
}

} // namespace
} // namespace accel
