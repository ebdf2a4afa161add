#include "workloads.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <optional>
#include <string_view>

#include "microsim/service_graph.hh"
#include "microsim/service_spec.hh"
#include "model/accelerometer.hh"
#include "profiling/aggregator.hh"
#include "profiling/sampler.hh"
#include "util/thread_pool.hh"
#include "util/wall_timer.hh"
#include "workload/request_factory.hh"

namespace accel::perf {

namespace {

using microsim::ServiceMetrics;
using microsim::ServiceSpec;

/** runUntil slices per window in a traced round. */
constexpr sim::Tick kTraceSlices = 64;

/** 64-bit FNV-1a over the bytes of a round's simulated output. */
class Fnv1a
{
  public:
    void
    add(std::string_view bytes)
    {
        for (unsigned char c : bytes) {
            hash_ ^= c;
            hash_ *= 0x100000001b3ULL;
        }
    }

    std::uint64_t value() const { return hash_; }

  private:
    std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0.0;
}

/** Drive @p eq to @p end; traced rounds split it into equal slices. */
void
runWindow(Probe &probe, sim::EventQueue &eq, sim::Tick end)
{
    if (!probe.traced()) {
        Probe::Scope s(probe, Site::RunUntil);
        eq.runUntil(end);
        return;
    }
    const sim::Tick begin = eq.now();
    for (sim::Tick i = 1; i <= kTraceSlices; ++i) {
        const std::uint64_t before = eq.processed();
        Probe::Scope s(probe, Site::RunUntil);
        eq.runUntil(begin + (end - begin) * i / kTraceSlices);
        s.setEvents(eq.processed() - before);
    }
}

// ------------------------------------------------------------------
// ServiceSim arms on a queue the benchmark owns
// ------------------------------------------------------------------

/** One standalone service run: spec plus its measurement window. */
struct Arm
{
    ServiceSpec spec;
    double measureSeconds = 0.0;
    double warmupSeconds = 0.0;
};

/** What one arm produced in the last round. */
struct ArmRun
{
    ServiceMetrics metrics;
    std::string json;
    std::uint64_t events = 0;
};

/**
 * The graph-node construction path on an owned queue: beginWindow,
 * runUntil(windowEndTick), collectMetrics. Its summaryJson equals
 * ServiceSim(spec).run(...) (crossCheck verifies it), and it exposes
 * the queue, so events and runUntil time can be measured.
 */
void
runArm(Probe &probe, const Arm &arm, ArmRun &out)
{
    sim::EventQueue eq;
    std::optional<microsim::ServiceSim> sim;
    {
        Probe::Scope s(probe, Site::ServiceCtor);
        sim.emplace(arm.spec, eq, nullptr, /*serverMode=*/false);
    }
    {
        Probe::Scope s(probe, Site::BeginWindow);
        sim->beginWindow(arm.measureSeconds, arm.warmupSeconds);
    }
    runWindow(probe, eq, sim->windowEndTick());
    {
        Probe::Scope s(probe, Site::Collect);
        out.metrics = sim->collectMetrics();
    }
    {
        Probe::Scope s(probe, Site::SummaryJson);
        out.json = out.metrics.summaryJson();
    }
    out.events = eq.processed();
}

void
validateArms(Probe &probe, const std::vector<Arm> &arms)
{
    Probe::Scope s(probe, Site::SpecValidate);
    for (const Arm &arm : arms)
        arm.spec.validate();
}

/** Rounds over a fixed list of arms, with the service/accel/tier layers. */
class ArmsWorkload : public Workload
{
  public:
    std::uint64_t
    round(Probe &probe) override
    {
        runs_.resize(arms_.size());
        Fnv1a digest;
        std::uint64_t units = 0;
        for (size_t i = 0; i < arms_.size(); ++i) {
            runArm(probe, arms_[i], runs_[i]);
            digest.add(runs_[i].json);
            units += runs_[i].metrics.requestsCompleted;
        }
        digest_ = digest.value();
        units_ = units;
        return units;
    }

    std::uint64_t digest() const override { return digest_; }

    const std::vector<Arm> &arms() const { return arms_; }

    void
    layers(LayerValues &out) const override
    {
        double events = 0, offloads = 0, busy = 0, capacity = 0;
        double overhead = 0, timeouts = 0, retries = 0, opens = 0;
        double accelBusy = 0, accelCapacity = 0, hedges = 0;
        double failovers = 0, wasted = 0, useful = 0;
        OnlineStats queueWait;
        for (size_t i = 0; i < arms_.size(); ++i) {
            const ServiceMetrics &m = runs_[i].metrics;
            const microsim::ServiceConfig &svc = arms_[i].spec.service();
            const double window =
                svc.clockGHz * 1e9 * m.measuredSeconds;
            events += static_cast<double>(runs_[i].events);
            offloads += static_cast<double>(m.offloadsIssued);
            busy += m.coreBusyCycles;
            capacity += svc.cores * window;
            overhead += m.dispatchOverheadCycles + m.switchOverheadCycles;
            timeouts += static_cast<double>(m.offloadTimeouts);
            retries += static_cast<double>(m.offloadRetries);
            opens += static_cast<double>(m.breakerOpens);
            if (svc.accelerated) {
                accelBusy += m.accelerator.busyCycles;
                accelCapacity += window *
                    arms_[i].spec.accelerator().channels *
                    arms_[i].spec.tier().replicas;
            }
            queueWait.merge(m.accelerator.queueWaitCycles);
            hedges += static_cast<double>(m.tier.hedgesIssued);
            failovers += static_cast<double>(m.tier.failovers);
            wasted += m.tier.wastedServiceCycles;
            useful += m.tier.usefulServiceCycles;
        }
        const double units = static_cast<double>(units_);
        out["sim.events_per_unit"] = ratio(events, units);
        out["service.core_busy_frac"] = ratio(busy, capacity);
        out["service.overhead_frac"] = ratio(overhead, busy);
        out["service.timeouts_per_offload"] = ratio(timeouts, offloads);
        out["service.retries_per_offload"] = ratio(retries, offloads);
        out["service.breaker_opens"] = opens;
        out["accel.offloads_per_unit"] = ratio(offloads, units);
        out["accel.busy_frac"] = ratio(accelBusy, accelCapacity);
        out["accel.queue_wait_cycles_mean"] = queueWait.mean();
        out["tier.hedges_per_offload"] = ratio(hedges, offloads);
        out["tier.failovers_per_offload"] = ratio(failovers, offloads);
        out["tier.duplicate_work_frac"] = ratio(wasted, useful);
    }

  protected:
    std::vector<Arm> arms_;
    std::vector<ArmRun> runs_;
    std::uint64_t digest_ = 0;
    std::uint64_t units_ = 0;
};

// ------------------------------------------------------------------
// casestudy_ab: the paper's Table 6 A/B validation path
// ------------------------------------------------------------------

class CaseStudyAb : public ArmsWorkload
{
  public:
    explicit CaseStudyAb(std::uint64_t seed) : seed_(seed) {}

    void
    setup(Probe &probe) override
    {
        {
            Probe::Scope s(probe, Site::SpecBuild);
            cases_ = workload::allCaseStudies();
            arms_.clear();
            estimates_.clear();
            for (const workload::CaseStudy &cs : cases_) {
                const microsim::AbExperiment &e = cs.experiment;
                // Offset from the published seed, so the golden seed
                // replays Table 6 exactly and others perturb it.
                const std::uint64_t armSeed = e.seed + (seed_ - kGoldenSeed);
                for (bool accelerated : {false, true}) {
                    microsim::ServiceConfig cfg = e.service;
                    cfg.accelerated = accelerated;
                    arms_.push_back(
                        {ServiceSpec(cs.name + (accelerated ? "/treatment"
                                                            : "/baseline"))
                             .service(cfg)
                             .accelerator(e.accelerator)
                             .tier(e.tier)
                             .workload(e.workload)
                             .seed(armSeed),
                         e.measureSeconds, e.warmupSeconds});
                }
                estimates_.push_back(
                    model::Accelerometer(cs.publishedParams)
                        .speedup(cs.design) - 1.0);
            }
        }
        validateArms(probe, arms_);
    }

    void
    check(std::vector<std::string> &failures) const override
    {
        // casestudy_ab bypasses the replicated tier: a single device.
        for (const ArmRun &r : runs_) {
            if (r.metrics.tier.hedgesIssued + r.metrics.tier.failovers != 0)
                failures.push_back("casestudy_ab: tier mechanisms fired "
                                   "on a single-device arm");
            if (r.metrics.requestsCompleted == 0)
                failures.push_back("casestudy_ab: an arm completed no "
                                   "requests");
        }
    }

    void
    crossCheck(std::vector<std::string> &failures) override
    {
        for (size_t i = 0; i < arms_.size(); ++i) {
            microsim::ServiceSim sim(arms_[i].spec);
            const std::string json =
                sim.run(arms_[i].measureSeconds, arms_[i].warmupSeconds)
                    .summaryJson();
            if (i >= runs_.size() || json != runs_[i].json)
                failures.push_back("casestudy_ab: owned-queue arm " +
                                   arms_[i].spec.name() +
                                   " differs from ServiceSim::run");
        }
    }

    void
    layers(LayerValues &out) const override
    {
        ArmsWorkload::layers(out);
        double simErr = 0, modelErr = 0;
        for (size_t c = 0; c < cases_.size(); ++c) {
            const double real =
                runs_[2 * c + 1].metrics.qps() / runs_[2 * c].metrics.qps() -
                1.0;
            simErr = std::max(
                simErr, std::abs(real - cases_[c].paperRealSpeedup) * 100);
            modelErr =
                std::max(modelErr, std::abs(estimates_[c] - real) * 100);
        }
        out["sim_err_pp"] = simErr;
        out["model_err_pp"] = modelErr;
    }

  private:
    std::uint64_t seed_;
    std::vector<workload::CaseStudy> cases_;
    std::vector<double> estimates_; //!< model speed-up from Table 6 params
};

// ------------------------------------------------------------------
// tier_brownout: hedged, health-tracked replica tier with one sick
// replica, under the service's deadline/retry/breaker layer
// ------------------------------------------------------------------

class TierBrownout : public ArmsWorkload
{
  public:
    explicit TierBrownout(std::uint64_t seed) : seed_(seed) {}

    void
    setup(Probe &probe) override
    {
        {
            Probe::Scope s(probe, Site::SpecBuild);
            microsim::ServiceConfig cfg;
            cfg.cores = 2;
            cfg.threads = 2;
            cfg.design = model::ThreadingDesign::AsyncSameThread;
            cfg.strategy = model::Strategy::Remote;
            cfg.clockGHz = 2.0;
            cfg.offloadSetupCycles = 200;
            cfg.responsePickupCycles = 100;
            cfg.driverWaitsForAck = false;
            cfg.retry.timeoutCycles = 20e3;
            cfg.retry.maxAttempts = 3;
            cfg.retry.backoffBaseCycles = 1e3;
            cfg.retry.backoffCapCycles = 8e3;
            cfg.breaker.enabled = true;

            microsim::AcceleratorConfig dev;
            dev.speedupFactor = 4;
            dev.fixedLatencyCycles = 300;
            dev.latencyCyclesPerByte = 0.02;
            dev.channels = 2;

            // Replica 0 browns out: a quarter of its answers come 30k
            // cycles late, ten times the health watchdog.
            auto sick = std::make_shared<faults::FaultPlan>();
            sick->seed = seed_ ^ 0x7e1eULL;
            sick->lateProbability = 0.25;
            sick->lateDelayCycles = 30e3;

            microsim::TierConfig tier;
            tier.replicas = 4;
            tier.policy = microsim::DispatchPolicy::PowerOfTwoChoices;
            tier.hedge.enabled = true;
            tier.hedge.delayCycles = 2500;
            tier.healthTimeoutCycles = 3000;
            tier.seed = seed_;
            tier.replicaFaultPlans = {std::move(sick)};

            // Mostly small kernels plus a 0.5% tail of huge ones whose
            // service time outlasts both the watchdog and the offload
            // deadline, so failovers and offload timeouts both occur.
            microsim::WorkloadSpec work;
            work.nonKernelCyclesMean = 7500;
            work.nonKernelCv = 0.3;
            work.kernelsPerRequest = 1;
            work.granularity = std::make_shared<const BucketDist>(
                std::vector<DistBucket>{{512, 4096, 0.995},
                                        {65536, 131072, 0.005}});
            work.cyclesPerByte = 1.0;

            arms_ = {{ServiceSpec("tier_brownout")
                          .service(cfg)
                          .accelerator(dev)
                          .tier(tier)
                          .workload(work)
                          .seed(seed_),
                      /*measureSeconds=*/1.0, /*warmupSeconds=*/0.05}};
        }
        validateArms(probe, arms_);
    }

    void
    check(std::vector<std::string> &failures) const override
    {
        const ServiceMetrics &m = runs_.at(0).metrics;
        if (m.tier.hedgesIssued == 0)
            failures.push_back("tier_brownout: no hedges fired");
        if (m.tier.failovers == 0)
            failures.push_back("tier_brownout: no failovers fired");
        if (m.offloadTimeouts == 0)
            failures.push_back("tier_brownout: no offload timeouts fired");
    }

  private:
    std::uint64_t seed_;
};

// ------------------------------------------------------------------
// ServiceGraph workloads
// ------------------------------------------------------------------

/** Host-only Sync tier: @p threads cores, @p meanCycles per request. */
ServiceSpec
hostTier(const std::string &name, double clockGHz, std::uint32_t threads,
         double arrivalsPerSec, double meanCycles, std::uint64_t seed)
{
    microsim::ServiceConfig cfg;
    cfg.cores = threads;
    cfg.threads = threads;
    cfg.design = model::ThreadingDesign::Sync;
    cfg.clockGHz = clockGHz;
    cfg.accelerated = false;
    cfg.openArrivalsPerSec = arrivalsPerSec;
    microsim::WorkloadSpec work;
    work.nonKernelCyclesMean = meanCycles;
    work.nonKernelCv = 0.2;
    work.kernelsPerRequest = 0;
    return ServiceSpec(name)
        .service(cfg)
        .accelerator(microsim::AcceleratorConfig{})
        .workload(work)
        .seed(seed);
}

/** A graph description; every round assembles a fresh ServiceGraph. */
class GraphWorkload : public Workload
{
  public:
    std::uint64_t
    round(Probe &probe) override
    {
        // A ServiceGraph is single-use, so assembly is part of a round.
        std::optional<microsim::ServiceGraph> graph;
        {
            Probe::Scope s(probe, Site::GraphAssemble);
            graph.emplace(seed_);
            for (const ServiceSpec &spec : services_)
                graph->addService(spec);
            for (const microsim::EdgeConfig &edge : edges_)
                graph->addEdge(edge);
            graph->rootDeadline(rootDeadlineCycles_);
        }
        {
            Probe::Scope s(probe, Site::GraphValidate);
            graph->validate();
        }
        {
            Probe::Scope s(probe, Site::GraphRun);
            metrics_ = graph->run(measureSeconds_, warmupSeconds_);
        }
        {
            Probe::Scope s(probe, Site::SummaryJson);
            json_ = metrics_.summaryJson();
        }
        Fnv1a digest;
        digest.add(json_);
        digest_ = digest.value();
        return metrics_.rootsCompleted;
    }

    std::uint64_t digest() const override { return digest_; }

    void
    layers(LayerValues &out) const override
    {
        const Totals t = totals();
        const double roots = static_cast<double>(metrics_.rootsCompleted);
        out["graph.hops_per_root"] = ratio(t.hops, roots);
        out["graph.attempts_per_call"] =
            ratio(t.attempts, t.resilientCalls);
        out["graph.ignored_frac"] = ratio(t.ignored, t.attempts);
        out["graph.short_circuit_frac"] = ratio(t.shortCircuited, t.calls);
        out["graph.retries_suppressed"] = t.retriesSuppressed;
        out["graph.degraded_root_frac"] =
            ratio(static_cast<double>(metrics_.rootsDegraded), roots);
        out["graph.breaker_opens"] = t.breakerOpens;
        out["graph.root_p50_cycles"] = metrics_.rootLatencyCycles.p50();
        out["graph.root_p99_cycles"] = metrics_.rootLatencyCycles.p99();
    }

  protected:
    /** Edge counters summed over the graph. */
    struct Totals
    {
        double calls = 0, attempts = 0, hops = 0, ignored = 0;
        double resilientCalls = 0; //!< calls on edges that issued attempts
        double shortCircuited = 0, retriesSuppressed = 0, breakerOpens = 0;
        /** Every resilience-layer counter; zero when the layer is off. */
        double resilience = 0;
    };

    Totals
    totals() const
    {
        Totals t;
        for (const microsim::EdgeStats &e : metrics_.edges) {
            const auto d = [](std::uint64_t v) {
                return static_cast<double>(v);
            };
            t.calls += d(e.callsIssued);
            t.attempts += d(e.attemptsIssued);
            if (e.attemptsIssued > 0)
                t.resilientCalls += d(e.callsIssued);
            // A resilient edge counts every attempt as a hop; a plain
            // edge leaves attemptsIssued at zero.
            t.hops += d(std::max(e.callsIssued, e.attemptsIssued));
            t.ignored += d(e.callsCompletedIgnored);
            t.shortCircuited += d(e.callsShortCircuited);
            t.retriesSuppressed += d(e.retriesSuppressed);
            t.breakerOpens += d(e.breakerOpens);
            t.resilience += d(e.attemptsIssued + e.callsDropped +
                              e.callsBlackholed + e.attemptsTimedOut +
                              e.attemptsRetried + e.retriesSuppressed +
                              e.callsDeadlineExceeded +
                              e.callsCancelledBudget +
                              e.callsShortCircuited + e.callsFailed +
                              e.callsCompletedIgnored + e.breakerOpens +
                              e.breakerProbes + e.breakerCloses);
        }
        return t;
    }

    std::uint64_t seed_ = 0;
    std::vector<ServiceSpec> services_;
    std::vector<microsim::EdgeConfig> edges_;
    double rootDeadlineCycles_ = 0.0;
    double measureSeconds_ = 0.0;
    double warmupSeconds_ = 0.0;

    microsim::GraphMetrics metrics_;
    std::string json_;
    std::uint64_t digest_ = 0;
};

void
validateSpecs(Probe &probe, const std::vector<ServiceSpec> &specs)
{
    Probe::Scope s(probe, Site::SpecValidate);
    for (const ServiceSpec &spec : specs)
        spec.validate();
}

/**
 * graph_fanout: an open-loop front end feeding a depth-3 chain of
 * 2-way sync fan-out (DeathStarBench-style), all on the plain
 * (non-resilient) dispatch path.
 */
class GraphFanout : public GraphWorkload
{
  public:
    explicit GraphFanout(std::uint64_t seed) { seed_ = seed; }

    void
    setup(Probe &probe) override
    {
        {
            Probe::Scope s(probe, Site::SpecBuild);
            constexpr double kClockGHz = 2.0;
            // The leaf tier sees 8 x 10k = 80k calls/s: 20% busy.
            services_ = {
                hostTier("web", kClockGHz, 4, /*arrivalsPerSec=*/10e3,
                         /*meanCycles=*/10e3, seed_),
                hostTier("mid1", kClockGHz, 4, 0, 20e3, seed_ + 1),
                hostTier("mid2", kClockGHz, 4, 0, 20e3, seed_ + 2),
                hostTier("leaf", kClockGHz, 4, 0, 20e3, seed_ + 3),
            };
            edges_.clear();
            for (size_t i = 0; i + 1 < services_.size(); ++i) {
                microsim::EdgeConfig e;
                e.caller = services_[i].name();
                e.callee = services_[i + 1].name();
                e.fanout = 2;
                e.latencyCycles = 1e3;
                e.latencyJitterCycles = 2e3;
                edges_.push_back(e);
            }
            measureSeconds_ = 10.0;
            warmupSeconds_ = 0.1;
        }
        validateSpecs(probe, services_);
    }

    void
    check(std::vector<std::string> &failures) const override
    {
        if (totals().resilience != 0 || metrics_.rootsDegraded != 0 ||
            metrics_.rootsFailed != 0)
            failures.push_back("graph_fanout: resilience counters moved "
                               "on a plain-dispatch graph");
        if (metrics_.rootsCompleted == 0)
            failures.push_back("graph_fanout: no roots completed");
    }
};

/**
 * graph_brownout: web -> ads -> cache with a periodic latency spike
 * and 1% drops on ads->cache, contained by timeouts, retries, a
 * reserve-for-retry deadline budget, a retry token bucket and an edge
 * breaker.
 */
class GraphBrownout : public GraphWorkload
{
  public:
    explicit GraphBrownout(std::uint64_t seed) { seed_ = seed; }

    void
    setup(Probe &probe) override
    {
        {
            Probe::Scope s(probe, Site::SpecBuild);
            constexpr double kClockGHz = 1.0;
            measureSeconds_ = 30.0;
            warmupSeconds_ = 0.05;
            services_ = {
                hostTier("web", kClockGHz, 2, /*arrivalsPerSec=*/10e3,
                         /*meanCycles=*/10e3, seed_),
                hostTier("ads", kClockGHz, 2, 0, 20e3, seed_ + 1),
                // One thread at 50k cycles: ~50% busy when healthy.
                hostTier("cache", kClockGHz, 1, 0, 50e3, seed_ + 2),
            };

            microsim::EdgeConfig front;
            front.caller = "web";
            front.callee = "ads";
            front.latencyCycles = 10e3;

            // [0.3 s, 0.5 s) of every simulated second: calls land
            // 700k cycles late, past the 600k-cycle timeout.
            auto plan = std::make_shared<faults::EdgeFaultPlan>();
            plan->seed = seed_ ^ 0xedfeULL;
            plan->dropProbability = 0.01;
            plan->spikeProbability = 1.0;
            plan->spikeLatencyCycles = 700e3;
            const sim::Tick second = 1'000'000'000;
            const auto seconds = static_cast<sim::Tick>(
                std::ceil(measureSeconds_ + warmupSeconds_));
            for (sim::Tick k = 0; k < seconds; ++k)
                plan->spikeWindows.push_back(
                    {k * second + 300'000'000, k * second + 500'000'000});

            microsim::EdgeConfig sick;
            sick.caller = "ads";
            sick.callee = "cache";
            sick.latencyCycles = 10e3;
            sick.rpcTimeoutCycles = 600e3;
            sick.maxAttempts = 3;
            sick.budgetSplit = microsim::BudgetSplit::ReserveForRetry;
            sick.retryBudget.cap = 20;
            sick.retryBudget.ratio = 0.05;
            sick.breaker.enabled = true;
            sick.breaker.probeAfterCycles = 2e6;
            sick.faultPlan = std::move(plan);
            edges_ = {front, sick};
            rootDeadlineCycles_ = 1e6;
        }
        validateSpecs(probe, services_);
    }

    void
    check(std::vector<std::string> &failures) const override
    {
        const Totals t = totals();
        if (t.shortCircuited == 0)
            failures.push_back("graph_brownout: no calls short-circuited");
        if (metrics_.rootsDegraded == 0)
            failures.push_back("graph_brownout: no degraded roots");
        if (t.breakerOpens == 0)
            failures.push_back("graph_brownout: the edge breaker never "
                               "opened");
    }
};

// ------------------------------------------------------------------
// profile_fleet: sampler -> taggers -> aggregator, no simulator
// ------------------------------------------------------------------

class ProfileFleet : public Workload
{
  public:
    explicit ProfileFleet(std::uint64_t seed) : seed_(seed) {}

    void
    setup(Probe &probe) override
    {
        Probe::Scope s(probe, Site::SamplerCtor);
        profiles_.clear();
        samplers_.clear();
        const auto &ids = workload::characterizedServices();
        for (size_t i = 0; i < ids.size(); ++i) {
            profiles_.push_back(&workload::profile(ids[i]));
            samplers_.emplace_back(*profiles_.back(),
                                   workload::CpuGen::GenC, seed_ + i);
        }
    }

    std::uint64_t
    round(Probe &probe) override
    {
        constexpr size_t kTracesPerService = 20000;
        constexpr size_t kBatch = 4096;
        Fnv1a digest;
        maxShareErrPp_ = 0.0;
        traces_ = 0;
        for (size_t i = 0; i < samplers_.size(); ++i) {
            // A copy of the freshly fitted sampler replays its stream
            // from the start without refitting.
            profiling::TraceSampler sampler(samplers_[i]);
            const workload::ServiceProfile &profile = *profiles_[i];
            profiling::Aggregator agg;
            for (size_t done = 0; done < kTracesPerService;) {
                const size_t n = std::min(kBatch, kTracesPerService - done);
                std::vector<profiling::CallTrace> batch;
                {
                    Probe::Scope s(probe, Site::SampleMany);
                    batch = sampler.sampleMany(n);
                }
                {
                    Probe::Scope s(probe, Site::AddAll);
                    agg.addAll(batch);
                }
                done += n;
            }
            Probe::Scope s(probe, Site::Breakdown);
            const auto leaves = agg.leafBreakdown();
            const auto functionalities = agg.functionalityBreakdown();
            hashShares(digest, leaves);
            hashShares(digest, functionalities);
            hashShares(digest, agg.memoryBreakdown());
            hashShares(digest, agg.kernelBreakdown());
            hashShares(digest, agg.syncBreakdown());
            hashShares(digest, agg.clibBreakdown());
            hashShares(digest, agg.copyOriginBreakdown());
            for (const auto &[leaf, totals] : agg.leafTotals())
                hashNumber(digest, totals.ipc());
            noteErrors(leaves, profile.leafShare);
            noteErrors(functionalities, profile.functionalityShare);
            traces_ += agg.traceCount();
        }
        digest_ = digest.value();
        return traces_;
    }

    std::uint64_t digest() const override { return digest_; }

    void
    check(std::vector<std::string> &failures) const override
    {
        if (traces_ == 0)
            failures.push_back("profile_fleet: no traces aggregated");
    }

    void
    layers(LayerValues &out) const override
    {
        out["profiling.max_share_err_pp"] = maxShareErrPp_;
    }

  private:
    static void
    hashNumber(Fnv1a &digest, double v)
    {
        char buf[32];
        const int n = std::snprintf(buf, sizeof buf, "%.17g;", v);
        digest.add(std::string_view(buf, static_cast<size_t>(n)));
    }

    template <typename Map>
    static void
    hashShares(Fnv1a &digest, const Map &shares)
    {
        for (const auto &[category, share] : shares) {
            hashNumber(digest, static_cast<int>(category));
            hashNumber(digest, share);
        }
    }

    /** Track the worst recovered-vs-encoded share gap, in pp. */
    template <typename Map>
    void
    noteErrors(const Map &recovered, const Map &encoded)
    {
        for (const auto &[category, share] : encoded) {
            const auto it = recovered.find(category);
            const double got = it == recovered.end() ? 0.0 : it->second;
            maxShareErrPp_ = std::max(maxShareErrPp_, std::abs(got - share));
        }
    }

    std::uint64_t seed_;
    std::vector<const workload::ServiceProfile *> profiles_;
    /** Fitted in setup(); rounds sample from copies. */
    std::vector<profiling::TraceSampler> samplers_;
    std::uint64_t traces_ = 0;
    double maxShareErrPp_ = 0.0;
    std::uint64_t digest_ = 0;
};

} // namespace

const std::vector<WorkloadInfo> &
workloadInfos()
{
    static const std::vector<WorkloadInfo> kInfos = {
        {"casestudy_ab", "simulated request"},
        {"tier_brownout", "simulated request"},
        {"graph_fanout", "root request"},
        {"graph_brownout", "root request"},
        {"profile_fleet", "trace"},
    };
    return kInfos;
}

std::unique_ptr<Workload>
makeWorkload(const std::string &name, std::uint64_t seed)
{
    if (name == "casestudy_ab")
        return std::make_unique<CaseStudyAb>(seed);
    if (name == "tier_brownout")
        return std::make_unique<TierBrownout>(seed);
    if (name == "graph_fanout")
        return std::make_unique<GraphFanout>(seed);
    if (name == "graph_brownout")
        return std::make_unique<GraphBrownout>(seed);
    if (name == "profile_fleet")
        return std::make_unique<ProfileFleet>(seed);
    return nullptr;
}

RunnerProbeResult
probeRunner(std::uint64_t seed, unsigned workers, Probe &probe)
{
    Probe::Scope scope(probe, Site::RunnerProbe);
    CaseStudyAb cases(seed);
    cases.setup(probe);
    const std::vector<Arm> &arms = cases.arms();

    const auto batch = [&](unsigned width, double &seconds) {
        ThreadPool::setWorkers(width);
        std::vector<std::string> out(arms.size());
        const double start = steadyWallTimer().seconds();
        parallelFor(arms.size(), [&](size_t i) {
            microsim::ServiceSim sim(arms[i].spec);
            out[i] = sim.run(arms[i].measureSeconds, arms[i].warmupSeconds)
                         .summaryJson();
        });
        seconds = steadyWallTimer().seconds() - start;
        return out;
    };

    RunnerProbeResult r;
    r.workers = workers;
    const std::vector<std::string> serial = batch(1, r.serialSeconds);
    const std::vector<std::string> parallel =
        batch(workers, r.parallelSeconds);
    ThreadPool::setWorkers(1);
    r.identical = serial == parallel;
    return r;
}

} // namespace accel::perf
