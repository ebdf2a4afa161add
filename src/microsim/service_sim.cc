#include "microsim/service_sim.hh"

#include <algorithm>
#include <cmath>

#include "microsim/service_spec.hh"
#include "util/logging.hh"

namespace accel::microsim {

using model::Strategy;
using model::ThreadingDesign;

void
ServiceConfig::validate() const
{
    require(cores >= 1, "ServiceConfig.cores must be >= 1");
    require(threads >= 1, "ServiceConfig.threads must be >= 1");
    require(std::isfinite(clockGHz) && clockGHz > 0,
            "ServiceConfig.clockGHz must be finite and positive");
    requireCycles(offloadSetupCycles, "ServiceConfig.offloadSetupCycles");
    requireCycles(contextSwitchCycles,
                  "ServiceConfig.contextSwitchCycles");
    requireCycles(responsePickupCycles,
                  "ServiceConfig.responsePickupCycles");
    requireCycles(unmodeledPerOffloadCycles,
                  "ServiceConfig.unmodeledPerOffloadCycles");
    require(std::isfinite(minOffloadBytes) && minOffloadBytes >= 0,
            "ServiceConfig.minOffloadBytes must be finite and >= 0");
    require(maxOutstanding >= 1,
            "ServiceConfig.maxOutstanding must be >= 1");
    require(std::isfinite(openArrivalsPerSec) && openArrivalsPerSec >= 0,
            "ServiceConfig.openArrivalsPerSec must be finite and >= 0");
    if (!arrivalProgram.empty())
        arrivalProgram.validate();
    require(!(openArrivalsPerSec > 0 && !arrivalProgram.empty()),
            "ServiceConfig.arrivalProgram and openArrivalsPerSec are "
            "mutually exclusive (a constant program expresses the "
            "latter exactly)");
    autoscaler.validate();
    require(!autoscaler.enabled ||
                openArrivalsPerSec > 0 || !arrivalProgram.empty(),
            "ServiceConfig.autoscaler needs open-loop arrivals (the "
            "closed loop has no offered load to defend an SLO against)");
    require(!autoscaler.brownout || maxArrivalQueue > 0,
            "ServiceConfig.autoscaler brown-out gate needs "
            "maxArrivalQueue > 0 to tighten within");
    retry.validate();
    breaker.validate();
    require(!breaker.enabled || retry.active(),
            "ServiceConfig.breaker needs RetryPolicy.timeoutCycles > 0 "
            "(timeouts are the breaker's failure signal)");
    if (design == ThreadingDesign::Sync) {
        require(threads == cores,
                "ServiceConfig: Sync runs one thread per core");
    } else if (design == ThreadingDesign::SyncOS) {
        require(threads > cores,
                "ServiceConfig: Sync-OS requires over-subscription");
    } else {
        require(threads >= cores,
                "ServiceConfig: async needs threads >= cores");
    }
}

namespace {

/**
 * Aggregate validation must run before any member construction. A spec
 * that names a graph-shared tier must be given that tier.
 */
const ServiceSpec &
validated(const ServiceSpec &spec, const AcceleratorTier *sharedTier)
{
    spec.validate();
    if (sharedTier == nullptr && !spec.sharedTierName().empty()) {
        fatal("ServiceSpec '" + spec.name() + "': sharedTier ('" +
              spec.sharedTierName() +
              "') requires a ServiceGraph; a standalone ServiceSim owns "
              "its tier");
    }
    return spec;
}

} // namespace

ServiceSim::ServiceSim(const ServiceSpec &spec)
    : ServiceSim(spec, nullptr, nullptr, false)
{
}

ServiceSim::ServiceSim(const ServiceSpec &spec, sim::EventQueue &eq,
                       AcceleratorTier *sharedTier, bool serverMode)
    : ServiceSim(spec, &eq, sharedTier, serverMode)
{
}

ServiceSim::ServiceSim(const ServiceSpec &spec, sim::EventQueue *eq,
                       AcceleratorTier *sharedTier, bool serverMode)
    : cfg_(validated(spec, sharedTier).service()),
      ownedEq_(eq != nullptr ? nullptr
                             : std::make_unique<sim::EventQueue>()),
      eq_(eq != nullptr ? *eq : *ownedEq_),
      ownedAccel_(sharedTier != nullptr
                      ? nullptr
                      : std::make_unique<AcceleratorTier>(
                            eq_, spec.accelerator(), spec.tier())),
      accel_(sharedTier != nullptr ? *sharedTier : *ownedAccel_),
      source_(spec.workload(), spec.seed()),
      arrivalRng_(spec.seed() ^ 0xa771a15ULL, 0x6f70656e6c6f6fULL),
      breaker_(cfg_.breaker)
{
    threads_.resize(cfg_.threads);
    resume_.resize(cfg_.threads);
    freeCores_ = cfg_.cores;
    cyclesPerSecond_ = cfg_.clockGHz * 1e9;
    if (cfg_.openArrivalsPerSec > 0) {
        cyclesPerArrival_ = cyclesPerSecond_ / cfg_.openArrivalsPerSec;
        openLoop_ = true;
    } else if (!cfg_.arrivalProgram.empty()) {
        // Constant programs take the legacy single-draw path so they
        // replay bit-for-bit as openArrivalsPerSec; varying programs
        // generate candidates at the peak rate and thin them.
        peakArrivalsPerSec_ = cfg_.arrivalProgram.peakRate();
        cyclesPerArrival_ = cyclesPerSecond_ / peakArrivalsPerSec_;
        thinning_ = !cfg_.arrivalProgram.isConstant();
        openLoop_ = true;
    }
    if (serverMode) {
        // Graph node with in-edges: park idle threads and wait for
        // injected RPC arrivals (with no local source of its own,
        // cyclesPerArrival_ stays 0 and no arrival event is scheduled).
        openLoop_ = true;
    }
    if (cfg_.autoscaler.enabled) {
        autoscaler_ = std::make_unique<Autoscaler>(
            eq_, accel_, cfg_.autoscaler, cfg_.maxArrivalQueue);
    }
}

// --------------------------------------------------------------------
// Open-loop arrivals
// --------------------------------------------------------------------

void
ServiceSim::scheduleNextArrival()
{
    double gap = arrivalRng_.exponential(cyclesPerArrival_);
    sim::Tick ticks = std::max<sim::Tick>(
        1, static_cast<sim::Tick>(std::llround(gap)));
    eq_.scheduleIn(ticks, [this]() { onArrival(); });
}

void
ServiceSim::onArrival()
{
    if (eq_.now() < endTick_)
        scheduleNextArrival();
    if (thinning_) {
        // Lewis-Shedler thinning: this event is a peak-rate candidate;
        // it becomes a real arrival with probability rate(t)/peak. A
        // rejected candidate never happened (no counters move).
        double t = static_cast<double>(eq_.now()) / cyclesPerSecond_;
        double accept =
            cfg_.arrivalProgram.rateAt(t) / peakArrivalsPerSec_;
        if (!arrivalRng_.chance(accept))
            return;
    }
    admitArrival(/*token=*/0);
}

bool
ServiceSim::injectArrival(std::uint64_t token)
{
    require(token != 0,
            "ServiceSim::injectArrival: token 0 is reserved for "
            "locally-generated arrivals");
    return admitArrival(token);
}

bool
ServiceSim::admitArrival(std::uint64_t token)
{
    ++metrics_.requestsArrived;
    bool shed = false;
    bool overload = false;
    std::uint64_t gate = autoscaler_ ? autoscaler_->admissionLimit() : 0;
    if (cfg_.maxArrivalQueue > 0 &&
        arrivalCount_ >= cfg_.maxArrivalQueue) {
        // Load shedding: the bounded admission queue is full, so the
        // arrival is rejected instead of queued. This is what keeps a
        // saturated open-loop run in constant memory.
        shed = true;
    } else if (gate > 0 && arrivalCount_ >= gate) {
        // Brown-out: the adaptive gate has tightened below the static
        // bound, shedding early so admitted requests keep a bounded
        // queue — attributed separately as overload degradation.
        shed = true;
        overload = true;
    }
    if (shed) {
        ++metrics_.requestsShed;
        if (overload)
            ++metrics_.requestsShedOverload;
        if (autoscaler_)
            autoscaler_->noteShed();
        return false;
    }
    if (arrivalCount_ == arrivals_.size())
        growArrivals();
    size_t tail = arrivalHead_ + arrivalCount_;
    if (tail >= arrivals_.size())
        tail -= arrivals_.size();
    PendingArrival &slot = arrivals_[tail];
    source_.fill(slot.req);
    slot.arrived = eq_.now();
    slot.token = token;
    ++arrivalCount_;
    metrics_.maxArrivalQueueDepth = std::max<std::uint64_t>(
        metrics_.maxArrivalQueueDepth, arrivalCount_);
    if (autoscaler_)
        autoscaler_->noteQueueDepth(arrivalCount_);
    if (!idleThreads_.empty()) {
        size_t tid = idleThreads_.back();
        idleThreads_.pop_back();
        ensure(threads_[tid].state == ThreadState::Idle,
               "onArrival: woken thread not idle");
        makeReady(tid, [this, tid]() { startNextRequest(tid); });
    }
    return true;
}

void
ServiceSim::growArrivals()
{
    const size_t size = arrivals_.size();
    std::vector<PendingArrival> grown(std::max<size_t>(8, 2 * size));
    for (size_t i = 0; i < size; ++i)
        grown[i] = std::move(arrivals_[(arrivalHead_ + i) % size]);
    arrivals_ = std::move(grown);
    arrivalHead_ = 0;
}

// --------------------------------------------------------------------
// Scheduling
// --------------------------------------------------------------------

void
ServiceSim::makeReady(size_t tid, sim::InlineCallback &&resume)
{
    ThreadCtx &ctx = threads_[tid];
    ctx.state = ThreadState::Ready;
    resume_[tid] = std::move(resume);
    if (ctx.core >= 0) {
        // The response beat the switch-away drain; the pending release
        // event enqueues the thread once the core is actually free.
        return;
    }
    readyQueue_.push_back(tid);
    dispatch();
}

void
ServiceSim::dispatch()
{
    while (freeCores_ > 0 && !readyQueue_.empty()) {
        size_t tid = readyQueue_.front();
        readyQueue_.pop_front();
        ThreadCtx &ctx = threads_[tid];
        if (ctx.state != ThreadState::Ready)
            continue; // stale entry
        --freeCores_;
        ctx.core = 1;
        ctx.state = ThreadState::Running;

        sim::InlineCallback resume = std::move(resume_[tid]);
        ensure(static_cast<bool>(resume), "dispatch: missing continuation");
        double switch_in =
            ctx.needsSwitchIn ? cfg_.contextSwitchCycles : 0.0;
        ctx.needsSwitchIn = false;
        if (switch_in > 0) {
            metrics_.switchOverheadCycles += switch_in;
            runOnCore(tid, switch_in, std::move(resume),
                      kOverheadWorkTag);
        } else {
            resume();
        }
    }
}

void
ServiceSim::releaseCore(size_t tid)
{
    ThreadCtx &ctx = threads_[tid];
    ensure(ctx.core >= 0, "releaseCore: thread not on a core");
    ctx.core = -1;
    ++freeCores_;
}

void
ServiceSim::yieldCore(size_t tid)
{
    ThreadCtx &ctx = threads_[tid];
    ctx.state = ThreadState::Blocked;
    double switch_away = cfg_.contextSwitchCycles;
    if (switch_away > 0) {
        metrics_.switchOverheadCycles += switch_away;
        eq_.scheduleIn(
            static_cast<sim::Tick>(std::llround(switch_away)),
            [this, tid]() {
                releaseCore(tid);
                if (threads_[tid].state == ThreadState::Ready)
                    readyQueue_.push_back(tid);
                dispatch();
            });
    } else {
        releaseCore(tid);
        dispatch();
    }
}

double
ServiceSim::chargeStolen(double cycles)
{
    // Response-pickup work "steals" core time from whichever thread runs
    // next (see the class comment); fold the pool into this charge.
    double stolen = pendingStolenCycles_;
    pendingStolenCycles_ = 0.0;
    if (stolen > 0) {
        metrics_.switchOverheadCycles += stolen;
        metrics_.coreCyclesByTag[kOverheadWorkTag] += stolen;
    }
    return cycles + stolen;
}

void
ServiceSim::runOnCore(size_t tid, double cycles,
                      sim::InlineCallback &&done, WorkTag tag)
{
    ThreadCtx &ctx = threads_[tid];
    ensure(ctx.state == ThreadState::Running && ctx.core >= 0,
           "runOnCore: thread must be running on a core");
    double charged = chargeStolen(cycles);
    metrics_.coreBusyCycles += charged;
    metrics_.coreCyclesByTag[tag] += cycles;
    // At least one tick so zero-cost request chains always advance time.
    sim::Tick ticks =
        std::max<sim::Tick>(1, static_cast<sim::Tick>(
                                   std::llround(charged)));
    eq_.scheduleIn(ticks, std::move(done));
}

// --------------------------------------------------------------------
// Request flow
// --------------------------------------------------------------------

void
ServiceSim::startNextRequest(size_t tid)
{
    ThreadCtx &ctx = threads_[tid];
    if (eq_.now() >= endTick_) {
        ctx.state = ThreadState::Parked;
        if (ctx.core >= 0) {
            releaseCore(tid);
            dispatch();
        }
        return;
    }
    sim::Tick started = eq_.now();
    std::uint64_t token = 0;
    if (openLoop_) {
        if (arrivalCount_ == 0) {
            // Nothing to do: park until an arrival wakes us.
            ctx.state = ThreadState::Idle;
            if (ctx.core >= 0) {
                releaseCore(tid);
                dispatch();
            }
            idleThreads_.push_back(tid);
            return;
        }
        PendingArrival &next = arrivals_[arrivalHead_];
        // The slot takes the thread's old buffers for its next fill.
        std::swap(ctx.req, next.req);
        // Latency is measured from arrival, so queueing time counts.
        started = next.arrived;
        token = next.token;
        if (++arrivalHead_ == arrivals_.size())
            arrivalHead_ = 0;
        --arrivalCount_;
    } else {
        source_.fill(ctx.req);
    }
    ctx.kernelIdx = 0;
    ctx.segmentIdx = 0;
    ctx.inflight =
        inflight_.acquire(InFlight{.start = started, .token = token});
    maybeNext(tid);
}

void
ServiceSim::maybeNext(size_t tid)
{
    ThreadCtx &ctx = threads_[tid];
    // Kernels scheduled after already-executed segments come first,
    // then the next segment, then request completion.
    if (ctx.kernelIdx < ctx.req.kernels.size() &&
        ctx.req.kernels[ctx.kernelIdx].afterSegment < ctx.segmentIdx) {
        handleKernel(tid);
    } else if (ctx.segmentIdx < ctx.req.segments.size()) {
        execSegment(tid);
    } else if (ctx.kernelIdx < ctx.req.kernels.size()) {
        // Kernels pointing past the last segment still run.
        handleKernel(tid);
    } else {
        finishHostWork(tid);
    }
}

void
ServiceSim::execSegment(size_t tid)
{
    ThreadCtx &ctx = threads_[tid];
    const WorkSegment &seg = ctx.req.segments[ctx.segmentIdx];
    ++ctx.segmentIdx;
    runOnCore(tid, seg.cycles, [this, tid]() { maybeNext(tid); },
              seg.tag);
}

void
ServiceSim::handleKernel(size_t tid)
{
    ThreadCtx &ctx = threads_[tid];
    const KernelInvocation &k = ctx.req.kernels[ctx.kernelIdx++];

    bool offload = cfg_.accelerated && k.bytes >= cfg_.minOffloadBytes;
    if (!offload) {
        ++metrics_.kernelsOnHost;
        runOnCore(tid, k.hostCycles, [this, tid]() { maybeNext(tid); },
                  k.tag);
        return;
    }

    CircuitBreaker::Gate gate = breaker_.gate(eq_.now());
    if (!gate.pass) {
        // Breaker open: revert the kernel to host execution.
        ++metrics_.breakerFallbacks;
        metrics_.fallbackHostCycles += k.hostCycles;
        inflight_.at(ctx.inflight).degraded = true;
        runOnCore(tid, k.hostCycles,
                  [this, tid]() { maybeNext(tid); }, k.tag);
        return;
    }
    bool probe = gate.probe;
    if (probe)
        ++metrics_.breakerProbes;

    ++metrics_.offloadsIssued;
    switch (cfg_.design) {
      case ThreadingDesign::Sync:
        offloadSync(tid, k, probe);
        break;
      case ThreadingDesign::SyncOS:
        offloadSyncOS(tid, k, probe);
        break;
      case ThreadingDesign::AsyncSameThread:
      case ThreadingDesign::AsyncDistinctThread:
      case ThreadingDesign::AsyncNoResponse:
        offloadAsync(tid, k, probe);
        break;
    }
}

void
ServiceSim::finishHostWork(size_t tid)
{
    ThreadCtx &ctx = threads_[tid];
    inflight_.at(ctx.inflight).hostDone = true;
    maybeCompleteRequest(ctx.inflight,
                         cfg_.design == ThreadingDesign::AsyncNoResponse &&
                             cfg_.strategy == Strategy::Remote);
    startNextRequest(tid);
}

void
ServiceSim::maybeCompleteRequest(InFlightHandle inflight,
                                 bool remoteExcluded)
{
    InFlight &live = inflight_.at(inflight);
    // Service-local latency: remote no-response offloads do not hold the
    // request open (their time lands on the application's end-to-end
    // path instead).
    bool service_done = live.hostDone &&
        (remoteExcluded || live.pendingKernels == 0);
    bool newly_counted = service_done && !live.counted;
    if (newly_counted)
        live.counted = true;
    // A copy: the completion hook below runs graph code, and no
    // reference into the pool may be held across it.
    const InFlight f = live;
    if (newly_counted) {
        double latency = static_cast<double>(eq_.now() - f.start);
        // The control loop keeps its in-flight samples across the
        // warmup reset: scaling decisions are live from tick 0.
        if (autoscaler_)
            autoscaler_->observeLatency(latency);
        ++metrics_.requestsCompleted;
        metrics_.latencyCycles.add(latency);
        metrics_.latencySample.add(latency);
        if (f.degraded) {
            ++metrics_.requestsDegraded;
            metrics_.degradedLatencyCycles.add(latency);
            metrics_.degradedLatencySample.add(latency);
        }
        if (f.failed)
            ++metrics_.requestsFailed;
        // The graph hook sees every completion; the graph resets its
        // own counters at the warmup tick, after this node's.
        if (completionHook_)
            completionHook_(f.token, f.start, f.failed);
    }
    if (f.hostDone && f.pendingKernels == 0 && f.counted) {
        metrics_.endToEndLatencyCycles.add(
            static_cast<double>(eq_.now() - f.start));
        // Counted with nothing pending: no callback can name the
        // request any more, so its slot goes back to the pool.
        inflight_.release(inflight);
    }
}

// --------------------------------------------------------------------
// Offload paths
// --------------------------------------------------------------------

void
ServiceSim::offloadSync(size_t tid, const KernelInvocation &k, bool probe)
{
    double issue = cfg_.offloadSetupCycles + cfg_.unmodeledPerOffloadCycles;
    metrics_.dispatchOverheadCycles += issue;
    runOnCore(tid, issue, [this, tid, k, probe]() {
        // The core stays held (idle) across transfer + queue + service
        // — and, in degraded mode, across timeouts and backoff too: a
        // synchronous driver's retry loop blocks right where it is.
        sim::Tick held_from = eq_.now();
        dispatchResilient(
            tid, k, /*transferPaidByHost=*/false, probe,
            threads_[tid].inflight,
            [this, tid, k, held_from](OffloadOutcome out) {
                metrics_.coreHeldIdleCycles +=
                    static_cast<double>(eq_.now() - held_from);
                if (out == OffloadOutcome::HostFallback) {
                    // The core is still held; the kernel re-executes
                    // right here as ordinary (busy) host work.
                    runOnCore(tid, k.hostCycles,
                              [this, tid]() { maybeNext(tid); }, k.tag);
                } else {
                    maybeNext(tid);
                }
            });
    }, kOverheadWorkTag);
}

void
ServiceSim::offloadSyncOS(size_t tid, const KernelInvocation &k,
                          bool probe)
{
    double hold = cfg_.offloadSetupCycles + cfg_.unmodeledPerOffloadCycles;
    if (cfg_.driverWaitsForAck)
        hold += accel_.transferCycles(k.bytes);
    metrics_.dispatchOverheadCycles += hold;
    runOnCore(tid, hold, [this, tid, k, probe]() {
        dispatchResilient(
            tid, k, /*transferPaidByHost=*/cfg_.driverWaitsForAck, probe,
            threads_[tid].inflight,
            [this, tid, k](OffloadOutcome out) {
                ThreadCtx &ctx = threads_[tid];
                ctx.needsSwitchIn = true;
                if (out == OffloadOutcome::HostFallback) {
                    // Wake the blocked thread to re-run the kernel on
                    // its core as ordinary host work.
                    makeReady(tid, [this, tid, k]() {
                        runOnCore(tid, k.hostCycles,
                                  [this, tid]() { maybeNext(tid); },
                                  k.tag);
                    });
                } else {
                    makeReady(tid, [this, tid]() { maybeNext(tid); });
                }
            });
        yieldCore(tid);
    }, kOverheadWorkTag);
}

void
ServiceSim::offloadAsync(size_t tid, const KernelInvocation &k,
                         bool probe)
{
    ThreadCtx &ctx = threads_[tid];
    double hold = cfg_.offloadSetupCycles + cfg_.unmodeledPerOffloadCycles;
    if (cfg_.driverWaitsForAck)
        hold += accel_.transferCycles(k.bytes);
    metrics_.dispatchOverheadCycles += hold;

    bool tracks_outstanding =
        cfg_.design != ThreadingDesign::AsyncNoResponse;

    InFlightHandle inflight = ctx.inflight;
    ++inflight_.at(inflight).pendingKernels;
    if (tracks_outstanding)
        ++ctx.outstanding;

    runOnCore(tid, hold, [this, tid, k, probe, inflight,
                          tracks_outstanding]() {
        dispatchResilient(
            tid, k, /*transferPaidByHost=*/cfg_.driverWaitsForAck, probe,
            inflight,
            [this, tid, k, inflight](OffloadOutcome out) {
                if (out == OffloadOutcome::HostFallback) {
                    // Async fallback: the re-execution steals core
                    // time from whatever runs next (the established
                    // response-pickup accounting; see DESIGN.md).
                    pendingStolenCycles_ += k.hostCycles;
                }
                onAsyncResponse(tid, inflight);
            });

        ThreadCtx &ctx = threads_[tid];
        if (tracks_outstanding && ctx.outstanding >= cfg_.maxOutstanding) {
            // Backpressure: stop issuing until responses drain. The
            // analytical model has no notion of this; it only bites at
            // high accelerator load.
            ctx.blockedOnOutstanding = true;
            ctx.state = ThreadState::Blocked;
            resume_[tid] = [this, tid]() { maybeNext(tid); };
            releaseCore(tid);
            dispatch();
        } else {
            maybeNext(tid);
        }
    }, kOverheadWorkTag);
}

void
ServiceSim::onAsyncResponse(size_t tid, InFlightHandle inflight)
{
    ThreadCtx &ctx = threads_[tid];
    InFlight &f = inflight_.at(inflight);
    ensure(f.pendingKernels > 0, "onAsyncResponse: no pending kernels");
    --f.pendingKernels;

    bool no_response = cfg_.design == ThreadingDesign::AsyncNoResponse;
    if (!no_response) {
        ensure(ctx.outstanding > 0, "onAsyncResponse: outstanding = 0");
        --ctx.outstanding;
        double stolen = cfg_.responsePickupCycles;
        if (cfg_.design == ThreadingDesign::AsyncDistinctThread)
            stolen += cfg_.contextSwitchCycles;
        pendingStolenCycles_ += stolen;
    }

    maybeCompleteRequest(inflight,
                         no_response &&
                             cfg_.strategy == Strategy::Remote);

    if (ctx.blockedOnOutstanding &&
        ctx.outstanding < cfg_.maxOutstanding) {
        ctx.blockedOnOutstanding = false;
        sim::InlineCallback resume = std::move(resume_[tid]);
        makeReady(tid, std::move(resume));
    }
}

// --------------------------------------------------------------------
// Degraded-mode offload: deadline + retry + circuit breaker
// --------------------------------------------------------------------

void
ServiceSim::dispatchResilient(size_t tid, const KernelInvocation &k,
                              bool transferPaidByHost, bool probe,
                              InFlightHandle inflight,
                              sim::InlineFunction<void(OffloadOutcome)> &&resolve)
{
    if (!resilienceActive()) {
        // No deadline configured: the pre-fault code path — wait for
        // the device forever. Bit-identical to a tree without this
        // layer.
        accel_.offload(k.hostCycles, k.bytes,
                       [res = std::move(resolve)](bool delivered) {
                           if (delivered)
                               res(OffloadOutcome::Accel);
                       },
                       transferPaidByHost);
        return;
    }
    AttemptState state;
    state.kernel = k;
    state.tid = tid;
    state.probe = probe;
    state.transferPaidByHost = transferPaidByHost;
    state.inflight = inflight;
    state.resolve = std::move(resolve);
    issueAttempt(attempts_.acquire(std::move(state)));
}

sim::Tick
ServiceSim::backoffTicks(std::uint32_t attempt) const
{
    double d = cfg_.retry.backoffBaseCycles *
               std::pow(cfg_.retry.backoffFactor,
                        static_cast<double>(attempt));
    d = std::min(d, cfg_.retry.backoffCapCycles);
    return static_cast<sim::Tick>(std::llround(d));
}

void
ServiceSim::issueAttempt(AttemptHandle h)
{
    // The device completion and the deadline timer race; whichever
    // fires first settles the attempt and the loser is cancelled (or
    // ignored — a completion that lost the race is a late response).
    const AttemptState &state = attempts_.at(h);
    accel_.offload(
        state.kernel.hostCycles, state.kernel.bytes,
        [this, h](bool delivered) { onAttemptReported(h, delivered); },
        state.transferPaidByHost);

    attempts_.at(h).timer = eq_.scheduleTimerIn(
        static_cast<sim::Tick>(std::llround(cfg_.retry.timeoutCycles)),
        [this, h]() { onAttemptDeadline(h); });
}

void
ServiceSim::onAttemptReported(AttemptHandle h, bool delivered)
{
    AttemptState &state = attempts_.at(h);
    state.deviceReported = true;
    if (!delivered) {
        // Lost on the device: the deadline still decides the attempt.
        maybeReleaseAttempt(h);
        return;
    }
    if (state.settled) {
        ++metrics_.lateCompletionsIgnored;
        maybeReleaseAttempt(h);
        return;
    }
    state.settled = true;
    eq_.cancelTimer(state.timer);
    state.timer = sim::kInvalidTimer;
    recordOffloadOutcome(/*success=*/true, state.probe);
    // Moved out before it runs: it may offload again, which can reuse
    // this slot or grow the pool.
    auto resolve = std::move(state.resolve);
    attempts_.release(h);
    resolve(OffloadOutcome::Accel);
}

void
ServiceSim::onAttemptDeadline(AttemptHandle h)
{
    AttemptState &state = attempts_.at(h);
    ensure(!state.settled,
           "onAttemptDeadline: deadline fired after settlement");
    state.settled = true;
    state.timer = sim::kInvalidTimer;
    const size_t tid = state.tid;
    const std::uint32_t attempt = state.attempt;
    inflight_.at(state.inflight).degraded = true;
    ++metrics_.offloadTimeouts;
    timeoutWarner_.warn([&] {
        return "thread " + std::to_string(tid) + " attempt " +
               std::to_string(attempt + 1) + " deadline at tick " +
               std::to_string(eq_.now());
    });
    recordOffloadOutcome(/*success=*/false, state.probe);

    // A probe never retries, and an open breaker cuts the retry chain
    // short — both routes go straight to host.
    bool can_retry = !state.probe &&
        attempt + 1 < cfg_.retry.maxAttempts && breaker_.closed();
    if (can_retry) {
        ++metrics_.offloadRetries;
        AttemptState next;
        next.kernel = state.kernel;
        next.tid = tid;
        next.attempt = attempt + 1;
        next.transferPaidByHost = state.transferPaidByHost;
        next.inflight = state.inflight;
        next.resolve = std::move(state.resolve);
        maybeReleaseAttempt(h);
        const AttemptHandle retry = attempts_.acquire(std::move(next));
        eq_.scheduleIn(backoffTicks(attempt),
                       [this, retry]() { issueAttempt(retry); });
        return;
    }

    const double hostCycles = state.kernel.hostCycles;
    const InFlightHandle inflight = state.inflight;
    auto resolve = std::move(state.resolve);
    maybeReleaseAttempt(h);
    if (cfg_.retry.hostFallback) {
        ++metrics_.hostFallbacks;
        metrics_.fallbackHostCycles += hostCycles;
        fallbackWarner_.warn([&] {
            return "thread " + std::to_string(tid) +
                   " reverting kernel to host at tick " +
                   std::to_string(eq_.now());
        });
        resolve(OffloadOutcome::HostFallback);
    } else {
        ++metrics_.offloadsAbandoned;
        inflight_.at(inflight).failed = true;
        resolve(OffloadOutcome::Abandoned);
    }
}

void
ServiceSim::maybeReleaseAttempt(AttemptHandle h)
{
    const AttemptState &state = attempts_.at(h);
    if (state.deviceReported && state.timer == sim::kInvalidTimer)
        attempts_.release(h);
}

void
ServiceSim::recordOffloadOutcome(bool success, bool probe)
{
    switch (breaker_.record(success, probe, eq_.now())) {
      case CircuitBreaker::Transition::Opened:
        ++metrics_.breakerOpens;
        warn("circuit breaker opened at tick " +
             std::to_string(eq_.now()) +
             ": offloads revert to host execution");
        break;
      case CircuitBreaker::Transition::Closed:
        ++metrics_.breakerCloses;
        break;
      case CircuitBreaker::Transition::None:
        break;
    }
}

// --------------------------------------------------------------------
// Run loop
// --------------------------------------------------------------------

void
ServiceSim::setCompletionHook(CompletionHook &&hook)
{
    completionHook_ = std::move(hook);
}

void
ServiceSim::beginWindow(double measureSeconds, double warmupSeconds)
{
    require(measureSeconds > 0, "ServiceSim::run: window must be positive");
    require(warmupSeconds >= 0, "ServiceSim::run: negative warmup");
    ensure(endTick_ == 0, "ServiceSim::run: single-use object");

    sim::Tick warmup_tick =
        static_cast<sim::Tick>(warmupSeconds * cyclesPerSecond_);
    endTick_ = warmup_tick +
        static_cast<sim::Tick>(measureSeconds * cyclesPerSecond_);

    metrics_ = ServiceMetrics();
    metrics_.measuredSeconds = measureSeconds;

    // Counters run from tick 0; the window opens when this reset
    // discards them, before any other event at the warmup tick.
    if (warmupSeconds > 0) {
        eq_.schedule(warmup_tick, [this]() {
            ServiceMetrics fresh;
            fresh.measuredSeconds = metrics_.measuredSeconds;
            metrics_ = fresh;
            // A graph-shared tier is reset by the graph, once — not
            // once per contending service.
            if (ownedAccel_)
                accel_.resetStats();
            if (autoscaler_)
                autoscaler_->resetStats();
        }, /*priority=*/-100);
    }

    if (autoscaler_)
        autoscaler_->start(endTick_);
    if (openLoop_ && cyclesPerArrival_ > 0)
        scheduleNextArrival();
    for (size_t tid = 0; tid < threads_.size(); ++tid)
        makeReady(tid, [this, tid]() { startNextRequest(tid); });
}

ServiceMetrics
ServiceSim::collectMetrics()
{
    timeoutWarner_.flushSummary();
    fallbackWarner_.flushSummary();
    if (ownedAccel_) {
        metrics_.accelerator = accel_.aggregateDeviceStats();
        metrics_.tier = accel_.snapshot();
    }
    if (autoscaler_)
        metrics_.autoscaler = autoscaler_->stats();
    return metrics_;
}

ServiceMetrics
ServiceSim::run(double measureSeconds, double warmupSeconds)
{
    ensure(ownedEq_ != nullptr,
           "ServiceSim::run: a graph node runs on the graph's shared "
           "queue (ServiceGraph::run), not its own");
    beginWindow(measureSeconds, warmupSeconds);
    eq_.runUntil(endTick_);
    return collectMetrics();
}

} // namespace accel::microsim
