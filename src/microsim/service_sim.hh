/**
 * @file
 * Closed-loop microservice instance simulator.
 *
 * Simulates one service instance: worker threads on cores process
 * requests back-to-back (closed loop = the paper's "peak load"
 * measurement). Requests contain offloadable kernels; the configured
 * threading design determines how an offload interacts with cores:
 *
 *  - Sync: one thread per core; the core is held idle during the
 *    transfer, queue wait, and accelerator service (Fig. 12).
 *  - Sync-OS: over-subscribed threads; the core pays a switch (o1),
 *    runs another thread, and pays a second switch when the blocked
 *    thread resumes (Fig. 13).
 *  - Async same-thread: the thread issues the offload and keeps
 *    processing; the response is picked up without a switch (Fig. 14).
 *  - Async distinct-thread: responses are handled by a dedicated thread,
 *    costing one switch per offload.
 *  - Async no-response: the host never consumes the response.
 *
 * The simulator deliberately includes effects the analytical model
 * abstracts away — emergent accelerator queuing, response pickup work,
 * per-offload driver slop, and bounded-outstanding backpressure — so
 * A/B comparisons against it play the role of the paper's production
 * measurements.
 */

#pragma once

#include <deque>
#include <memory>
#include <vector>

#include "microsim/accelerator.hh"
#include "microsim/arrival_program.hh"
#include "microsim/autoscaler.hh"
#include "microsim/metrics.hh"
#include "microsim/request_gen.hh"
#include "microsim/resilience.hh"
#include "microsim/tier.hh"
#include "model/params.hh"
#include "sim/event_queue.hh"
#include "util/logging.hh"
#include "util/slot_pool.hh"

namespace accel::microsim {

/** Static description of a service instance. */
struct ServiceConfig
{
    std::uint32_t cores = 1;
    std::uint32_t threads = 1;
    model::ThreadingDesign design = model::ThreadingDesign::Sync;
    model::Strategy strategy = model::Strategy::OffChip;
    double clockGHz = 2.0;

    /** False = baseline run: every kernel executes on the host. */
    bool accelerated = true;

    double offloadSetupCycles = 0.0;   //!< o0 charged on the core
    double contextSwitchCycles = 0.0;  //!< o1 per switch
    /** Unmodeled response pickup work per async response. */
    double responsePickupCycles = 0.0;
    /** Unmodeled driver slop per offload. */
    double unmodeledPerOffloadCycles = 0.0;

    /**
     * When true, the core is held during the interface transfer while
     * the driver awaits the device's receipt acknowledgement (the paper's
     * "(L+Q) persists" case). When false (e.g. remote accelerators), the
     * transfer overlaps with host execution.
     */
    bool driverWaitsForAck = true;

    /** Kernels smaller than this execute on the host (selective offload). */
    double minOffloadBytes = 0.0;

    /** Per-thread cap on outstanding async offloads (backpressure). */
    std::uint32_t maxOutstanding = 64;

    /** Deadline/retry/fallback policy for offloads (default: off). */
    RetryPolicy retry;

    /** Circuit breaker reverting kernels to host (default: off). */
    BreakerConfig breaker;

    /**
     * Open-loop mode: bound on the admission queue. Arrivals beyond
     * this depth are shed (rejected, counted in requestsShed) instead
     * of queued. 0 = unbounded (legacy behaviour).
     */
    std::uint32_t maxArrivalQueue = 0;

    /**
     * Load mode. 0 (default) runs the closed loop the paper's
     * peak-load measurements correspond to: every thread processes
     * requests back to back. A positive value switches to open-loop
     * Poisson arrivals at this rate; idle threads park until work
     * arrives, and request latency then includes arrival queueing —
     * enabling latency-vs-load and SLO analysis.
     */
    double openArrivalsPerSec = 0.0;

    /**
     * Time-varying open-loop arrivals: a seeded non-homogeneous
     * Poisson process whose rate follows this program (day traces,
     * flash crowds, multi-tenant mixes — see arrival_program.hh).
     * Mutually exclusive with openArrivalsPerSec; a *constant* program
     * replays bit-for-bit as the equivalent openArrivalsPerSec run,
     * while a varying one uses Lewis-Shedler thinning (candidates at
     * the peak rate, one extra accept draw per candidate).
     */
    ArrivalProgram arrivalProgram;

    /**
     * SLO-driven control loop over the replica tier plus the optional
     * brown-out admission gate (default: disabled). Requires open-loop
     * arrivals; the brown-out gate additionally requires
     * maxArrivalQueue > 0 to tighten within.
     */
    AutoscalerConfig autoscaler;

    /** @throws FatalError on inconsistent settings. */
    void validate() const;
};

class ServiceSpec;

/** One simulated service instance. */
class ServiceSim
{
  public:
    /**
     * Standalone instance from a validated ServiceSpec (the unified
     * construction API; see service_spec.hh). Owns its event queue and
     * accelerator tier.
     *
     * @throws FatalError listing every spec problem at once, or when
     *         the spec names a graph-shared tier (those only exist
     *         inside a ServiceGraph).
     */
    explicit ServiceSim(const ServiceSpec &spec);

    /**
     * Graph-node instance: the simulator runs on @p eq (a clock shared
     * with the other nodes of a ServiceGraph) and, when @p sharedTier
     * is non-null, offloads through that graph-owned tier instead of
     * constructing its own. @p serverMode puts the node in open-loop
     * arrival mode even without its own arrival source, so injected
     * RPC arrivals (injectArrival) are its only offered load.
     *
     * Both referents must outlive the simulator. Use run() only on
     * standalone instances; a graph drives beginWindow() /
     * collectMetrics() around its own event-loop run.
     *
     * @throws FatalError as above, except that a spec naming a shared
     *         tier is accepted with a non-null @p sharedTier.
     */
    ServiceSim(const ServiceSpec &spec, sim::EventQueue &eq,
               AcceleratorTier *sharedTier, bool serverMode);

    /**
     * Run the closed loop and return metrics for the measurement window.
     * Standalone instances only (the graph runs the shared queue).
     *
     * @param measureSeconds  measurement window length
     * @param warmupSeconds   cycles discarded before measuring
     */
    ServiceMetrics run(double measureSeconds, double warmupSeconds = 0.1);

    // --- graph-node driving (ServiceGraph) ---

    /**
     * Invoked once per completed request — warmup included, like the
     * autoscaler's latency feed — with the request's injection token
     * (0 for locally-generated requests), its arrival tick, and
     * whether a kernel was abandoned. Unset: zero overhead, no
     * behaviour change.
     */
    using CompletionHook =
        sim::InlineFunction<void(std::uint64_t token, sim::Tick arrivedAt,
                                 bool failed)>;

    void setCompletionHook(CompletionHook &&hook);

    /**
     * Deliver one externally-generated (RPC) arrival carrying @p token
     * through the normal admission path: it is counted in
     * requestsArrived, subject to the bounded-queue / brown-out shed
     * logic, and wakes an idle thread.
     *
     * @return false when the arrival was shed (the caller owns the
     *         failure accounting); true when admitted, in which case
     *         the completion hook will eventually fire with @p token.
     */
    bool injectArrival(std::uint64_t token);

    /**
     * First half of run(): set up the measurement window (warmup
     * reset, arrival source, thread wake-up) without running the
     * event loop — the graph runs the shared queue itself. A node on
     * a shared tier skips the tier's warmup reset and final snapshot;
     * the graph owns both (once, not once per service).
     */
    void beginWindow(double measureSeconds, double warmupSeconds);

    /** Second half of run(): flush warners, snapshot metrics. */
    ServiceMetrics collectMetrics();

    /** End of the window set by beginWindow()/run(), in ticks. */
    sim::Tick windowEndTick() const { return endTick_; }

  private:
    /** Shared delegate: null @p eq / @p sharedTier = owned. */
    ServiceSim(const ServiceSpec &spec, sim::EventQueue *eq,
               AcceleratorTier *sharedTier, bool serverMode);

    enum class ThreadState { Ready, Running, Blocked, Idle, Parked };

    /**
     * Per-request completion tracking, kept in inflight_ and named by
     * its handle in response callbacks. Released once the request is
     * counted with no kernel pending (maybeCompleteRequest).
     */
    struct InFlight
    {
        sim::Tick start = 0;
        std::uint32_t pendingKernels = 0;
        bool hostDone = false;
        bool counted = false;
        /** Saw degraded handling (timeout/retry/fallback/breaker). */
        bool degraded = false;
        /** A kernel was abandoned: completed without a result. */
        bool failed = false;
        /** Injection token (graph RPC); 0 = locally generated. */
        std::uint64_t token = 0;
    };
    using InFlightHandle = SlotPool<InFlight>::Handle;

    struct ThreadCtx
    {
        ThreadState state = ThreadState::Ready;
        Request req;
        size_t kernelIdx = 0;
        size_t segmentIdx = 0;
        /** The request being worked on; stale once it completes. */
        InFlightHandle inflight = 0;
        std::uint32_t outstanding = 0;
        bool blockedOnOutstanding = false;
        bool needsSwitchIn = false;
        int core = -1;
    };

    // --- configuration ---
    ServiceConfig cfg_;
    /** Owned when standalone; null when running on a graph's queue. */
    std::unique_ptr<sim::EventQueue> ownedEq_;
    sim::EventQueue &eq_;
    /**
     * Owned unless the spec names a graph-shared tier; a shared tier's
     * warmup reset and snapshot belong to the graph.
     */
    std::unique_ptr<AcceleratorTier> ownedAccel_;
    AcceleratorTier &accel_; //!< trivial tier = the old single device
    RequestSource source_;

    // --- scheduler state ---
    std::vector<ThreadCtx> threads_;
    std::deque<size_t> readyQueue_;
    std::uint32_t freeCores_ = 0;

    /** Every request still in flight, by handle. */
    SlotPool<InFlight> inflight_;

    // --- open-loop arrivals ---
    struct PendingArrival
    {
        Request req;
        sim::Tick arrived = 0;
        std::uint64_t token = 0; //!< graph RPC token; 0 = local
    };
    /**
     * FIFO ring of admitted arrivals: arrivalCount_ entries from
     * arrivalHead_, wrapping. Slots keep their request buffers; a
     * dequeue swaps them with the thread's, so a steady stream of
     * arrivals reuses capacity instead of allocating.
     */
    std::vector<PendingArrival> arrivals_;
    size_t arrivalHead_ = 0;
    size_t arrivalCount_ = 0;
    std::vector<size_t> idleThreads_;
    Rng arrivalRng_;
    double cyclesPerArrival_ = 0.0; //!< mean candidate gap (peak rate)
    bool openLoop_ = false;
    /** Non-constant program: thin peak-rate candidates by rate(t)/peak. */
    bool thinning_ = false;
    double peakArrivalsPerSec_ = 0.0;
    double cyclesPerSecond_ = 0.0;

    /** SLO control loop; null unless cfg_.autoscaler.enabled. */
    std::unique_ptr<Autoscaler> autoscaler_;

    void scheduleNextArrival();
    void onArrival();
    /**
     * One accepted arrival: admission check, enqueue, thread wake.
     * @return false when the arrival was shed.
     */
    bool admitArrival(std::uint64_t token);
    /** Double the arrival ring, keeping order and every slot's buffers. */
    void growArrivals();

    // --- response-pickup accounting pool (see DESIGN.md) ---
    double pendingStolenCycles_ = 0.0;

    // --- run bookkeeping ---
    sim::Tick endTick_ = 0;
    ServiceMetrics metrics_;
    CompletionHook completionHook_;

    // --- scheduling ---
    /** Mark @p tid runnable; @p resume is the sink continuation. */
    void makeReady(size_t tid, sim::InlineCallback &&resume);
    void dispatch();
    void releaseCore(size_t tid);
    void yieldCore(size_t tid);

    /**
     * Occupy the thread's core for @p cycles, then call @p done.
     * @p tag attributes the cycles in coreCyclesByTag.
     */
    void runOnCore(size_t tid, double cycles,
                   sim::InlineCallback &&done,
                   WorkTag tag = kUntagged);

    // --- request flow ---
    void startNextRequest(size_t tid);
    /** Run segments/kernels in order; dispatches the next work item. */
    void maybeNext(size_t tid);
    void execSegment(size_t tid);
    void handleKernel(size_t tid);
    void finishHostWork(size_t tid);
    void maybeCompleteRequest(InFlightHandle inflight, bool remoteExcluded);

    // --- offload paths ---
    void offloadSync(size_t tid, const KernelInvocation &k, bool probe);
    void offloadSyncOS(size_t tid, const KernelInvocation &k, bool probe);
    void offloadAsync(size_t tid, const KernelInvocation &k, bool probe);
    void onAsyncResponse(size_t tid, InFlightHandle inflight);

    // --- degraded-mode offload (deadline, retry, breaker) ---

    /** How a resilient offload ultimately resolved. */
    enum class OffloadOutcome
    {
        Accel,        //!< device completion arrived in time
        HostFallback, //!< retries exhausted; re-executed on the host
        Abandoned,    //!< retries exhausted; no fallback configured
    };

    /**
     * One attempt's race between device completion and deadline, kept
     * in attempts_ and named by its handle in both callbacks. Released
     * once the device has reported and the deadline fired or was
     * cancelled.
     */
    struct AttemptState
    {
        KernelInvocation kernel{};
        size_t tid = 0;
        std::uint32_t attempt = 0;
        bool probe = false;
        bool transferPaidByHost = false;
        bool settled = false;
        bool deviceReported = false;
        sim::TimerId timer = sim::kInvalidTimer;
        InFlightHandle inflight = 0;
        sim::InlineFunction<void(OffloadOutcome)> resolve;
    };
    using AttemptHandle = SlotPool<AttemptState>::Handle;

    bool resilienceActive() const { return cfg_.retry.active(); }

    /**
     * Offload @p k with the configured resilience policy. @p resolve
     * is invoked exactly once with the final outcome; without an
     * active policy this degenerates to a plain device offload.
     */
    void dispatchResilient(size_t tid, const KernelInvocation &k,
                           bool transferPaidByHost, bool probe,
                           InFlightHandle inflight,
                           sim::InlineFunction<void(OffloadOutcome)> &&resolve);

    /** Start @p h's device offload and arm its deadline. */
    void issueAttempt(AttemptHandle h);
    void onAttemptReported(AttemptHandle h, bool delivered);
    void onAttemptDeadline(AttemptHandle h);

    /** Release @p h once its device reported and its deadline is gone. */
    void maybeReleaseAttempt(AttemptHandle h);

    sim::Tick backoffTicks(std::uint32_t attempt) const;

    /** Feed one offload outcome to the breaker; count its transitions. */
    void recordOffloadOutcome(bool success, bool probe);

    /** Every resilient offload attempt still live, by handle. */
    SlotPool<AttemptState> attempts_;

    CircuitBreaker breaker_;

    // Fault storms must not flood stderr: first-N + suppressed-count
    // (count-based so logs replay identically for a seed).
    RateLimitedWarner timeoutWarner_{"offload timeout", 3};
    RateLimitedWarner fallbackWarner_{"offload fallback", 3};

    /** Per-thread resume continuation while blocked. */
    std::vector<sim::InlineCallback> resume_;

    double chargeStolen(double cycles);
};

} // namespace accel::microsim
