/**
 * @file
 * Metrics collected by a microservice simulation run.
 */

#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "microsim/accelerator.hh"
#include "microsim/autoscaler.hh"
#include "microsim/tier.hh"
#include "stats/online_stats.hh"
#include "stats/reservoir.hh"

namespace accel::microsim {

/** Tag under which offload/switch overhead core cycles accumulate. */
constexpr int kOverheadWorkTag = -2;

/** Everything a run measures; the A/B harness compares two of these. */
struct ServiceMetrics
{
    double measuredSeconds = 0.0;
    std::uint64_t requestsCompleted = 0;

    /** Open-loop mode only: requests that arrived in the window. */
    std::uint64_t requestsArrived = 0;

    /**
     * Completed requests that experienced degraded-mode handling (an
     * offload timeout, retry, host fallback, breaker fallback, or an
     * abandoned kernel). Subset of requestsCompleted.
     */
    std::uint64_t requestsDegraded = 0;

    /**
     * Completed requests in which at least one kernel was abandoned
     * (retries exhausted, no host fallback): the request finished but
     * produced no result for that kernel. Subset of requestsDegraded;
     * excluded from goodput.
     */
    std::uint64_t requestsFailed = 0;

    /** Open-loop mode: arrivals rejected by the bounded admission
     *  queue (load shedding). Shed arrivals count in requestsArrived
     *  (offered load) but never reach a thread. */
    std::uint64_t requestsShed = 0;

    /**
     * Open-loop mode: arrivals rejected by the *adaptive* brown-out
     * admission gate specifically (the gate had tightened below the
     * static maxArrivalQueue bound when the arrival was turned away).
     * Subset of requestsShed — kept separate so overload-driven
     * degradation is attributed honestly, not folded into ordinary
     * static-bound shedding.
     */
    std::uint64_t requestsShedOverload = 0;

    /** Open-loop mode: peak admission-queue depth observed. */
    std::uint64_t maxArrivalQueueDepth = 0;

    /** Request latency in cycles (service-local, per the paper). */
    OnlineStats latencyCycles;

    /** Uniform latency sample for tail quantiles (SLO analysis). */
    ReservoirSample latencySample;

    /** Latency of degraded requests only (tail under faults). */
    OnlineStats degradedLatencyCycles;
    ReservoirSample degradedLatencySample;

    /**
     * End-to-end latency including remote accelerator time that the
     * service-local latency excludes (Async no-response + remote).
     */
    OnlineStats endToEndLatencyCycles;

    /** Core cycles doing useful or overhead work. */
    double coreBusyCycles = 0.0;

    /**
     * Core cycles attributed per work tag (see WorkTag): tagged
     * segments and host-run kernels under their own tags, dispatch and
     * switch overheads under kOverheadWorkTag. Enables simulated
     * before/after functionality breakdowns (Figs. 16-18).
     */
    std::map<int, double> coreCyclesByTag;

    /** Core cycles held but idle (Sync blocking on the accelerator). */
    double coreHeldIdleCycles = 0.0;

    /** Core cycles spent on offload dispatch overhead (o0, L-hold). */
    double dispatchOverheadCycles = 0.0;

    /** Core cycles spent context switching (o1, pollution included). */
    double switchOverheadCycles = 0.0;

    std::uint64_t offloadsIssued = 0;
    std::uint64_t kernelsOnHost = 0;

    // --- degraded-mode offload accounting (zero without faults) ---
    std::uint64_t offloadTimeouts = 0;   //!< deadline expiries
    std::uint64_t offloadRetries = 0;    //!< re-issues after a timeout
    std::uint64_t hostFallbacks = 0;     //!< retry exhaustion -> host
    std::uint64_t breakerFallbacks = 0;  //!< breaker open -> host
    std::uint64_t offloadsAbandoned = 0; //!< exhausted, no fallback
    std::uint64_t lateCompletionsIgnored = 0; //!< lost the deadline race
    std::uint64_t breakerOpens = 0;
    std::uint64_t breakerProbes = 0;
    std::uint64_t breakerCloses = 0;

    /** Host cycles consumed re-executing fallen-back kernels. */
    double fallbackHostCycles = 0.0;

    /**
     * Device statistics. With a replicated tier this is the
     * cross-replica aggregate (counters sum, distributions merge);
     * with one replica it is exactly that device's stats.
     */
    AcceleratorStats accelerator;

    /**
     * Replicated-tier behaviour: dispatch, hedging, ejection, and
     * failover counters plus per-replica breakdowns and device stats.
     * All zero when the run used a trivial (single-device) tier.
     */
    TierStats tier;

    /**
     * SLO control-loop behaviour: scaling actions, breach windows, and
     * brown-out gate activity. All zero when the run did not enable
     * the autoscaler.
     */
    AutoscalerStats autoscaler;

    /** Completed requests per simulated second. */
    double qps() const;

    /**
     * Usefully completed requests per second: completions minus
     * failed (kernel-abandoned) requests. Degraded-but-correct work —
     * e.g. host fallback — still counts; shed arrivals never do.
     */
    double goodputQps() const;

    /** Mean request latency in cycles. */
    double meanLatencyCycles() const;

    /**
     * Every counter and distribution this struct collects — including
     * the degraded-mode, breaker, shedding, and overhead accounting —
     * as one JSON object, with the accelerator and tier summaries
     * nested. This is the complete report surface: benches embed it in
     * their JSON artifacts so no counter the simulation pays for is
     * collected and then silently dropped (the analyzer's
     * metrics-accounting rule enforces that every field is reachable
     * from a report path).
     */
    std::string summaryJson() const;
};

} // namespace accel::microsim
