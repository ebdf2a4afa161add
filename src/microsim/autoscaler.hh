/**
 * @file
 * SLO-driven autoscaler for a replicated accelerator tier.
 *
 * The Autoscaler closes the loop the breaker/ejection machinery left
 * open: instead of reacting to device *faults*, it reacts to *demand*.
 * On a fixed sim-timer cadence it samples windowed SLO signals — the
 * window's p99 latency against a budget, the admission-queue depth,
 * and the window's shed count — and votes. Sustained pressure grows
 * the live AcceleratorTier replica set (up to a cap); sustained slack
 * shrinks it (down to a floor), with hysteresis (consecutive-window
 * vote thresholds) and a cooldown between actions so the controller
 * cannot flap. Scale-down goes through the tier's draining path:
 * in-flight and hedged offloads settle before a replica parks, and an
 * ejected replica is the preferred victim since it contributes no
 * capacity anyway.
 *
 * Graceful brown-out: when latency is collapsing faster than capacity
 * can grow, the optional admission gate tightens maxArrivalQueue-style
 * shedding *before* the queue fills — bounding the latency of admitted
 * requests at the cost of honest, separately-attributed overload sheds
 * (ServiceMetrics::requestsShedOverload) — and relaxes again once the
 * window is healthy.
 *
 * Determinism: the controller runs on the event queue's timer cadence
 * and consumes only simulation-local signals; it draws no randomness,
 * so an autoscaled run replays bit-for-bit from a seed.
 */

#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "microsim/tier.hh"
#include "sim/event_queue.hh"
#include "stats/histogram.hh"
#include "stats/online_stats.hh"

namespace accel::microsim {

/** Static description of the SLO control loop. */
struct AutoscalerConfig
{
    /** Master switch; everything below is ignored when false. */
    bool enabled = false;

    /** Control-window length in cycles (the sampling cadence). */
    double intervalCycles = 1e6;

    /** p99 latency budget in cycles (the SLO being defended). */
    double sloLatencyCycles = 0.0;

    /** Window p99 above this fraction of the SLO votes to scale up. */
    double scaleUpPressure = 0.9;

    /** Window p99 below this fraction of the SLO votes to scale down. */
    double scaleDownPressure = 0.5;

    /** Consecutive up-votes before acting (scale-up hysteresis). */
    std::uint32_t upWindows = 1;

    /** Consecutive down-votes before acting (scale-down hysteresis). */
    std::uint32_t downWindows = 3;

    /** Minimum cycles between scaling actions. */
    double cooldownCycles = 0.0;

    /** Replica floor (also the initial live set). */
    std::uint32_t minReplicas = 1;

    /** Replica cap; the tier must be built with at least this many. */
    std::uint32_t maxReplicas = 1;

    /** Replicas added or drained per action. */
    std::uint32_t scaleStep = 1;

    /** Enables the adaptive admission (brown-out) gate. */
    bool brownout = false;

    /** The gate never tightens the admission limit below this depth. */
    std::uint32_t brownoutFloor = 4;

    /** Multiplier applied to the limit on a breaching window (< 1). */
    double brownoutTighten = 0.5;

    /** Multiplier applied on a healthy window (> 1), capped at the
     *  static maxArrivalQueue bound. */
    double brownoutRelax = 2.0;

    /** @throws FatalError on out-of-domain values (names the field). */
    void validate() const;
};

/** Observed control-loop behaviour over a run. */
struct AutoscalerStats
{
    std::uint64_t controlWindows = 0; //!< control ticks evaluated
    std::uint64_t scaleUps = 0;       //!< grow actions taken
    std::uint64_t scaleDowns = 0;     //!< shrink actions taken
    std::uint64_t upBlocked = 0;      //!< wanted up, already at cap
    std::uint64_t downBlocked = 0;    //!< wanted down, already at floor
    std::uint64_t breachWindows = 0;  //!< windows with p99 over budget
    std::uint64_t admissionTightenings = 0; //!< brown-out gate cuts
    std::uint64_t admissionRelaxations = 0; //!< brown-out gate grows

    /** Per-window p99 latency estimates (one sample per window). */
    OnlineStats windowP99Cycles;

    /**
     * p99 over every window merged so far (Histogram::merge across
     * control windows — no double counting), refreshed each tick.
     * Differs from the mean of window p99s: a quiet day with one bad
     * burst shows up here, not there.
     */
    double mergedP99Cycles = 0.0;

    /** Live replica count when the run ended. */
    std::uint32_t finalReplicas = 0;

    /** Extremes of the live replica count across the run. */
    std::uint32_t minReplicasObserved = 0;
    std::uint32_t maxReplicasObserved = 0;

    /** Every counter above as one JSON object (report surface). */
    std::string summaryJson() const;
};

/**
 * The control loop. Owned by ServiceSim when enabled: the simulator
 * feeds it completion latencies, admission-queue depths, and shed
 * events; the autoscaler owns the control timer and actuates
 * AcceleratorTier::setActiveReplicas plus the admission gate the
 * simulator consults on every arrival.
 */
class Autoscaler
{
  public:
    /**
     * @param eq          simulation event queue (must outlive this)
     * @param tier        the tier being scaled (must outlive this)
     * @param cfg         validated control-loop description
     * @param staticQueueBound  the service's maxArrivalQueue bound;
     *                    the brown-out gate tightens within it
     */
    Autoscaler(sim::EventQueue &eq, AcceleratorTier &tier,
               const AutoscalerConfig &cfg,
               std::uint32_t staticQueueBound);

    /**
     * Apply minReplicas to the tier and arm the control timer chain;
     * ticks stop once the queue passes @p endTick.
     */
    void start(sim::Tick endTick);

    /** Record one completed request's latency into the window. */
    void observeLatency(double cycles);

    /** Record the admission-queue depth after an enqueue. */
    void noteQueueDepth(std::uint64_t depth);

    /** Record one shed arrival (static bound or brown-out gate). */
    void noteShed();

    /**
     * Current admission limit from the brown-out gate; 0 when the gate
     * is disabled (callers fall back to the static bound alone). Never
     * exceeds the static bound, never drops below brownoutFloor.
     */
    std::uint64_t admissionLimit() const { return admissionLimit_; }

    /** Current live-replica target. */
    std::uint32_t activeTarget() const { return target_; }

    const AutoscalerStats &stats() const { return stats_; }

    /** Clear statistics (end of warmup); control state is preserved. */
    void resetStats();

  private:
    void controlTick();
    /** Vote on the window verdict; act once votes and cooldown allow. */
    void evaluateScaling(bool pressure, bool slack);
    /** Tighten the brown-out gate under pressure, relax it on slack. */
    void evaluateAdmission(bool pressure, bool slack);

    sim::EventQueue &eq_;
    AcceleratorTier &tier_;
    AutoscalerConfig cfg_;
    std::uint32_t staticQueueBound_ = 0;
    sim::Tick interval_ = 1; //!< control period, >= 1 tick

    sim::Tick endTick_ = 0;
    std::uint32_t target_ = 1;

    Histogram window_;     //!< latencies of the current window
    Histogram cumulative_; //!< all windows merged (Histogram::merge)
    std::uint64_t shedsInWindow_ = 0;
    std::uint64_t maxQueueInWindow_ = 0;

    std::uint32_t upVotes_ = 0;
    std::uint32_t downVotes_ = 0;
    sim::Tick lastActionTick_ = 0;
    bool everActed_ = false;

    std::uint64_t admissionLimit_ = 0;

    AutoscalerStats stats_;
};

} // namespace accel::microsim
