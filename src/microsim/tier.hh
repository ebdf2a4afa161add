/**
 * @file
 * Replicated remote-accelerator tier.
 *
 * A tier owns N Accelerator replicas — each with its own FIFO queue,
 * service channels, and (optionally) an independent per-replica
 * faults::FaultPlan — behind a dispatcher. An offload is routed to one
 * replica by the configured DispatchPolicy; the tier then defends its
 * tail latency with three mechanisms real remote fleets use:
 *
 *  - **Hedged offloads**: after a (typically quantile-derived) hedge
 *    delay the offload is re-issued to a second replica; the first
 *    completion wins and the hedge-arm timer of the race is cancelled
 *    via sim::EventQueue::cancelTimer. The loser's work is not silently
 *    forgotten: duplicate completions and their wasted service cycles
 *    are counted in TierStats.
 *  - **Health tracking**: a per-attempt watchdog (healthTimeoutCycles)
 *    marks a replica failed when a completion does not arrive in time;
 *    ejectAfterFailures consecutive failures eject the replica from
 *    dispatch, and after readmitAfterCycles a single probe offload
 *    decides readmission vs re-ejection — PR 3's circuit breaker
 *    generalized to per-replica scope.
 *  - **Failover**: a timed-out attempt is re-issued to a different
 *    replica (up to maxFailovers times), so a brown-out or hard-failed
 *    replica degrades the tier instead of stalling its offloads — no
 *    host fallback required.
 *  - **Dynamic capacity**: setActiveReplicas() grows or shrinks the
 *    live replica set at runtime (the Autoscaler's actuator).
 *    Scale-down drains: a victim stops taking dispatches immediately
 *    but stays provisioned until its in-flight and hedged attempts
 *    settle, then parks in Standby; ejected victims are preferred
 *    since they contribute no capacity anyway. The provisioned-replica
 *    integral in TierStats is the replica-hours bill an autoscaler is
 *    judged on.
 *
 * Determinism: dispatch draws (power-of-two-choices) are slot-indexed
 * by dispatch sequence number, fault draws are slot-indexed per
 * (replica, offload) because every replica owns its own plan and
 * offload counter, and all racing is resolved by the event queue's
 * (tick, priority, sequence) order. A trivial tier — one replica, no
 * hedging, no health tracking — delegates offloads directly to the
 * replica with zero extra branches, events, or RNG draws, so such a
 * configuration is bit-identical to the single-Accelerator path.
 */

#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "microsim/accelerator.hh"
#include "sim/event_queue.hh"
#include "stats/reservoir.hh"
#include "util/slot_pool.hh"

namespace accel::microsim {

/** How the tier picks a replica for each offload (and hedge/failover). */
enum class DispatchPolicy
{
    RoundRobin,        //!< rotate over non-ejected replicas
    LeastOutstanding,  //!< fewest in-flight offloads (ties: lowest index)
    PowerOfTwoChoices, //!< two slot-indexed draws, keep the less loaded
};

/** Human-readable policy name (used by benches). */
const char *toString(DispatchPolicy policy);

/**
 * Hedged-offload policy. When enabled, an offload that has not settled
 * after delayCycles is re-issued to a second replica; the first
 * completion wins. The delay is typically derived from a healthy-tier
 * latency quantile (e.g. p95) so hedges fire only on the slow tail.
 */
struct HedgePolicy
{
    bool enabled = false;

    /** Cycles before the duplicate issues; must be > 0 when enabled. */
    double delayCycles = 0.0;

    /** @throws FatalError on out-of-domain values (names the field). */
    void validate() const;
};

/** Static description of a replicated accelerator tier. */
struct TierConfig
{
    /** Replica count; 1 preserves the single-device path. */
    std::uint32_t replicas = 1;

    DispatchPolicy policy = DispatchPolicy::RoundRobin;

    HedgePolicy hedge;

    /**
     * Per-attempt completion watchdog in cycles; 0 disables health
     * tracking, ejection, and failover entirely (no timers armed).
     */
    double healthTimeoutCycles = 0.0;

    /** Consecutive watchdog failures that eject a replica. */
    std::uint32_t ejectAfterFailures = 3;

    /** Ejection -> readmission-probe delay in cycles. */
    double readmitAfterCycles = 1e6;

    /** Re-issues per offload after watchdog expiry (0 = no failover). */
    std::uint32_t maxFailovers = 3;

    /** Seed for slot-indexed power-of-two-choices dispatch draws. */
    std::uint64_t seed = 1;

    /**
     * Per-replica fault plans; index r applies to replica r and null
     * entries leave that replica healthy. When shorter than the replica
     * count, remaining replicas inherit the device template's plan
     * (reseeded per replica index when replicas > 1, so a shared plan
     * does not fail in lockstep).
     */
    std::vector<std::shared_ptr<const faults::FaultPlan>>
        replicaFaultPlans;

    /**
     * True when the tier adds nothing over a single device: one
     * replica, no hedging, no health tracking. The trivial tier
     * delegates offloads directly (bit-identical path).
     */
    bool trivial() const;

    /** @throws FatalError on out-of-domain values (names the field). */
    void validate() const;
};

/** Tier-scope view of one replica over a run. */
struct TierReplicaStats
{
    std::uint64_t dispatched = 0; //!< attempts sent (incl. hedges)
    std::uint64_t wins = 0;       //!< completions that settled an offload
    std::uint64_t duplicates = 0; //!< completions after settlement
    double wastedServiceCycles = 0.0; //!< service cycles of duplicates
    std::uint64_t failures = 0;   //!< watchdog expiries charged here
    std::uint64_t ejections = 0;  //!< incl. probe-failure re-ejections
    std::uint64_t readmissions = 0;

    /** Every counter above as one JSON object (report surface). */
    std::string summaryJson() const;
};

/** Observed tier behaviour over a run (all zero on a trivial tier). */
struct TierStats
{
    std::uint64_t offloads = 0;     //!< logical offloads dispatched
    std::uint64_t hedgesIssued = 0;
    std::uint64_t hedgeWins = 0;    //!< hedge attempt settled first
    std::uint64_t hedgeLosses = 0;  //!< primary settled first anyway
    std::uint64_t duplicateCompletions = 0;
    double wastedServiceCycles = 0.0; //!< duplicates' service cycles
    double usefulServiceCycles = 0.0; //!< winning attempts' service cycles
    std::uint64_t failovers = 0;
    std::uint64_t failoversExhausted = 0; //!< no healthy replica left
    std::uint64_t watchdogExpiries = 0;
    std::uint64_t ejections = 0;
    std::uint64_t readmissionProbes = 0;
    std::uint64_t readmissions = 0;

    // --- dynamic capacity (autoscaling; all zero on a static tier) ---
    std::uint64_t activations = 0;     //!< standby/draining -> active
    std::uint64_t drainsStarted = 0;   //!< scale-down victims picked
    std::uint64_t drainsCompleted = 0; //!< drained to standby

    /**
     * Integral of provisioned (non-standby) replicas over simulated
     * cycles — the "replica-hours" an autoscaled tier consumed.
     * Draining replicas still count: capacity is paid for until the
     * drain settles. Finalized by snapshot(); resetStats() restarts
     * the integral at the reset tick.
     */
    double provisionedReplicaCycles = 0.0;

    /** Tier-level offload latency (dispatch -> first completion). */
    ReservoirSample offloadLatencyCycles;

    /** Per-replica breakdowns, indexed by replica number. */
    std::vector<TierReplicaStats> replicas;

    /** Per-replica device statistics (filled by snapshot()). */
    std::vector<AcceleratorStats> deviceStats;

    /**
     * Duplicate-work overhead: wasted service cycles relative to
     * useful service cycles (0 when nothing settled).
     */
    double duplicateWorkFraction() const;

    /**
     * Every tier counter, the offload-latency sample, and the
     * per-replica breakdowns (incl. device stats) as one JSON object
     * — the complete report surface, so no counter the tier collects
     * is silently dropped on the floor.
     */
    std::string summaryJson() const;
};

/** The replicated tier: dispatch -> replica -> race -> settle. */
class AcceleratorTier
{
  public:
    /**
     * @param eq      simulation event queue (must outlive the tier)
     * @param device  per-replica device description; its fault plan
     *                seeds replicas without an explicit per-replica plan
     * @param tier    validated tier description
     */
    AcceleratorTier(sim::EventQueue &eq, const AcceleratorConfig &device,
                    const TierConfig &tier);

    /**
     * Dispatch one logical offload through the tier. @p onComplete runs
     * exactly once: with true when the first replica completion
     * arrives, or with false once the offload can no longer settle —
     * every attempt has reported, and no watchdog or hedge timer that
     * could issue another is pending. Callers that need an answer in
     * time race a deadline timer against it, exactly as with a single
     * Accelerator.
     */
    void offload(double hostEquivalentCycles, double bytes,
                 OffloadCallback &&onComplete,
                 bool transferPaidByHost = false);

    /** Interface transfer cycles (identical across replicas). */
    double transferCycles(double bytes) const;

    /** Clear statistics (end of warmup); health state is preserved. */
    void resetStats();

    size_t replicaCount() const { return replicas_.size(); }

    /** Read-only access to one replica device (tests, reporting). */
    const Accelerator &replica(size_t index) const;

    /** Tier-scope counters (no device stats; see snapshot()). */
    const TierStats &stats() const { return stats_; }

    /** Tier stats plus a copy of every replica's device stats. */
    TierStats snapshot() const;

    /**
     * Device statistics aggregated across replicas: counters sum,
     * distributions merge, queue depths take the max. With one replica
     * this is exactly that replica's stats.
     */
    AcceleratorStats aggregateDeviceStats() const;

    /** True when replica @p index is currently ejected. */
    bool replicaEjected(size_t index) const;

    /** True when replica @p index is draining toward standby. */
    bool replicaDraining(size_t index) const;

    /** True when replica @p index is parked in standby. */
    bool replicaStandby(size_t index) const;

    /** In-flight attempts currently charged to replica @p index. */
    std::uint64_t outstanding(size_t index) const;

    /**
     * Offload and attempt records the tier holds (not its replicas'):
     * each lives until its outcome is reported and its timers are gone.
     */
    std::size_t liveRecords() const
    {
        return offloads_.live() + attempts_.live();
    }

    /**
     * Resize the live capacity to @p target replicas (the autoscaler's
     * actuator). Growing reactivates draining replicas first (they are
     * warm), then standby replicas in index order, with health state
     * reset as on readmission. Shrinking drains victims — ejected
     * replicas first (they contribute nothing), then the highest
     * indexes — to Standby once their in-flight and hedged attempts
     * settle; until then they stay provisioned (and billed) but take
     * no new dispatches. Standby replicas are never dispatch
     * candidates, never probed, and never counted as capacity.
     *
     * @throws FatalError when target is 0, exceeds the constructed
     *         replica count, or the tier is trivial (single device).
     */
    void setActiveReplicas(std::uint32_t target);

    /** Replicas currently provisioned (active or draining). */
    std::uint32_t provisionedReplicaCount() const;

    /** Replicas currently accepting dispatch (not standby/draining). */
    std::uint32_t activeReplicaCount() const;

  private:
    enum class ReplicaState
    {
        Healthy,
        Ejected,
        Probing,
        Draining, //!< scale-down victim waiting for in-flight work
        Standby,  //!< descheduled: no dispatch, no probes, no billing
    };

    struct ReplicaHealth
    {
        ReplicaState state = ReplicaState::Healthy;
        std::uint32_t consecutiveFailures = 0;
        bool probeInFlight = false;
    };

    static constexpr size_t kNoReplica = ~static_cast<size_t>(0);

    /**
     * One logical offload. Released once no attempt is live and no
     * hedge timer is pending; reports false then if it never settled.
     */
    struct OffloadState
    {
        double hostCycles = 0.0;
        double bytes = 0.0;
        bool transferPaidByHost = false;
        sim::Tick issuedAt = 0;
        bool settled = false;
        bool hedged = false;
        std::uint32_t failovers = 0;
        std::uint32_t liveAttempts = 0;
        size_t primaryReplica = kNoReplica; //!< set by the first attempt
        sim::TimerId hedgeTimer = sim::kInvalidTimer;
        OffloadCallback onComplete;
    };
    using OffloadHandle = SlotPool<OffloadState>::Handle;

    /**
     * One replica attempt inside a logical offload. Released once the
     * device has reported and its watchdog fired or was cancelled.
     */
    struct Attempt
    {
        OffloadHandle offload = 0;
        size_t replica = 0;
        sim::TimerId watchdog = sim::kInvalidTimer;
        bool isHedge = false;
        bool isProbe = false;
        bool reported = false;  //!< the device ran its callback
        bool timedOut = false;
    };
    using AttemptHandle = SlotPool<Attempt>::Handle;

    sim::EventQueue &eq_;
    AcceleratorConfig deviceConfig_; //!< template (plan handled per replica)
    TierConfig cfg_;
    bool trivial_ = false;
    std::vector<std::unique_ptr<Accelerator>> replicas_;
    std::vector<ReplicaHealth> health_;
    std::vector<std::uint64_t> outstanding_;
    std::uint64_t rrCursor_ = 0;      //!< round-robin rotation state
    std::uint64_t dispatchIndex_ = 0; //!< slot index for p2c draws
    /** pickReplica's scratch list, kept so a pick allocates nothing. */
    std::vector<size_t> candidates_;
    SlotPool<OffloadState> offloads_;
    SlotPool<Attempt> attempts_;
    TierStats stats_;

    // Lazily-integrated capacity: accumulated provisioned-replica
    // cycles up to capacityOriginTick_, extended on every provisioned
    // count change and finalized by snapshot().
    double capacityAccumCycles_ = 0.0;
    sim::Tick capacityOriginTick_ = 0;

    /**
     * Pick a replica for the next attempt: a probing replica waiting
     * for its probe wins, then the policy chooses among healthy
     * replicas (excluding @p exclude); with every replica ejected the
     * pick falls back to all replicas rather than deadlocking.
     * @return replica index, and sets @p isProbe for probe routing;
     *         kNoReplica only when exclusion empties a 1-replica tier.
     */
    size_t pickReplica(size_t exclude, bool *isProbe);

    void issueAttempt(OffloadHandle offload, size_t replica, bool isHedge,
                      bool isProbe);
    void onHedgeTimer(OffloadHandle offload);
    void onDeviceReport(AttemptHandle attempt, bool delivered);
    void onWatchdog(AttemptHandle attempt);

    /** Release @p attempt if its device reported and no watchdog waits. */
    void maybeReleaseAttempt(AttemptHandle attempt);

    /**
     * Release @p offload once no attempt is live and no hedge timer is
     * pending, reporting false first if it never settled.
     */
    void maybeReleaseOffload(OffloadHandle offload);

    void recordSuccess(size_t replica);
    void recordFailure(size_t replica);
    void ejectReplica(size_t replica);

    /** Extend the capacity integral up to the current tick. */
    void accrueCapacity();

    /** Draining replica @p replica hit zero outstanding: park it. */
    void finalizeDrain(size_t replica);
};

} // namespace accel::microsim
