#include "microsim/tier.hh"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <utility>

#include "util/json_fmt.hh"
#include "util/logging.hh"
#include "util/rng.hh"

namespace accel::microsim {

namespace {

constexpr std::uint64_t kDispatchStream = 0xd15ULL;

/** Watchdogs outrank completions at the same tick, matching the retry
 *  deadline convention in ServiceSim: a completion landing exactly at
 *  the timeout already missed it. */
constexpr int kWatchdogPriority = -1;

} // namespace

const char *
toString(DispatchPolicy policy)
{
    switch (policy) {
    case DispatchPolicy::RoundRobin:
        return "round-robin";
    case DispatchPolicy::LeastOutstanding:
        return "least-outstanding";
    case DispatchPolicy::PowerOfTwoChoices:
        return "p2c";
    }
    return "?";
}

void
HedgePolicy::validate() const
{
    if (!enabled) {
        require(delayCycles == 0.0,
                "HedgePolicy.delayCycles must be 0 when disabled");
        return;
    }
    require(std::isfinite(delayCycles) && delayCycles > 0.0,
            "HedgePolicy.delayCycles must be finite and > 0 when "
            "hedging is enabled");
}

bool
TierConfig::trivial() const
{
    return replicas == 1 && !hedge.enabled && healthTimeoutCycles == 0.0;
}

void
TierConfig::validate() const
{
    require(replicas >= 1, "TierConfig.replicas must be >= 1");
    hedge.validate();
    require(std::isfinite(healthTimeoutCycles) &&
                healthTimeoutCycles >= 0.0,
            "TierConfig.healthTimeoutCycles must be finite and >= 0");
    require(ejectAfterFailures >= 1,
            "TierConfig.ejectAfterFailures must be >= 1");
    require(std::isfinite(readmitAfterCycles) && readmitAfterCycles > 0.0,
            "TierConfig.readmitAfterCycles must be finite and > 0");
    require(hedge.enabled ? replicas >= 2 : true,
            "TierConfig.hedge needs replicas >= 2 to re-issue anywhere");
    require(replicaFaultPlans.size() <= replicas,
            "TierConfig.replicaFaultPlans has more entries than "
            "replicas");
    for (const auto &plan : replicaFaultPlans) {
        if (plan)
            plan->validate();
    }
}

double
TierStats::duplicateWorkFraction() const
{
    if (usefulServiceCycles <= 0.0)
        return 0.0;
    return wastedServiceCycles / usefulServiceCycles;
}

std::string
TierReplicaStats::summaryJson() const
{
    std::ostringstream os;
    os << "{\"dispatched\": " << dispatched << ", \"wins\": " << wins
       << ", \"duplicates\": " << duplicates
       << ", \"wasted_service_cycles\": "
       << jsonNumber(wastedServiceCycles) << ", \"failures\": "
       << failures << ", \"ejections\": " << ejections
       << ", \"readmissions\": " << readmissions << "}";
    return os.str();
}

std::string
TierStats::summaryJson() const
{
    std::ostringstream os;
    os << "{\"offloads\": " << offloads << ", \"hedges_issued\": "
       << hedgesIssued << ", \"hedge_wins\": " << hedgeWins
       << ", \"hedge_losses\": " << hedgeLosses
       << ", \"duplicate_completions\": " << duplicateCompletions
       << ", \"wasted_service_cycles\": "
       << jsonNumber(wastedServiceCycles)
       << ", \"useful_service_cycles\": "
       << jsonNumber(usefulServiceCycles)
       << ", \"duplicate_work_fraction\": "
       << jsonNumber(duplicateWorkFraction()) << ", \"failovers\": "
       << failovers << ", \"failovers_exhausted\": "
       << failoversExhausted << ", \"watchdog_expiries\": "
       << watchdogExpiries << ", \"ejections\": " << ejections
       << ", \"readmission_probes\": " << readmissionProbes
       << ", \"readmissions\": " << readmissions
       << ", \"activations\": " << activations
       << ", \"drains_started\": " << drainsStarted
       << ", \"drains_completed\": " << drainsCompleted
       << ", \"provisioned_replica_cycles\": "
       << jsonNumber(provisionedReplicaCycles)
       << ", \"offload_latency_cycles\": "
       << offloadLatencyCycles.summaryJson() << ", \"replicas\": [";
    for (size_t r = 0; r < replicas.size(); ++r)
        os << (r ? ", " : "") << replicas[r].summaryJson();
    os << "], \"device_stats\": [";
    for (size_t r = 0; r < deviceStats.size(); ++r)
        os << (r ? ", " : "") << deviceStats[r].summaryJson();
    os << "]}";
    return os.str();
}

AcceleratorTier::AcceleratorTier(sim::EventQueue &eq,
                                 const AcceleratorConfig &device,
                                 const TierConfig &tier)
    : eq_(eq), deviceConfig_(device), cfg_(tier)
{
    cfg_.validate();
    trivial_ = cfg_.trivial();

    replicas_.reserve(cfg_.replicas);
    for (std::uint32_t r = 0; r < cfg_.replicas; ++r) {
        AcceleratorConfig rc = deviceConfig_;
        if (r < cfg_.replicaFaultPlans.size() &&
            cfg_.replicaFaultPlans[r]) {
            rc.faultPlan = cfg_.replicaFaultPlans[r];
        } else if (rc.faultPlan && cfg_.replicas > 1) {
            // A shared template plan must not fail in lockstep across
            // replicas: reseed it per replica index so draws stay
            // slot-indexed per (replica, offload) yet independent.
            auto reseeded =
                std::make_shared<faults::FaultPlan>(*rc.faultPlan);
            reseeded->seed = slotSeed(rc.faultPlan->seed, r);
            rc.faultPlan = std::move(reseeded);
        }
        replicas_.push_back(std::make_unique<Accelerator>(eq_, rc));
    }
    health_.resize(cfg_.replicas);
    outstanding_.assign(cfg_.replicas, 0);
    stats_.replicas.resize(cfg_.replicas);
    capacityOriginTick_ = eq_.now();
}

double
AcceleratorTier::transferCycles(double bytes) const
{
    return replicas_.front()->transferCycles(bytes);
}

const Accelerator &
AcceleratorTier::replica(size_t index) const
{
    ensure(index < replicas_.size(), "AcceleratorTier: replica index");
    return *replicas_[index];
}

void
AcceleratorTier::resetStats()
{
    for (auto &r : replicas_)
        r->resetStats();
    stats_ = TierStats{};
    stats_.replicas.resize(replicas_.size());
    // Restart the capacity integral at the reset tick so warmup
    // replica-hours are not billed to the measurement window.
    capacityAccumCycles_ = 0.0;
    capacityOriginTick_ = eq_.now();
}

TierStats
AcceleratorTier::snapshot() const
{
    TierStats out = stats_;
    out.provisionedReplicaCycles = capacityAccumCycles_ +
        static_cast<double>(provisionedReplicaCount()) *
            static_cast<double>(eq_.now() - capacityOriginTick_);
    out.deviceStats.reserve(replicas_.size());
    for (const auto &r : replicas_)
        out.deviceStats.push_back(r->stats());
    return out;
}

AcceleratorStats
AcceleratorTier::aggregateDeviceStats() const
{
    // Exact copy for one replica: aggregation must not perturb the
    // single-device metrics path bit-for-bit.
    if (replicas_.size() == 1)
        return replicas_.front()->stats();
    AcceleratorStats agg;
    for (const auto &r : replicas_) {
        const AcceleratorStats &s = r->stats();
        agg.served += s.served;
        agg.busyCycles += s.busyCycles;
        agg.maxQueueDepth =
            std::max(agg.maxQueueDepth, s.maxQueueDepth);
        agg.queueWaitCycles.merge(s.queueWaitCycles);
        agg.serviceCycles.merge(s.serviceCycles);
        agg.transferCycles.merge(s.transferCycles);
        agg.droppedResponses += s.droppedResponses;
        agg.lateResponses += s.lateResponses;
        agg.spikedTransfers += s.spikedTransfers;
        agg.lostToDeviceFailure += s.lostToDeviceFailure;
        agg.stallDeferrals += s.stallDeferrals;
    }
    return agg;
}

bool
AcceleratorTier::replicaEjected(size_t index) const
{
    ensure(index < health_.size(), "AcceleratorTier: replica index");
    return health_[index].state == ReplicaState::Ejected;
}

bool
AcceleratorTier::replicaDraining(size_t index) const
{
    ensure(index < health_.size(), "AcceleratorTier: replica index");
    return health_[index].state == ReplicaState::Draining;
}

bool
AcceleratorTier::replicaStandby(size_t index) const
{
    ensure(index < health_.size(), "AcceleratorTier: replica index");
    return health_[index].state == ReplicaState::Standby;
}

std::uint32_t
AcceleratorTier::provisionedReplicaCount() const
{
    std::uint32_t n = 0;
    for (const ReplicaHealth &h : health_) {
        if (h.state != ReplicaState::Standby)
            ++n;
    }
    return n;
}

std::uint32_t
AcceleratorTier::activeReplicaCount() const
{
    std::uint32_t n = 0;
    for (const ReplicaHealth &h : health_) {
        if (h.state != ReplicaState::Standby &&
            h.state != ReplicaState::Draining)
            ++n;
    }
    return n;
}

void
AcceleratorTier::accrueCapacity()
{
    capacityAccumCycles_ +=
        static_cast<double>(provisionedReplicaCount()) *
        static_cast<double>(eq_.now() - capacityOriginTick_);
    capacityOriginTick_ = eq_.now();
}

void
AcceleratorTier::finalizeDrain(size_t replica)
{
    ensure(outstanding_[replica] == 0,
           "finalizeDrain: replica still has in-flight attempts");
    // Accrue before the provisioned count drops: the drain interval
    // itself is billed capacity.
    accrueCapacity();
    ReplicaHealth &h = health_[replica];
    h.state = ReplicaState::Standby;
    h.consecutiveFailures = 0;
    h.probeInFlight = false;
    ++stats_.drainsCompleted;
}

void
AcceleratorTier::setActiveReplicas(std::uint32_t target)
{
    require(!trivial_,
            "AcceleratorTier::setActiveReplicas: trivial (single-"
            "device) tier has no capacity to scale");
    require(target >= 1 && target <= replicas_.size(),
            "AcceleratorTier::setActiveReplicas: target must be in "
            "[1, replicas]");

    std::uint32_t active = activeReplicaCount();
    if (target > active) {
        std::uint32_t need = target - active;
        // Draining replicas first: they are warm and still provisioned,
        // so un-draining is free. Then standby replicas in index order,
        // with health reset as on readmission.
        for (size_t r = 0; r < health_.size() && need > 0; ++r) {
            if (health_[r].state != ReplicaState::Draining)
                continue;
            health_[r].state = ReplicaState::Healthy;
            health_[r].consecutiveFailures = 0;
            ++stats_.activations;
            --need;
        }
        for (size_t r = 0; r < health_.size() && need > 0; ++r) {
            if (health_[r].state != ReplicaState::Standby)
                continue;
            accrueCapacity(); // provisioned count grows at this tick
            health_[r].state = ReplicaState::Healthy;
            health_[r].consecutiveFailures = 0;
            health_[r].probeInFlight = false;
            ++stats_.activations;
            --need;
        }
        ensure(need == 0,
               "setActiveReplicas: not enough parked replicas");
        return;
    }

    // Shrink: drain (active - target) victims. Ejected replicas go
    // first — they contribute nothing but still bill capacity — then
    // probing, then healthy, highest index first (deterministic).
    std::uint32_t excess = active - target;
    auto drainOne = [this](size_t r) {
        ++stats_.drainsStarted;
        if (outstanding_[r] == 0) {
            // Nothing in flight: park immediately. A pending
            // readmission timer finds the state not Ejected and
            // leaves it parked.
            health_[r].state = ReplicaState::Draining;
            finalizeDrain(r);
        } else {
            health_[r].state = ReplicaState::Draining;
        }
    };
    for (ReplicaState victims : {ReplicaState::Ejected,
                                 ReplicaState::Probing,
                                 ReplicaState::Healthy}) {
        for (size_t i = health_.size(); i > 0 && excess > 0; --i) {
            size_t r = i - 1;
            if (health_[r].state != victims)
                continue;
            drainOne(r);
            --excess;
        }
    }
    ensure(excess == 0, "setActiveReplicas: shrink bookkeeping");
}

std::uint64_t
AcceleratorTier::outstanding(size_t index) const
{
    ensure(index < outstanding_.size(), "AcceleratorTier: replica index");
    return outstanding_[index];
}

size_t
AcceleratorTier::pickReplica(size_t exclude, bool *isProbe)
{
    *isProbe = false;

    // A replica waiting for its readmission probe gets the next
    // eligible offload: one real request decides its fate.
    for (size_t r = 0; r < health_.size(); ++r) {
        if (r == exclude)
            continue;
        if (health_[r].state == ReplicaState::Probing &&
            !health_[r].probeInFlight) {
            *isProbe = true;
            return r;
        }
    }

    // Candidates: healthy replicas (Probing ones are only eligible for
    // their probe; Ejected ones are skipped). If ejection emptied the
    // pool, fall back to every provisioned replica rather than
    // deadlocking — a fully-ejected tier still makes forward progress
    // and the watchdogs keep charging failures. Draining and standby
    // replicas are never candidates, even then: scaled-down capacity
    // must not absorb new work, or drains would never settle.
    std::vector<size_t> candidates;
    candidates.reserve(health_.size());
    for (size_t r = 0; r < health_.size(); ++r) {
        if (r == exclude)
            continue;
        if (health_[r].state == ReplicaState::Healthy)
            candidates.push_back(r);
    }
    if (candidates.empty()) {
        for (size_t r = 0; r < health_.size(); ++r) {
            if (r == exclude ||
                health_[r].state == ReplicaState::Draining ||
                health_[r].state == ReplicaState::Standby)
                continue;
            candidates.push_back(r);
        }
    }
    if (candidates.empty())
        return kNoReplica;
    if (candidates.size() == 1)
        return candidates.front();

    switch (cfg_.policy) {
    case DispatchPolicy::RoundRobin: {
        size_t pick = candidates[rrCursor_ % candidates.size()];
        ++rrCursor_;
        return pick;
    }
    case DispatchPolicy::LeastOutstanding: {
        size_t best = candidates.front();
        for (size_t r : candidates) {
            if (outstanding_[r] < outstanding_[best])
                best = r; // ties keep the lowest index
        }
        return best;
    }
    case DispatchPolicy::PowerOfTwoChoices: {
        // Slot-indexed draws: the pair sampled for dispatch #i is a
        // pure function of (seed, i), so retries and hedges elsewhere
        // cannot shift it.
        Rng rng(slotSeed(cfg_.seed, dispatchIndex_), kDispatchStream);
        ++dispatchIndex_;
        size_t a = candidates[rng.below(
            static_cast<std::uint32_t>(candidates.size()))];
        size_t b = candidates[rng.below(
            static_cast<std::uint32_t>(candidates.size()))];
        if (outstanding_[b] < outstanding_[a])
            return b;
        return a; // ties keep the first draw
    }
    }
    return candidates.front();
}

void
AcceleratorTier::offload(double hostEquivalentCycles, double bytes,
                         sim::InlineCallback &&onComplete,
                         bool transferPaidByHost)
{
    // Trivial tier: hand the offload straight to the single replica.
    // No OffloadState, no timers, no draws — the bit-identical path.
    if (trivial_) {
        replicas_.front()->offload(hostEquivalentCycles, bytes,
                                   std::move(onComplete),
                                   transferPaidByHost);
        return;
    }

    auto state = std::make_shared<OffloadState>();
    state->hostCycles = hostEquivalentCycles;
    state->bytes = bytes;
    state->transferPaidByHost = transferPaidByHost;
    state->issuedAt = eq_.now();
    state->onComplete = std::move(onComplete);

    ++stats_.offloads;

    bool isProbe = false;
    size_t replica = pickReplica(kNoReplica, &isProbe);
    ensure(replica != kNoReplica, "AcceleratorTier: no replica");
    issueAttempt(state, replica, /*isHedge=*/false, isProbe);

    if (cfg_.hedge.enabled) {
        auto delay = static_cast<sim::Tick>(
            std::llround(cfg_.hedge.delayCycles));
        state->hedgeTimer = eq_.scheduleTimerIn(delay, [this, state]() {
            state->hedgeTimer = sim::kInvalidTimer;
            if (state->settled || state->hedged)
                return;
            state->hedged = true;
            bool probe = false;
            size_t second =
                pickReplica(state->attempts.front().replica, &probe);
            if (second == kNoReplica)
                return; // nowhere to hedge to
            ++stats_.hedgesIssued;
            issueAttempt(state, second, /*isHedge=*/true, probe);
        });
    }
}

void
AcceleratorTier::issueAttempt(const std::shared_ptr<OffloadState> &state,
                              size_t replica, bool isHedge, bool isProbe)
{
    size_t attemptIndex = state->attempts.size();
    Attempt attempt;
    attempt.replica = replica;
    attempt.isHedge = isHedge;
    attempt.isProbe = isProbe;

    if (isProbe) {
        health_[replica].probeInFlight = true;
        ++stats_.readmissionProbes;
    }

    ++outstanding_[replica];
    ++stats_.replicas[replica].dispatched;

    if (cfg_.healthTimeoutCycles > 0.0) {
        auto timeout = static_cast<sim::Tick>(
            std::llround(cfg_.healthTimeoutCycles));
        attempt.watchdog = eq_.scheduleTimerIn(
            timeout,
            [this, state, attemptIndex]() {
                onWatchdog(state, attemptIndex);
            },
            kWatchdogPriority);
    }

    state->attempts.push_back(attempt);

    // Hedge and failover attempts always pay the device-side transfer:
    // the host only fronted the interface cost for the primary leg.
    bool paidByHost = state->transferPaidByHost && attemptIndex == 0;
    replicas_[replica]->offload(state->hostCycles, state->bytes,
                                [this, state, attemptIndex]() {
                                    onCompletion(state, attemptIndex);
                                },
                                paidByHost);
}

void
AcceleratorTier::onCompletion(const std::shared_ptr<OffloadState> &state,
                              size_t attemptIndex)
{
    Attempt &attempt = state->attempts[attemptIndex];
    attempt.completed = true;
    size_t replica = attempt.replica;
    double serviceCycles =
        state->hostCycles / deviceConfig_.speedupFactor;

    if (!attempt.timedOut) {
        // First terminal outcome for this attempt: release the replica
        // slot and cancel its watchdog.
        ensure(outstanding_[replica] > 0,
               "AcceleratorTier: outstanding underflow");
        --outstanding_[replica];
        if (attempt.watchdog != sim::kInvalidTimer) {
            eq_.cancelTimer(attempt.watchdog);
            attempt.watchdog = sim::kInvalidTimer;
        }
        recordSuccess(replica);
        if (health_[replica].state == ReplicaState::Draining &&
            outstanding_[replica] == 0)
            finalizeDrain(replica);
    }
    // A completion that limps in after its watchdog expired is still
    // work the device did, but the tier already judged the attempt
    // failed; health state is not retroactively repaired, so a
    // brown-out replica cannot dodge ejection with late answers.

    if (state->settled) {
        ++stats_.duplicateCompletions;
        ++stats_.replicas[replica].duplicates;
        stats_.wastedServiceCycles += serviceCycles;
        stats_.replicas[replica].wastedServiceCycles += serviceCycles;
        return;
    }

    // First completion wins: settle the offload.
    state->settled = true;
    ++stats_.replicas[replica].wins;
    stats_.usefulServiceCycles += serviceCycles;
    stats_.offloadLatencyCycles.add(
        static_cast<double>(eq_.now() - state->issuedAt));

    if (state->hedgeTimer != sim::kInvalidTimer) {
        eq_.cancelTimer(state->hedgeTimer);
        state->hedgeTimer = sim::kInvalidTimer;
    }
    if (state->hedged) {
        if (attempt.isHedge)
            ++stats_.hedgeWins;
        else
            ++stats_.hedgeLosses;
    }

    if (state->onComplete)
        state->onComplete();
    state->onComplete = nullptr; // release caller state promptly
}

void
AcceleratorTier::onWatchdog(const std::shared_ptr<OffloadState> &state,
                            size_t attemptIndex)
{
    Attempt &attempt = state->attempts[attemptIndex];
    attempt.watchdog = sim::kInvalidTimer;
    if (attempt.completed)
        return; // completion already released the slot
    attempt.timedOut = true;
    size_t replica = attempt.replica;

    ensure(outstanding_[replica] > 0,
           "AcceleratorTier: outstanding underflow");
    --outstanding_[replica];
    ++stats_.watchdogExpiries;
    ++stats_.replicas[replica].failures;
    recordFailure(replica);
    if (health_[replica].state == ReplicaState::Draining &&
        outstanding_[replica] == 0)
        finalizeDrain(replica);

    if (state->settled)
        return; // another arm already answered

    // Failover: re-issue to a different replica, excluding the one
    // that just timed out.
    if (state->failovers >= cfg_.maxFailovers) {
        ++stats_.failoversExhausted;
        return; // the caller's own deadline machinery takes over
    }
    bool isProbe = false;
    size_t next = pickReplica(replica, &isProbe);
    if (next == kNoReplica) {
        ++stats_.failoversExhausted;
        return;
    }
    ++state->failovers;
    ++stats_.failovers;
    issueAttempt(state, next, /*isHedge=*/false, isProbe);
}

void
AcceleratorTier::recordSuccess(size_t replica)
{
    ReplicaHealth &h = health_[replica];
    h.consecutiveFailures = 0;
    if (h.state == ReplicaState::Probing) {
        h.state = ReplicaState::Healthy;
        h.probeInFlight = false;
        ++stats_.readmissions;
        ++stats_.replicas[replica].readmissions;
    }
}

void
AcceleratorTier::recordFailure(size_t replica)
{
    ReplicaHealth &h = health_[replica];
    if (h.state == ReplicaState::Draining ||
        h.state == ReplicaState::Standby) {
        // A scale-down victim is leaving anyway; ejecting it would
        // arm a readmission timer that fights the drain.
        return;
    }
    if (h.state == ReplicaState::Probing) {
        // The probe itself failed: straight back to Ejected.
        h.probeInFlight = false;
        ejectReplica(replica);
        return;
    }
    if (h.state == ReplicaState::Ejected)
        return; // already out; nothing new to decide
    if (++h.consecutiveFailures >= cfg_.ejectAfterFailures)
        ejectReplica(replica);
}

void
AcceleratorTier::ejectReplica(size_t replica)
{
    ReplicaHealth &h = health_[replica];
    h.state = ReplicaState::Ejected;
    h.consecutiveFailures = 0;
    ++stats_.ejections;
    ++stats_.replicas[replica].ejections;
    auto delay = static_cast<sim::Tick>(
        std::llround(cfg_.readmitAfterCycles));
    eq_.scheduleTimerIn(delay, [this, replica]() {
        // Still ejected? Offer one probe. The guard also lets a
        // scale-down win the race: a drained (or since-reactivated)
        // replica is no longer Ejected when this fires, so a stale
        // readmission cannot resurrect parked capacity.
        if (health_[replica].state == ReplicaState::Ejected)
            health_[replica].state = ReplicaState::Probing;
    });
}

} // namespace accel::microsim
