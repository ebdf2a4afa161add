/**
 * @file
 * Tests for the replicated remote-accelerator tier: trivial-tier
 * bit-compatibility, per-replica fault-plan independence, hedge-race
 * settlement, the ejection/readmission state machine, dispatch
 * policies, and config validation.
 */

#include "microsim/tier.hh"

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "faults/fault_plan.hh"
#include "microsim/service_sim.hh"
#include "microsim/service_spec.hh"
#include "util/logging.hh"

namespace accel::microsim {
namespace {

AcceleratorConfig
device(std::shared_ptr<const faults::FaultPlan> plan = nullptr)
{
    AcceleratorConfig dev;
    dev.speedupFactor = 4;
    dev.fixedLatencyCycles = 50;
    dev.latencyCyclesPerByte = 0.1;
    dev.faultPlan = std::move(plan);
    return dev;
}

std::shared_ptr<const faults::FaultPlan>
latePlan(double delayCycles, std::uint64_t seed = 11)
{
    auto plan = std::make_shared<faults::FaultPlan>();
    plan->seed = seed;
    plan->lateProbability = 1.0;
    plan->lateDelayCycles = delayCycles;
    return plan;
}

std::shared_ptr<const faults::FaultPlan>
deadPlan(sim::Tick failAt = 0, sim::Tick recoverAt = faults::kNeverTick)
{
    auto plan = std::make_shared<faults::FaultPlan>();
    plan->deviceFailAtTick = failAt;
    plan->deviceRecoverAtTick = recoverAt;
    return plan;
}

/** Drive @p count offloads at fixed spacing; return completion ticks
 *  indexed by offload number (0 = never completed). */
template <typename Target>
std::vector<sim::Tick>
driveOffloads(sim::EventQueue &eq, Target &target, int count,
              sim::Tick spacing = 200)
{
    std::vector<sim::Tick> completed(count, 0);
    for (int i = 0; i < count; ++i) {
        eq.schedule(i * spacing, [&, i] {
            target.offload(400.0 + i, 100.0 + i,
                           [&eq, &completed, i] {
                               completed[i] = eq.now();
                           });
        });
    }
    eq.runAll();
    return completed;
}

/** Assert @p fn throws FatalError whose message names @p field. */
template <typename Fn>
void
expectFieldNamed(Fn &&fn, const std::string &field)
{
    try {
        fn();
        FAIL() << "expected FatalError naming " << field;
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
            << "message does not name the field: " << e.what();
    }
}

TEST(AcceleratorTier, TrivialTierBitIdenticalToSingleAccelerator)
{
    // One replica, no hedging, no health tracking: the tier must take
    // the exact single-device code path — same completion ticks, same
    // device stats, even under an active fault plan (same draws).
    auto plan = std::make_shared<faults::FaultPlan>();
    plan->seed = 7;
    plan->dropProbability = 0.2;
    plan->lateProbability = 0.3;
    plan->lateDelayCycles = 120;

    sim::EventQueue eqSingle;
    Accelerator single(eqSingle, device(plan));
    auto singleTicks = driveOffloads(eqSingle, single, 64);

    sim::EventQueue eqTier;
    AcceleratorTier tier(eqTier, device(plan), TierConfig{});
    ASSERT_TRUE(TierConfig{}.trivial());
    auto tierTicks = driveOffloads(eqTier, tier, 64);

    EXPECT_EQ(singleTicks, tierTicks);

    const AcceleratorStats &a = single.stats();
    AcceleratorStats b = tier.aggregateDeviceStats();
    EXPECT_EQ(a.served, b.served);
    EXPECT_EQ(a.busyCycles, b.busyCycles);
    EXPECT_EQ(a.maxQueueDepth, b.maxQueueDepth);
    EXPECT_EQ(a.queueWaitCycles.mean(), b.queueWaitCycles.mean());
    EXPECT_EQ(a.serviceCycles.mean(), b.serviceCycles.mean());
    EXPECT_EQ(a.droppedResponses, b.droppedResponses);
    EXPECT_EQ(a.lateResponses, b.lateResponses);

    // The trivial tier never books tier-level activity.
    EXPECT_EQ(tier.stats().offloads, 0u);
    EXPECT_EQ(tier.stats().hedgesIssued, 0u);
    EXPECT_EQ(eqTier.activeTimers(), 0u);
}

TEST(AcceleratorTier, PerReplicaFaultPlansAreIndependent)
{
    // A fault plan on replica 1 must not perturb offloads served by
    // replica 0 in any way: their completion ticks are bit-identical
    // to a run where replica 1 is healthy.
    auto run = [](bool faultReplica1) {
        TierConfig tier;
        tier.replicas = 2;
        tier.policy = DispatchPolicy::RoundRobin;
        tier.replicaFaultPlans = {nullptr,
                                  faultReplica1 ? latePlan(5000)
                                                : nullptr};
        sim::EventQueue eq;
        AcceleratorTier t(eq, device(), tier);
        return driveOffloads(eq, t, 32, /*spacing=*/1000);
    };
    auto faulty = run(true);
    auto healthy = run(false);

    // Round-robin alternates r0, r1, r0, ... — even offloads hit the
    // untouched replica 0.
    for (size_t i = 0; i < faulty.size(); i += 2)
        EXPECT_EQ(faulty[i], healthy[i]) << "offload " << i;
    // And the plan really bites: every replica-1 offload is late.
    for (size_t i = 1; i < faulty.size(); i += 2)
        EXPECT_EQ(faulty[i], healthy[i] + 5000) << "offload " << i;
}

TEST(AcceleratorTier, SharedTemplatePlanIsReseededPerReplica)
{
    // A device-template plan shared across replicas must not fail in
    // lockstep: the same offload slot on different replicas gets
    // independent draws.
    TierConfig tier;
    tier.replicas = 2;
    auto plan = std::make_shared<faults::FaultPlan>();
    plan->seed = 5;
    plan->dropProbability = 0.5;

    sim::EventQueue eq;
    AcceleratorTier t(eq, device(plan), tier);
    auto ticks = driveOffloads(eq, t, 64, /*spacing=*/1000);

    // With lockstep draws, offloads 2k and 2k+1 (slot k on r0 and r1)
    // would drop in identical patterns; independence makes at least one
    // pair diverge (p < 1e-9 for 32 pairs if independent).
    bool diverged = false;
    for (size_t i = 0; i + 1 < ticks.size(); i += 2)
        diverged = diverged || ((ticks[i] == 0) != (ticks[i + 1] == 0));
    EXPECT_TRUE(diverged) << "replica fault draws moved in lockstep";
}

TEST(AcceleratorTier, HedgeWinSettlesAndCountsDuplicate)
{
    // Slow primary, healthy hedge target: the hedge completes first
    // and wins; the primary's eventual completion is a duplicate whose
    // service cycles are charged as wasted work.
    TierConfig tier;
    tier.replicas = 2;
    tier.hedge.enabled = true;
    tier.hedge.delayCycles = 100;
    tier.replicaFaultPlans = {latePlan(10000), nullptr};

    sim::EventQueue eq;
    AcceleratorTier t(eq, device(), tier);
    int completions = 0;
    t.offload(400, 100, [&] { ++completions; });
    eq.runAll();

    EXPECT_EQ(completions, 1); // onComplete fires exactly once
    const TierStats &s = t.stats();
    EXPECT_EQ(s.offloads, 1u);
    EXPECT_EQ(s.hedgesIssued, 1u);
    EXPECT_EQ(s.hedgeWins, 1u);
    EXPECT_EQ(s.hedgeLosses, 0u);
    EXPECT_EQ(s.duplicateCompletions, 1u);
    EXPECT_DOUBLE_EQ(s.wastedServiceCycles, 400.0 / 4.0);
    EXPECT_DOUBLE_EQ(s.usefulServiceCycles, 400.0 / 4.0);
    EXPECT_EQ(s.replicas[0].duplicates, 1u);
    EXPECT_EQ(s.replicas[1].wins, 1u);
    EXPECT_EQ(eq.activeTimers(), 0u);
}

TEST(AcceleratorTier, PrimaryWinAfterHedgeCountsHedgeLoss)
{
    // Primary is slower than the hedge delay but faster than the
    // hedged replica: the primary settles, the hedge arm is the loser.
    TierConfig tier;
    tier.replicas = 2;
    tier.hedge.enabled = true;
    tier.hedge.delayCycles = 100;
    tier.replicaFaultPlans = {latePlan(300), latePlan(10000)};

    sim::EventQueue eq;
    AcceleratorTier t(eq, device(), tier);
    int completions = 0;
    t.offload(400, 100, [&] { ++completions; });
    eq.runAll();

    EXPECT_EQ(completions, 1);
    const TierStats &s = t.stats();
    EXPECT_EQ(s.hedgesIssued, 1u);
    EXPECT_EQ(s.hedgeWins, 0u);
    EXPECT_EQ(s.hedgeLosses, 1u);
    EXPECT_EQ(s.duplicateCompletions, 1u);
    EXPECT_EQ(s.replicas[0].wins, 1u);
    EXPECT_EQ(s.replicas[1].duplicates, 1u);
}

TEST(AcceleratorTier, FastPrimaryCancelsHedgeTimer)
{
    // A completion before the hedge delay must cancel the hedge timer:
    // no duplicate is ever issued and no timer lingers in the queue.
    TierConfig tier;
    tier.replicas = 2;
    tier.hedge.enabled = true;
    tier.hedge.delayCycles = 100000;

    sim::EventQueue eq;
    AcceleratorTier t(eq, device(), tier);
    int completions = 0;
    t.offload(400, 100, [&] { ++completions; });
    eq.runAll();

    EXPECT_EQ(completions, 1);
    EXPECT_EQ(t.stats().hedgesIssued, 0u);
    EXPECT_EQ(t.stats().duplicateCompletions, 0u);
    EXPECT_DOUBLE_EQ(t.stats().wastedServiceCycles, 0.0);
    EXPECT_EQ(eq.activeTimers(), 0u);
    // 60 transfer + 100 service; the cancelled hedge slot at 100000
    // drains silently and never becomes the clock's resting point.
    EXPECT_EQ(eq.now(), 160u);
}

TEST(AcceleratorTier, EjectionReadmissionLifecycle)
{
    // Replica 1 is hard-failed from tick 0 and recovers at 12000.
    // Expected walk: two watchdog failures eject it; the readmit timer
    // offers a probe; the probe fails against the still-dead device and
    // re-ejects; after recovery the next probe succeeds and readmits.
    TierConfig tier;
    tier.replicas = 2;
    tier.policy = DispatchPolicy::RoundRobin;
    tier.healthTimeoutCycles = 1000;
    tier.ejectAfterFailures = 2;
    tier.readmitAfterCycles = 5000;
    tier.replicaFaultPlans = {nullptr, deadPlan(0, 12000)};

    sim::EventQueue eq;
    AcceleratorTier t(eq, device(), tier);
    int completions = 0;
    auto issue = [&](sim::Tick when, int n) {
        eq.schedule(when, [&t, &completions, n] {
            for (int i = 0; i < n; ++i)
                t.offload(400, 100, [&completions] { ++completions; });
        });
    };

    issue(0, 2);    // r0 + r1; r1 watchdog at 1000 -> failure 1
    issue(2000, 2); // r1 watchdog at 3000 -> failure 2 -> ejected
    eq.runUntil(4000);
    EXPECT_TRUE(t.replicaEjected(1));
    EXPECT_EQ(t.stats().ejections, 1u);
    EXPECT_EQ(t.stats().watchdogExpiries, 2u);

    // Readmit timer (3000 + 5000 = 8000) flips r1 to Probing; the next
    // offload becomes its probe and fails against the dead device.
    issue(9000, 1);
    eq.runUntil(11000);
    EXPECT_EQ(t.stats().readmissionProbes, 1u);
    EXPECT_EQ(t.stats().readmissions, 0u);
    EXPECT_EQ(t.stats().ejections, 2u) << "failed probe must re-eject";
    EXPECT_TRUE(t.replicaEjected(1));

    // Device recovers at 12000; readmit timer (10000 + 5000 = 15000)
    // offers another probe, which now succeeds.
    issue(16000, 1);
    eq.runAll();
    EXPECT_EQ(t.stats().readmissionProbes, 2u);
    EXPECT_EQ(t.stats().readmissions, 1u);
    EXPECT_FALSE(t.replicaEjected(1));
    EXPECT_EQ(t.stats().replicas[1].readmissions, 1u);

    // Failover kept every offload alive: nothing was lost to the dead
    // replica from the caller's point of view.
    EXPECT_EQ(completions, 6);
    EXPECT_EQ(t.stats().failovers, 3u);
}

TEST(AcceleratorTier, LateCompletionDoesNotRepairHealth)
{
    // A brown-out replica whose answers limp in after the watchdog must
    // still be ejected — late completions count as wasted work, not as
    // successes.
    TierConfig tier;
    tier.replicas = 2;
    tier.healthTimeoutCycles = 1000;
    tier.ejectAfterFailures = 2;
    tier.readmitAfterCycles = 1e6;
    tier.replicaFaultPlans = {nullptr, latePlan(4000)};

    sim::EventQueue eq;
    AcceleratorTier t(eq, device(), tier);
    int completions = 0;
    for (int i = 0; i < 2; ++i) {
        eq.schedule(i * 2000, [&] {
            t.offload(400, 100, [&completions] { ++completions; });
            t.offload(400, 100, [&completions] { ++completions; });
        });
    }
    eq.runUntil(20000);

    EXPECT_TRUE(t.replicaEjected(1));
    EXPECT_EQ(t.stats().watchdogExpiries, 2u);
    // The late answers did arrive — after settlement via failover — and
    // were booked as duplicates.
    EXPECT_EQ(t.stats().duplicateCompletions, 2u);
    EXPECT_EQ(completions, 4);
}

TEST(AcceleratorTier, LeastOutstandingPicksIdleReplica)
{
    TierConfig tier;
    tier.replicas = 2;
    tier.policy = DispatchPolicy::LeastOutstanding;

    sim::EventQueue eq;
    AcceleratorTier t(eq, device(), tier);
    // Same tick, no completions yet: ties keep the lowest index, then
    // the load-balancing kicks in.
    t.offload(400, 100, [] {});
    EXPECT_EQ(t.outstanding(0), 1u);
    EXPECT_EQ(t.outstanding(1), 0u);
    t.offload(400, 100, [] {});
    EXPECT_EQ(t.outstanding(1), 1u);
    t.offload(400, 100, [] {});
    EXPECT_EQ(t.outstanding(0), 2u);
    EXPECT_EQ(t.outstanding(1), 1u);
    eq.runAll();
    EXPECT_EQ(t.outstanding(0), 0u);
    EXPECT_EQ(t.outstanding(1), 0u);
}

TEST(AcceleratorTier, PowerOfTwoChoicesReplaysDeterministically)
{
    auto run = [] {
        TierConfig tier;
        tier.replicas = 4;
        tier.policy = DispatchPolicy::PowerOfTwoChoices;
        tier.seed = 42;
        sim::EventQueue eq;
        AcceleratorTier t(eq, device(), tier);
        return driveOffloads(eq, t, 64, /*spacing=*/70);
    };
    EXPECT_EQ(run(), run());
}

TEST(AcceleratorTier, ValidationNamesTheField)
{
    expectFieldNamed(
        [] {
            TierConfig t;
            t.replicas = 0;
            t.validate();
        },
        "replicas");
    expectFieldNamed(
        [] {
            TierConfig t;
            t.replicas = 2;
            t.hedge.enabled = true;
            t.hedge.delayCycles = 0;
            t.validate();
        },
        "delayCycles");
    expectFieldNamed(
        [] {
            TierConfig t;
            t.hedge.delayCycles = 10; // set but not enabled
            t.validate();
        },
        "delayCycles");
    expectFieldNamed(
        [] {
            TierConfig t;
            t.ejectAfterFailures = 0;
            t.validate();
        },
        "ejectAfterFailures");
    expectFieldNamed(
        [] {
            TierConfig t;
            t.replicas = 1; // nowhere to hedge to
            t.hedge.enabled = true;
            t.hedge.delayCycles = 10;
            t.validate();
        },
        "hedge");
    expectFieldNamed(
        [] {
            TierConfig t;
            t.readmitAfterCycles = 0;
            t.validate();
        },
        "readmitAfterCycles");
}

TEST(AcceleratorTier, HedgedSyncDesignRejected)
{
    // The Sync design blocks its only driver on the offload — a hedge
    // cannot help it, so the combination is a config error, not a
    // silent no-op.
    TierConfig tier;
    tier.replicas = 2;
    tier.hedge.enabled = true;
    tier.hedge.delayCycles = 1000;

    ServiceConfig svc;
    svc.cores = 1;
    svc.threads = 1;
    svc.design = model::ThreadingDesign::Sync;
    svc.clockGHz = 1.0;

    WorkloadSpec w;
    w.nonKernelCyclesMean = 4000;
    w.kernelsPerRequest = 1;
    w.granularity = std::make_shared<const BucketDist>(
        std::vector<DistBucket>{{500, 501, 1.0}});
    w.cyclesPerByte = 2.0;

    // The check now lives in ServiceSpec::validate so graph assembly
    // can report every offending node at once; construction still
    // throws because it validates the spec.
    ServiceSpec spec = ServiceSpec("hedged-sync")
                           .service(svc)
                           .accelerator(device())
                           .tier(tier)
                           .workload(w)
                           .seed(1);
    EXPECT_EQ(spec.errors().size(), 1u);
    EXPECT_NE(spec.errors().front().find("hedge"), std::string::npos);
    EXPECT_THROW(spec.validate(), FatalError);
    EXPECT_THROW(ServiceSim{spec}, FatalError);
    spec.service().design = model::ThreadingDesign::AsyncSameThread;
    EXPECT_TRUE(spec.errors().empty());
    EXPECT_NO_THROW(ServiceSim{spec});
}

// --------------------------------------------------------------------
// Dynamic capacity: setActiveReplicas / drain / standby lifecycle
// --------------------------------------------------------------------

TEST(AcceleratorTier, SetActiveReplicasValidation)
{
    sim::EventQueue eq;
    TierConfig two;
    two.replicas = 2;
    AcceleratorTier t(eq, device(), two);
    EXPECT_THROW(t.setActiveReplicas(0), FatalError);
    EXPECT_THROW(t.setActiveReplicas(3), FatalError);

    AcceleratorTier trivial(eq, device(), TierConfig{});
    EXPECT_THROW(trivial.setActiveReplicas(1), FatalError);
}

TEST(AcceleratorTier, ScaleDownDrainsInFlightOffloads)
{
    // The victim has an offload in flight when it is descheduled: it
    // must stay provisioned (Draining) until the completion lands,
    // deliver that completion, then park in Standby — and never take a
    // new dispatch while draining.
    TierConfig tier;
    tier.replicas = 2;
    tier.policy = DispatchPolicy::LeastOutstanding;

    sim::EventQueue eq;
    AcceleratorTier t(eq, device(), tier);
    int completions = 0;
    t.offload(400, 100, [&] { ++completions; }); // -> r0
    t.offload(400, 100, [&] { ++completions; }); // -> r1

    eq.schedule(50, [&] { // both offloads complete at tick 160
        t.setActiveReplicas(1);
        EXPECT_TRUE(t.replicaDraining(1));
        EXPECT_FALSE(t.replicaStandby(1));
        EXPECT_EQ(t.provisionedReplicaCount(), 2u);
        EXPECT_EQ(t.activeReplicaCount(), 1u);
        // New work while r1 drains must route to r0 despite its load.
        t.offload(400, 100, [&] { ++completions; });
        EXPECT_EQ(t.outstanding(0), 2u);
        EXPECT_EQ(t.outstanding(1), 1u);
    });
    eq.runAll();

    EXPECT_EQ(completions, 3); // the drained replica still answered
    EXPECT_FALSE(t.replicaDraining(1));
    EXPECT_TRUE(t.replicaStandby(1));
    EXPECT_EQ(t.provisionedReplicaCount(), 1u);
    EXPECT_EQ(t.stats().drainsStarted, 1u);
    EXPECT_EQ(t.stats().drainsCompleted, 1u);
    EXPECT_EQ(eq.activeTimers(), 0u);
}

TEST(AcceleratorTier, ScaleDownSettlesRacingHedge)
{
    // A hedge lands on the victim while it drains: the hedge attempt
    // must settle (and may win) before the replica parks; the drain
    // completes cleanly with no timers left behind.
    TierConfig tier;
    tier.replicas = 2;
    tier.hedge.enabled = true;
    tier.hedge.delayCycles = 100;
    tier.replicaFaultPlans = {latePlan(10000), nullptr};

    sim::EventQueue eq;
    AcceleratorTier t(eq, device(), tier);
    int completions = 0;
    t.offload(400, 100, [&] { ++completions; }); // slow primary on r0
    // t=100: hedge issues to r1. t=150: r1 becomes the scale-down
    // victim with the hedge attempt still in flight.
    eq.schedule(150, [&] {
        t.setActiveReplicas(1);
        EXPECT_TRUE(t.replicaDraining(1));
        EXPECT_EQ(t.outstanding(1), 1u);
    });
    eq.runAll();

    EXPECT_EQ(completions, 1);
    EXPECT_EQ(t.stats().hedgesIssued, 1u);
    EXPECT_EQ(t.stats().hedgeWins, 1u); // r0's answer limped in late
    EXPECT_TRUE(t.replicaStandby(1));
    EXPECT_EQ(t.stats().drainsCompleted, 1u);
    EXPECT_EQ(eq.activeTimers(), 0u);
}

TEST(AcceleratorTier, ScaleDownWinsRaceWithPendingReadmission)
{
    // r1 is ejected with its readmission timer pending when the
    // autoscaler drains it. The stale timer must not resurrect the
    // parked replica as Probing — scaled-down capacity stays down.
    TierConfig tier;
    tier.replicas = 2;
    tier.policy = DispatchPolicy::RoundRobin;
    tier.healthTimeoutCycles = 1000;
    tier.ejectAfterFailures = 2;
    tier.readmitAfterCycles = 5000;
    tier.replicaFaultPlans = {nullptr, deadPlan(0)};

    sim::EventQueue eq;
    AcceleratorTier t(eq, device(), tier);
    int completions = 0;
    auto issue = [&](sim::Tick when, int n) {
        eq.schedule(when, [&t, &completions, n] {
            for (int i = 0; i < n; ++i)
                t.offload(400, 100, [&completions] { ++completions; });
        });
    };
    issue(0, 2);    // r1 watchdog failure 1 at tick 1000
    issue(2000, 2); // failure 2 at 3000 -> ejected, readmit at 8000
    eq.schedule(4000, [&] {
        ASSERT_TRUE(t.replicaEjected(1));
        t.setActiveReplicas(1); // ejected victim drains instantly
        EXPECT_TRUE(t.replicaStandby(1));
    });
    issue(9000, 1); // after the stale readmit timer fired
    eq.runAll();

    // The readmit timer found r1 no longer Ejected and left it parked:
    // no probe was ever offered, no readmission happened.
    EXPECT_TRUE(t.replicaStandby(1));
    EXPECT_EQ(t.stats().readmissionProbes, 0u);
    EXPECT_EQ(t.stats().readmissions, 0u);
    EXPECT_EQ(t.stats().drainsCompleted, 1u);
    EXPECT_EQ(completions, 5); // failover kept every offload alive
}

TEST(AcceleratorTier, ScaleUpReactivatesStandbyWithFreshHealth)
{
    // Park r1 via a drain, then grow again: the replica returns as a
    // dispatch candidate with reset health, and the round trip is
    // visible in the activation/drain counters.
    TierConfig tier;
    tier.replicas = 2;
    tier.policy = DispatchPolicy::LeastOutstanding;

    sim::EventQueue eq;
    AcceleratorTier t(eq, device(), tier);
    t.setActiveReplicas(1);
    EXPECT_TRUE(t.replicaStandby(1));
    EXPECT_EQ(t.activeReplicaCount(), 1u);
    t.setActiveReplicas(2);
    EXPECT_FALSE(t.replicaStandby(1));
    EXPECT_EQ(t.activeReplicaCount(), 2u);
    EXPECT_EQ(t.stats().activations, 1u);

    int completions = 0;
    t.offload(400, 100, [&] { ++completions; });
    t.offload(400, 100, [&] { ++completions; });
    EXPECT_EQ(t.outstanding(1), 1u); // reactivated and dispatchable
    eq.runAll();
    EXPECT_EQ(completions, 2);
}

TEST(AcceleratorTier, GrowReactivatesDrainingVictimInPlace)
{
    // Scale down with work in flight, then scale back up before the
    // drain settles: the draining replica is reactivated where it
    // stands (it is warm), not parked and re-woken.
    TierConfig tier;
    tier.replicas = 2;
    tier.policy = DispatchPolicy::LeastOutstanding;

    sim::EventQueue eq;
    AcceleratorTier t(eq, device(), tier);
    int completions = 0;
    t.offload(400, 100, [&] { ++completions; });
    t.offload(400, 100, [&] { ++completions; });
    eq.schedule(50, [&] {
        t.setActiveReplicas(1);
        EXPECT_TRUE(t.replicaDraining(1));
        t.setActiveReplicas(2);
        EXPECT_FALSE(t.replicaDraining(1));
        EXPECT_FALSE(t.replicaStandby(1));
    });
    eq.runAll();
    EXPECT_EQ(completions, 2);
    EXPECT_EQ(t.stats().drainsStarted, 1u);
    EXPECT_EQ(t.stats().drainsCompleted, 0u); // reactivated mid-drain
    EXPECT_EQ(t.stats().activations, 1u);
}

TEST(AcceleratorTier, ProvisionedReplicaCyclesBillsDrainsNotStandby)
{
    // 2 replicas for 1000 cycles, then r1 parks (idle, instant drain):
    // the integral is 2*1000 + 1*rest — standby is free, and the
    // accounting is finalized by snapshot() at read time.
    TierConfig tier;
    tier.replicas = 2;

    sim::EventQueue eq;
    AcceleratorTier t(eq, device(), tier);
    eq.schedule(1000, [&] { t.setActiveReplicas(1); });
    eq.schedule(3000, [] {});
    eq.runAll();
    EXPECT_DOUBLE_EQ(t.snapshot().provisionedReplicaCycles,
                     2.0 * 1000 + 1.0 * 2000);

    // resetStats restarts the integral at the reset tick.
    t.resetStats();
    eq.schedule(5000, [] {});
    eq.runAll();
    EXPECT_DOUBLE_EQ(t.snapshot().provisionedReplicaCycles, 1.0 * 2000);
}

} // namespace
} // namespace accel::microsim
