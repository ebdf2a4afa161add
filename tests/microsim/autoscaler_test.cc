/**
 * @file
 * Tests for the SLO-driven autoscaler: config parsing/validation, the
 * vote/hysteresis/cooldown control loop against a live tier, capacity
 * bounds, and the brown-out admission gate.
 */

#include "microsim/autoscaler.hh"

#include <string>

#include <gtest/gtest.h>

#include "config/config.hh"
#include "microsim/tier.hh"
#include "util/logging.hh"

namespace accel::microsim {
namespace {

AcceleratorConfig
device()
{
    AcceleratorConfig dev;
    dev.speedupFactor = 4;
    dev.fixedLatencyCycles = 50;
    dev.latencyCyclesPerByte = 0.1;
    return dev;
}

TierConfig
tierOf(std::uint32_t replicas)
{
    TierConfig t;
    t.replicas = replicas;
    t.policy = DispatchPolicy::LeastOutstanding;
    return t;
}

/** Enabled 4-replica control loop: 1000-cycle windows, SLO p99 = 100. */
AutoscalerConfig
controlCfg()
{
    AutoscalerConfig cfg;
    cfg.enabled = true;
    cfg.intervalCycles = 1000;
    cfg.sloLatencyCycles = 100;
    cfg.minReplicas = 1;
    cfg.maxReplicas = 4;
    cfg.upWindows = 1;
    cfg.downWindows = 3;
    return cfg;
}

/** Tier + autoscaler on one queue, ready to drive window signals. */
struct Harness
{
    sim::EventQueue eq;
    AcceleratorTier tier;
    Autoscaler scaler;

    explicit Harness(const AutoscalerConfig &cfg,
                     std::uint32_t queueBound = 0,
                     std::uint32_t replicas = 4)
        : tier(eq, device(), tierOf(replicas)),
          scaler(eq, tier, cfg, queueBound)
    {
    }

    /** Feed @p n latency samples shortly before window @p w's tick. */
    void feedWindow(int w, double latency, int n = 50)
    {
        eq.schedule(w * 1000 + 500, [this, latency, n]() {
            for (int i = 0; i < n; ++i)
                scaler.observeLatency(latency);
        });
    }

    void shedInWindow(int w, int n = 1)
    {
        eq.schedule(w * 1000 + 500, [this, n]() {
            for (int i = 0; i < n; ++i)
                scaler.noteShed();
        });
    }

    void run(sim::Tick end)
    {
        scaler.start(end);
        eq.runUntil(end);
    }
};

TEST(AutoscalerConfig, ValidateNamesOffendingField)
{
    auto expectNamed = [](AutoscalerConfig cfg, const std::string &f) {
        try {
            cfg.validate();
            FAIL() << "expected FatalError naming " << f;
        } catch (const FatalError &e) {
            EXPECT_NE(std::string(e.what()).find(f), std::string::npos)
                << "message does not name the field: " << e.what();
        }
    };
    AutoscalerConfig cfg = controlCfg();
    cfg.intervalCycles = 0;
    expectNamed(cfg, "intervalCycles");
    cfg = controlCfg();
    cfg.sloLatencyCycles = 0;
    expectNamed(cfg, "sloLatencyCycles");
    cfg = controlCfg();
    cfg.scaleDownPressure = cfg.scaleUpPressure;
    expectNamed(cfg, "scaleDownPressure");
    cfg = controlCfg();
    cfg.upWindows = 0;
    expectNamed(cfg, "upWindows");
    cfg = controlCfg();
    cfg.downWindows = 0;
    expectNamed(cfg, "downWindows");
    cfg = controlCfg();
    cfg.cooldownCycles = -1;
    expectNamed(cfg, "cooldownCycles");
    cfg = controlCfg();
    cfg.minReplicas = 0;
    expectNamed(cfg, "minReplicas");
    cfg = controlCfg();
    cfg.maxReplicas = 0;
    expectNamed(cfg, "maxReplicas");
    cfg = controlCfg();
    cfg.scaleStep = 0;
    expectNamed(cfg, "scaleStep");
    cfg = controlCfg();
    cfg.brownoutFloor = 0;
    expectNamed(cfg, "brownoutFloor");
    cfg = controlCfg();
    cfg.brownoutTighten = 1.0;
    expectNamed(cfg, "brownoutTighten");
    cfg = controlCfg();
    cfg.brownoutRelax = 1.0;
    expectNamed(cfg, "brownoutRelax");
    cfg = controlCfg();
    cfg.enabled = false;
    cfg.brownout = true;
    expectNamed(cfg, "brownout");
    cfg = controlCfg();
    cfg.scaleUpPressure = 0.0;
    expectNamed(cfg, "scaleUpPressure");
}

TEST(AutoscalerConfig, FromConfigDefaultsDisabled)
{
    Config cfg = Config::fromString("[svc]\ncores = 1\n");
    AutoscalerConfig a = autoscalerFromConfig(cfg, "svc");
    EXPECT_FALSE(a.enabled);
    EXPECT_FALSE(a.brownout);
}

TEST(AutoscalerConfig, FromConfigParsesAllKeys)
{
    Config cfg = Config::fromString(
        "[svc]\n"
        "scale_interval = 2e6\n"
        "scale_slo_p99 = 1.2e5\n"
        "scale_up_pressure = 0.85\n"
        "scale_down_pressure = 0.4\n"
        "scale_up_windows = 2\n"
        "scale_down_windows = 5\n"
        "scale_cooldown = 4e6\n"
        "scale_min_replicas = 2\n"
        "scale_max_replicas = 8\n"
        "scale_step = 2\n"
        "scale_brownout_floor = 6\n"
        "scale_brownout_tighten = 0.25\n"
        "scale_brownout_relax = 3\n");
    AutoscalerConfig a = autoscalerFromConfig(cfg, "svc");
    EXPECT_TRUE(a.enabled);
    EXPECT_DOUBLE_EQ(a.intervalCycles, 2e6);
    EXPECT_DOUBLE_EQ(a.sloLatencyCycles, 1.2e5);
    EXPECT_DOUBLE_EQ(a.scaleUpPressure, 0.85);
    EXPECT_DOUBLE_EQ(a.scaleDownPressure, 0.4);
    EXPECT_EQ(a.upWindows, 2u);
    EXPECT_EQ(a.downWindows, 5u);
    EXPECT_DOUBLE_EQ(a.cooldownCycles, 4e6);
    EXPECT_EQ(a.minReplicas, 2u);
    EXPECT_EQ(a.maxReplicas, 8u);
    EXPECT_EQ(a.scaleStep, 2u);
    EXPECT_TRUE(a.brownout);
    EXPECT_EQ(a.brownoutFloor, 6u);
    EXPECT_DOUBLE_EQ(a.brownoutTighten, 0.25);
    EXPECT_DOUBLE_EQ(a.brownoutRelax, 3.0);
}

TEST(AutoscalerConfig, FromConfigRejectsNonCountValues)
{
    for (const char *line :
         {"scale_step = -1", "scale_up_windows = 1.5",
          "scale_min_replicas = nan", "scale_max_replicas = -4",
          "scale_brownout_floor = 2.5"}) {
        Config cfg =
            Config::fromString(std::string("[svc]\n") + line + "\n");
        EXPECT_THROW(autoscalerFromConfig(cfg, "svc"), FatalError)
            << line;
    }
}

TEST(AutoscalerConfig, FromConfigRequiresSloWithInterval)
{
    Config cfg = Config::fromString("[svc]\nscale_interval = 1e6\n");
    EXPECT_THROW(autoscalerFromConfig(cfg, "svc"), FatalError);
}

TEST(Autoscaler, CtorRejectsOverProvisionedMax)
{
    sim::EventQueue eq;
    AcceleratorTier tier(eq, device(), tierOf(2));
    AutoscalerConfig cfg = controlCfg(); // maxReplicas = 4 > 2
    EXPECT_THROW(Autoscaler(eq, tier, cfg, 0), FatalError);
}

TEST(Autoscaler, CtorRejectsBrownoutWithoutQueueBound)
{
    sim::EventQueue eq;
    AcceleratorTier tier(eq, device(), tierOf(4));
    AutoscalerConfig cfg = controlCfg();
    cfg.brownout = true;
    EXPECT_THROW(Autoscaler(eq, tier, cfg, 0), FatalError);
    cfg.brownoutFloor = 64;
    EXPECT_THROW(Autoscaler(eq, tier, cfg, 8), FatalError);
}

TEST(Autoscaler, StartAppliesMinReplicas)
{
    Harness h(controlCfg());
    EXPECT_EQ(h.tier.activeReplicaCount(), 4u);
    h.run(500); // no control tick yet
    EXPECT_EQ(h.scaler.activeTarget(), 1u);
    EXPECT_EQ(h.tier.activeReplicaCount(), 1u);
    // Idle victims drain instantly to standby.
    EXPECT_EQ(h.tier.provisionedReplicaCount(), 1u);
}

TEST(Autoscaler, ScalesUpUnderSustainedBreach)
{
    Harness h(controlCfg());
    for (int w = 0; w < 6; ++w)
        h.feedWindow(w, 150.0); // p99 well over the 100-cycle budget
    h.run(6000);
    EXPECT_EQ(h.scaler.activeTarget(), 4u);
    EXPECT_EQ(h.tier.activeReplicaCount(), 4u);
    EXPECT_EQ(h.scaler.stats().scaleUps, 3u);
    EXPECT_GE(h.scaler.stats().upBlocked, 1u); // wanted more, at cap
    EXPECT_GE(h.scaler.stats().breachWindows, 4u);
    EXPECT_EQ(h.scaler.stats().maxReplicasObserved, 4u);
    EXPECT_EQ(h.scaler.stats().finalReplicas, 4u);
    // The capacity bill reflects the ramp: strictly between always-1
    // and always-4 replicas over the run.
    double bill = h.tier.snapshot().provisionedReplicaCycles;
    EXPECT_GT(bill, 1.0 * 6000);
    EXPECT_LT(bill, 4.0 * 6000);
}

TEST(Autoscaler, ScaleDownNeedsConsecutiveQuietWindows)
{
    AutoscalerConfig cfg = controlCfg();
    cfg.minReplicas = 1;
    cfg.maxReplicas = 4;
    Harness h(cfg);
    // Windows 0-1: breach up to 3 replicas. Then quiet windows with a
    // breach interrupting the streak: votes must reset.
    h.feedWindow(0, 150.0);
    h.feedWindow(1, 150.0);
    h.feedWindow(2, 10.0);
    h.feedWindow(3, 10.0);
    h.feedWindow(4, 150.0); // streak broken (and an up-vote)
    h.feedWindow(5, 10.0);
    h.feedWindow(6, 10.0);
    h.feedWindow(7, 10.0); // third consecutive quiet window: act
    h.run(8000);
    EXPECT_EQ(h.scaler.stats().scaleUps, 3u);
    EXPECT_EQ(h.scaler.stats().scaleDowns, 1u);
    EXPECT_EQ(h.scaler.activeTarget(), 3u);
    EXPECT_LE(h.tier.activeReplicaCount(), 3u);
    EXPECT_EQ(h.scaler.stats().minReplicasObserved, 1u);
}

TEST(Autoscaler, EmptyWindowIsNoVote)
{
    // No samples and no sheds: neither direction moves (an idle
    // service must not be scaled on zero information).
    Harness h(controlCfg());
    h.run(5000);
    EXPECT_EQ(h.scaler.stats().controlWindows, 5u);
    EXPECT_EQ(h.scaler.stats().scaleUps, 0u);
    EXPECT_EQ(h.scaler.stats().scaleDowns, 0u);
    EXPECT_EQ(h.scaler.stats().downBlocked, 0u);
}

TEST(Autoscaler, ShedAloneVotesUp)
{
    Harness h(controlCfg());
    h.shedInWindow(0, 3);
    h.run(2000);
    EXPECT_EQ(h.scaler.stats().scaleUps, 1u);
    EXPECT_EQ(h.scaler.activeTarget(), 2u);
}

TEST(Autoscaler, DeepQueueVotesUpBeforeLatencyCatchesUp)
{
    Harness h(controlCfg(), /*queueBound=*/64);
    h.eq.schedule(500, [&h]() {
        h.scaler.noteQueueDepth(40); // past half the static bound
    });
    h.run(2000);
    EXPECT_EQ(h.scaler.stats().scaleUps, 1u);
}

TEST(Autoscaler, CooldownSpacesActions)
{
    AutoscalerConfig cfg = controlCfg();
    cfg.cooldownCycles = 2500;
    Harness h(cfg);
    for (int w = 0; w < 5; ++w)
        h.feedWindow(w, 150.0);
    h.run(5000);
    // Actions at ticks 1000 and 4000 only; 2000/3000 are cooling down.
    EXPECT_EQ(h.scaler.stats().scaleUps, 2u);
    EXPECT_EQ(h.scaler.activeTarget(), 3u);
}

TEST(Autoscaler, DownBlockedAtFloor)
{
    Harness h(controlCfg());
    for (int w = 0; w < 4; ++w)
        h.feedWindow(w, 10.0); // quiet from the start, already at min
    h.run(4000);
    EXPECT_EQ(h.scaler.stats().scaleDowns, 0u);
    EXPECT_GE(h.scaler.stats().downBlocked, 1u);
    EXPECT_EQ(h.scaler.activeTarget(), 1u);
}

TEST(Autoscaler, BrownoutTightensToFloorAndRelaxesBack)
{
    AutoscalerConfig cfg = controlCfg();
    cfg.brownout = true;
    cfg.brownoutFloor = 4;
    cfg.brownoutTighten = 0.5;
    cfg.brownoutRelax = 2.0;
    Harness h(cfg, /*queueBound=*/64);
    EXPECT_EQ(h.scaler.admissionLimit(), 64u);
    // Five shedding windows: 64 -> 32 -> 16 -> 8 -> 4, then pinned.
    for (int w = 0; w < 5; ++w)
        h.shedInWindow(w);
    // Then healthy windows: 4 -> 8 -> 16 -> 32 -> 64, then capped.
    for (int w = 5; w < 11; ++w)
        h.feedWindow(w, 10.0);
    h.run(11000);
    EXPECT_EQ(h.scaler.admissionLimit(), 64u);
    EXPECT_EQ(h.scaler.stats().admissionTightenings, 4u);
    EXPECT_EQ(h.scaler.stats().admissionRelaxations, 4u);
}

TEST(Autoscaler, BrownoutFloorHoldsUnderSustainedPressure)
{
    AutoscalerConfig cfg = controlCfg();
    cfg.brownout = true;
    cfg.brownoutFloor = 4;
    Harness h(cfg, /*queueBound=*/8);
    for (int w = 0; w < 6; ++w)
        h.shedInWindow(w, 10);
    h.run(6000);
    EXPECT_EQ(h.scaler.admissionLimit(), 4u);
}

TEST(Autoscaler, ResetStatsPreservesControlState)
{
    Harness h(controlCfg());
    h.feedWindow(0, 150.0);
    h.feedWindow(1, 150.0); // grown to 3 replicas by tick 2000
    h.eq.schedule(3500, [&h]() { h.scaler.resetStats(); });
    h.eq.schedule(3600, [&h]() {
        for (int i = 0; i < 50; ++i)
            h.scaler.observeLatency(150.0);
    });
    h.run(5000);
    // Counters restarted at the reset (end of warmup), but the replica
    // target carried across it: 2 grows before, 1 after.
    EXPECT_EQ(h.scaler.activeTarget(), 4u);
    EXPECT_EQ(h.scaler.stats().scaleUps, 1u);
    EXPECT_EQ(h.scaler.stats().minReplicasObserved, 3u);
    EXPECT_EQ(h.scaler.stats().maxReplicasObserved, 4u);
}

TEST(Autoscaler, StatsReportEveryCounter)
{
    Harness h(controlCfg());
    h.feedWindow(0, 150.0);
    h.run(2000);
    std::string json = h.scaler.stats().summaryJson();
    for (const char *key :
         {"control_windows", "scale_ups", "scale_downs", "up_blocked",
          "down_blocked", "breach_windows", "admission_tightenings",
          "admission_relaxations", "window_p99_cycles",
          "merged_p99_cycles", "final_replicas",
          "min_replicas_observed", "max_replicas_observed"}) {
        EXPECT_NE(json.find(key), std::string::npos)
            << "summaryJson missing " << key;
    }
}

TEST(Autoscaler, MergedP99SeesBurstAcrossWindows)
{
    // One bad window among many quiet ones: the merged p99 keeps the
    // burst visible while most window p99s are small.
    Harness h(controlCfg());
    for (int w = 0; w < 9; ++w)
        h.feedWindow(w, 10.0, 11);
    h.feedWindow(9, 190.0, 100);
    h.run(10000);
    EXPECT_GT(h.scaler.stats().mergedP99Cycles, 150.0);
    EXPECT_LT(h.scaler.stats().windowP99Cycles.min(), 20.0);
}

} // namespace
} // namespace accel::microsim
