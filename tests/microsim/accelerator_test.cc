/** @file Tests for the accelerator device model. */

#include "microsim/accelerator.hh"

#include <limits>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "util/logging.hh"

namespace accel::microsim {
namespace {

TEST(Accelerator, ConfigValidation)
{
    AcceleratorConfig bad;
    bad.speedupFactor = 0.5;
    EXPECT_THROW(bad.validate(), FatalError);
    bad = AcceleratorConfig{};
    bad.channels = 0;
    EXPECT_THROW(bad.validate(), FatalError);
    bad = AcceleratorConfig{};
    bad.fixedLatencyCycles = -1;
    EXPECT_THROW(bad.validate(), FatalError);
}

TEST(Accelerator, TransferCyclesLinearInBytes)
{
    sim::EventQueue eq;
    AcceleratorConfig cfg;
    cfg.fixedLatencyCycles = 100;
    cfg.latencyCyclesPerByte = 2;
    Accelerator dev(eq, cfg);
    EXPECT_DOUBLE_EQ(dev.transferCycles(0), 100);
    EXPECT_DOUBLE_EQ(dev.transferCycles(50), 200);
}

TEST(Accelerator, ServiceTimeDividedBySpeedup)
{
    sim::EventQueue eq;
    AcceleratorConfig cfg;
    cfg.speedupFactor = 4;
    Accelerator dev(eq, cfg);
    sim::Tick done = 0;
    dev.offload(1000, 0, [&](bool) { done = eq.now(); });
    eq.runAll();
    EXPECT_EQ(done, 250u);
}

TEST(Accelerator, TransferDelaysArrival)
{
    sim::EventQueue eq;
    AcceleratorConfig cfg;
    cfg.speedupFactor = 2;
    cfg.fixedLatencyCycles = 300;
    Accelerator dev(eq, cfg);
    sim::Tick done = 0;
    dev.offload(1000, 0, [&](bool) { done = eq.now(); });
    eq.runAll();
    EXPECT_EQ(done, 300u + 500u);
}

TEST(Accelerator, HostPaidTransferSkipsDeviceDelay)
{
    sim::EventQueue eq;
    AcceleratorConfig cfg;
    cfg.speedupFactor = 2;
    cfg.fixedLatencyCycles = 300;
    Accelerator dev(eq, cfg);
    sim::Tick done = 0;
    dev.offload(1000, 0, [&](bool) { done = eq.now(); },
                /*transferPaidByHost=*/true);
    eq.runAll();
    EXPECT_EQ(done, 500u);
}

TEST(Accelerator, SingleChannelSerializesOffloads)
{
    sim::EventQueue eq;
    AcceleratorConfig cfg;
    cfg.speedupFactor = 1;
    Accelerator dev(eq, cfg);
    std::vector<sim::Tick> done;
    for (int i = 0; i < 3; ++i)
        dev.offload(100, 0, [&](bool) { done.push_back(eq.now()); });
    eq.runAll();
    ASSERT_EQ(done.size(), 3u);
    EXPECT_EQ(done[0], 100u);
    EXPECT_EQ(done[1], 200u);
    EXPECT_EQ(done[2], 300u);
    // Queue waits: 0, 100, 200 -> mean 100. The first offload is
    // dequeued the instant it arrives, so at most two wait at once.
    EXPECT_NEAR(dev.stats().queueWaitCycles.mean(), 100.0, 1e-9);
    EXPECT_EQ(dev.stats().maxQueueDepth, 2u);
}

TEST(Accelerator, MultipleChannelsServeInParallel)
{
    sim::EventQueue eq;
    AcceleratorConfig cfg;
    cfg.channels = 3;
    Accelerator dev(eq, cfg);
    std::vector<sim::Tick> done;
    for (int i = 0; i < 3; ++i)
        dev.offload(100, 0, [&](bool) { done.push_back(eq.now()); });
    eq.runAll();
    for (sim::Tick t : done)
        EXPECT_EQ(t, 100u);
    EXPECT_DOUBLE_EQ(dev.stats().queueWaitCycles.mean(), 0.0);
}

TEST(Accelerator, StatsAccumulateAndReset)
{
    sim::EventQueue eq;
    AcceleratorConfig cfg;
    cfg.speedupFactor = 2;
    Accelerator dev(eq, cfg);
    dev.offload(1000, 0, [](bool) {});
    eq.runAll();
    EXPECT_EQ(dev.stats().served, 1u);
    EXPECT_DOUBLE_EQ(dev.stats().busyCycles, 500);
    dev.resetStats();
    EXPECT_EQ(dev.stats().served, 0u);
    EXPECT_DOUBLE_EQ(dev.stats().busyCycles, 0);
}

TEST(Accelerator, RejectsNegativeWork)
{
    sim::EventQueue eq;
    Accelerator dev(eq, AcceleratorConfig{});
    EXPECT_THROW(dev.offload(-1, 0, [](bool) {}), FatalError);
    EXPECT_THROW(dev.offload(1, -1, [](bool) {}), FatalError);
}

TEST(Accelerator, ValidationNamesTheOffendingField)
{
    AcceleratorConfig bad;
    bad.channels = 0;
    try {
        bad.validate();
        FAIL() << "channels = 0 accepted";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("channels"),
                  std::string::npos);
    }
}

TEST(Accelerator, ValidationRejectsNonFiniteValues)
{
    AcceleratorConfig bad;
    bad.speedupFactor = std::numeric_limits<double>::quiet_NaN();
    EXPECT_THROW(bad.validate(), FatalError);
    bad = AcceleratorConfig{};
    bad.latencyCyclesPerByte =
        std::numeric_limits<double>::infinity();
    EXPECT_THROW(bad.validate(), FatalError);
    bad = AcceleratorConfig{};
    bad.latencyCyclesPerByte = -0.5;
    EXPECT_THROW(bad.validate(), FatalError);
}

TEST(Accelerator, ValidationCoversTheFaultPlan)
{
    AcceleratorConfig cfg;
    auto plan = std::make_shared<faults::FaultPlan>();
    plan->dropProbability = 2.0;
    cfg.faultPlan = plan;
    EXPECT_THROW(cfg.validate(), FatalError);
}

/** Outcomes one offload reported: how often, and the last one. */
struct Outcomes
{
    int calls = 0;
    bool delivered = false;
    sim::Tick at = 0;
};

/** An outcome callback that records into @p out. */
OffloadCallback
recordInto(sim::EventQueue &eq, Outcomes &out)
{
    return [&eq, &out](bool delivered) {
        ++out.calls;
        out.delivered = delivered;
        out.at = eq.now();
    };
}

TEST(Accelerator, DroppedResponseServesAndReportsLoss)
{
    sim::EventQueue eq;
    AcceleratorConfig cfg;
    auto plan = std::make_shared<faults::FaultPlan>();
    plan->dropProbability = 1.0;
    cfg.faultPlan = plan;
    Accelerator dev(eq, cfg);
    Outcomes fired;
    dev.offload(100, 0, recordInto(eq, fired));
    eq.runAll();
    EXPECT_EQ(fired.calls, 1);
    EXPECT_FALSE(fired.delivered);
    EXPECT_EQ(fired.at, 100u); // lost when service ends
    EXPECT_EQ(dev.stats().served, 1u);
    EXPECT_EQ(dev.stats().droppedResponses, 1u);
    EXPECT_EQ(dev.liveRecords(), 0u);
}

TEST(Accelerator, LateResponseDelaysTheCallback)
{
    sim::EventQueue eq;
    AcceleratorConfig cfg;
    auto plan = std::make_shared<faults::FaultPlan>();
    plan->lateProbability = 1.0;
    plan->lateDelayCycles = 700;
    cfg.faultPlan = plan;
    Accelerator dev(eq, cfg);
    Outcomes fired;
    dev.offload(100, 0, recordInto(eq, fired));
    eq.runAll();
    EXPECT_EQ(fired.calls, 1);
    EXPECT_TRUE(fired.delivered);
    EXPECT_EQ(fired.at, 100u + 700u);
    EXPECT_EQ(dev.stats().lateResponses, 1u);
    EXPECT_EQ(dev.liveRecords(), 0u);
}

TEST(Accelerator, TransferSpikeMultipliesDeviceSideTransferOnly)
{
    AcceleratorConfig cfg;
    cfg.fixedLatencyCycles = 100;
    auto plan = std::make_shared<faults::FaultPlan>();
    plan->transferSpikeProbability = 1.0;
    plan->transferSpikeFactor = 5.0;
    cfg.faultPlan = plan;

    sim::EventQueue eq;
    Accelerator dev(eq, cfg);
    sim::Tick done = 0;
    dev.offload(100, 0, [&](bool) { done = eq.now(); });
    eq.runAll();
    EXPECT_EQ(done, 500u + 100u); // spiked transfer + service
    EXPECT_EQ(dev.stats().spikedTransfers, 1u);

    // Host-paid transfers were charged at nominal cost on the core
    // already; the spike must not double-bill them.
    sim::EventQueue eq2;
    Accelerator dev2(eq2, cfg);
    sim::Tick done2 = 0;
    dev2.offload(100, 0, [&](bool) { done2 = eq2.now(); },
                 /*transferPaidByHost=*/true);
    eq2.runAll();
    EXPECT_EQ(done2, 100u);
    EXPECT_EQ(dev2.stats().spikedTransfers, 0u);
}

TEST(Accelerator, StallWindowDefersServiceToWindowEnd)
{
    AcceleratorConfig cfg;
    auto plan = std::make_shared<faults::FaultPlan>();
    plan->stallWindows = {{0, 1000}};
    cfg.faultPlan = plan;
    sim::EventQueue eq;
    Accelerator dev(eq, cfg);
    sim::Tick done = 0;
    dev.offload(100, 0, [&](bool) { done = eq.now(); });
    eq.runAll();
    EXPECT_EQ(done, 1000u + 100u);
    EXPECT_GE(dev.stats().stallDeferrals, 1u);
    EXPECT_GT(dev.stats().queueWaitCycles.mean(), 0.0);
}

TEST(Accelerator, DeviceFailureDiscardsArrivalsUntilRecovery)
{
    AcceleratorConfig cfg;
    auto plan = std::make_shared<faults::FaultPlan>();
    plan->deviceFailAtTick = 0;
    plan->deviceRecoverAtTick = 5000;
    cfg.faultPlan = plan;
    sim::EventQueue eq;
    Accelerator dev(eq, cfg);
    Outcomes fired;
    dev.offload(100, 0, recordInto(eq, fired)); // arrives dead -> lost
    eq.runAll();
    EXPECT_EQ(fired.calls, 1);
    EXPECT_FALSE(fired.delivered);
    EXPECT_EQ(dev.stats().lostToDeviceFailure, 1u);

    eq.runUntil(6000); // past recovery
    sim::Tick done = 0;
    dev.offload(100, 0, [&](bool) { done = eq.now(); });
    eq.runAll();
    EXPECT_EQ(done, 6000u + 100u);
    EXPECT_EQ(dev.stats().served, 1u);
    EXPECT_EQ(fired.calls, 1);
    EXPECT_EQ(dev.liveRecords(), 0u);
}

TEST(Accelerator, FailureMidServiceLosesInFlightCompletions)
{
    AcceleratorConfig cfg;
    auto plan = std::make_shared<faults::FaultPlan>();
    plan->deviceFailAtTick = 50; // strikes while serving
    cfg.faultPlan = plan;
    sim::EventQueue eq;
    Accelerator dev(eq, cfg);
    Outcomes fired;
    dev.offload(100, 0, recordInto(eq, fired)); // service 0..100
    eq.runAll();
    EXPECT_EQ(fired.calls, 1);
    EXPECT_FALSE(fired.delivered);
    EXPECT_EQ(fired.at, 100u); // lost when service would have ended
    EXPECT_EQ(dev.stats().lostToDeviceFailure, 1u);
    EXPECT_EQ(dev.stats().served, 0u);
    EXPECT_EQ(dev.liveRecords(), 0u);
}

TEST(Accelerator, ResetReportsEveryQueuedOffloadLostOnce)
{
    // One channel, three offloads: the first is in service and the
    // other two queue behind it when the device fails at tick 50. The
    // reset loses all three, each reported false exactly once.
    AcceleratorConfig cfg;
    auto plan = std::make_shared<faults::FaultPlan>();
    plan->deviceFailAtTick = 50;
    cfg.faultPlan = plan;
    sim::EventQueue eq;
    Accelerator dev(eq, cfg);
    std::vector<Outcomes> fired(3);
    for (Outcomes &out : fired)
        dev.offload(100, 0, recordInto(eq, out));
    eq.runAll();
    for (const Outcomes &out : fired) {
        EXPECT_EQ(out.calls, 1);
        EXPECT_FALSE(out.delivered);
    }
    EXPECT_EQ(dev.stats().lostToDeviceFailure, 3u);
    EXPECT_EQ(dev.liveRecords(), 0u);
}

TEST(Accelerator, InertPlanIsDroppedAtConstruction)
{
    // A default-constructed plan is the null plan: behaviour and stats
    // must match a device built without one, event for event.
    auto run = [](std::shared_ptr<const faults::FaultPlan> plan) {
        sim::EventQueue eq;
        AcceleratorConfig cfg;
        cfg.speedupFactor = 2;
        cfg.fixedLatencyCycles = 30;
        cfg.faultPlan = std::move(plan);
        Accelerator dev(eq, cfg);
        std::vector<sim::Tick> done;
        for (int i = 0; i < 4; ++i)
            dev.offload(100, 10, [&](bool) { done.push_back(eq.now()); });
        eq.runAll();
        return std::make_pair(done, eq.processed());
    };
    EXPECT_EQ(run(nullptr),
              run(std::make_shared<faults::FaultPlan>()));
}

TEST(Accelerator, FaultReplayIsDeterministic)
{
    auto run = [] {
        sim::EventQueue eq;
        AcceleratorConfig cfg;
        auto plan = std::make_shared<faults::FaultPlan>();
        plan->seed = 12;
        plan->dropProbability = 0.4;
        plan->lateProbability = 0.3;
        plan->lateDelayCycles = 250;
        cfg.faultPlan = plan;
        Accelerator dev(eq, cfg);
        std::vector<sim::Tick> done;
        for (int i = 0; i < 200; ++i)
            dev.offload(50, 0, [&](bool delivered) {
                if (delivered)
                    done.push_back(eq.now());
            });
        eq.runAll();
        return std::make_tuple(done, dev.stats().droppedResponses,
                               dev.stats().lateResponses);
    };
    EXPECT_EQ(run(), run());
}

} // namespace
} // namespace accel::microsim
