/** @file Tests for the discrete-event engine. */

#include "sim/event_queue.hh"

#include <algorithm>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "util/logging.hh"

namespace accel::sim {
namespace {

/** A far-future delay and a short stride, in ticks. */
constexpr Tick kFarDelay = 65536;
constexpr Tick kStride = 64;

/** Callable that counts how many times it is copied and invoked. */
struct CountingCallback
{
    std::shared_ptr<int> copies;
    std::shared_ptr<int> fired;

    CountingCallback(std::shared_ptr<int> c, std::shared_ptr<int> f)
        : copies(std::move(c)), fired(std::move(f))
    {}
    CountingCallback(const CountingCallback &other)
        : copies(other.copies), fired(other.fired)
    {
        ++*copies;
    }
    CountingCallback(CountingCallback &&) noexcept = default;
    CountingCallback &operator=(const CountingCallback &) = delete;
    CountingCallback &operator=(CountingCallback &&) noexcept = default;

    void operator()() const { ++*fired; }
};

TEST(EventQueue, RunsInTimestampOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(30, [&] { order.push_back(3); });
    eq.schedule(10, [&] { order.push_back(1); });
    eq.schedule(20, [&] { order.push_back(2); });
    eq.runAll();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.now(), 30u);
}

TEST(EventQueue, TiesBreakByPriorityThenInsertion)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(5, [&] { order.push_back(1); }, /*priority=*/1);
    eq.schedule(5, [&] { order.push_back(2); }, /*priority=*/-1);
    eq.schedule(5, [&] { order.push_back(3); }, /*priority=*/1);
    eq.runAll();
    EXPECT_EQ(order, (std::vector<int>{2, 1, 3}));
}

TEST(EventQueue, SchedulingIntoPastRejected)
{
    EventQueue eq;
    eq.schedule(10, [] {});
    eq.runAll();
    EXPECT_THROW(eq.schedule(5, [] {}), FatalError);
    EXPECT_NO_THROW(eq.schedule(10, [] {})); // same tick allowed
}

TEST(EventQueue, ScheduleInIsRelative)
{
    EventQueue eq;
    Tick seen = 0;
    eq.schedule(100, [&] {});
    eq.runAll();
    eq.scheduleIn(50, [&] { seen = eq.now(); });
    eq.runAll();
    EXPECT_EQ(seen, 150u);
}

TEST(EventQueue, EventsCanScheduleEvents)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(1, [&] {
        ++fired;
        eq.scheduleIn(1, [&] { ++fired; });
    });
    eq.runAll();
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(eq.now(), 2u);
    EXPECT_EQ(eq.processed(), 2u);
}

TEST(EventQueue, RunUntilStopsAtLimit)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(10, [&] { ++fired; });
    eq.schedule(20, [&] { ++fired; });
    eq.schedule(30, [&] { ++fired; });
    eq.runUntil(20);
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(eq.now(), 20u);
    EXPECT_EQ(eq.pending(), 1u);
}

TEST(EventQueue, RunUntilAdvancesClockWhenIdle)
{
    EventQueue eq;
    eq.runUntil(500);
    EXPECT_EQ(eq.now(), 500u);
}

TEST(EventQueue, RunNextOnEmptyReturnsFalse)
{
    EventQueue eq;
    EXPECT_FALSE(eq.runNext());
}

TEST(EventQueue, EmptyCallbackPanics)
{
    EventQueue eq;
    EXPECT_THROW(eq.schedule(1, Callback{}), PanicError);
}

TEST(EventQueue, DeterministicReplay)
{
    auto run = [] {
        EventQueue eq;
        std::vector<Tick> ticks;
        for (int i = 0; i < 100; ++i) {
            eq.schedule((i * 37) % 64, [&, i] {
                ticks.push_back(eq.now() * 1000 + i);
            });
        }
        eq.runAll();
        return ticks;
    };
    EXPECT_EQ(run(), run());
}

TEST(EventQueue, ExecutionDoesNotCopyCallbacks)
{
    // The acknowledged hot-path bug: priority_queue::top() forced a
    // copy of every Event's std::function (and captured shared_ptrs)
    // on every pop. Moving out of the heap must execute events without
    // a single callback copy after scheduling.
    EventQueue eq;
    auto copies = std::make_shared<int>(0);
    auto fired = std::make_shared<int>(0);
    for (int i = 0; i < 64; ++i) {
        eq.schedule(static_cast<Tick>((i * 31) % 16),
                    Callback(CountingCallback(copies, fired)));
    }
    int copies_after_scheduling = *copies;
    eq.runAll();
    EXPECT_EQ(*fired, 64);
    EXPECT_EQ(*copies, copies_after_scheduling)
        << "popping the heap copied callback state";
}

TEST(EventQueue, CapturedSharedStateReleasedAfterRun)
{
    EventQueue eq;
    auto payload = std::make_shared<int>(42);
    std::weak_ptr<int> watch = payload;
    eq.schedule(1, [payload] { (void)*payload; });
    payload.reset();
    EXPECT_FALSE(watch.expired()); // alive inside the queue
    eq.runAll();
    EXPECT_TRUE(watch.expired()); // not retained after execution
}

TEST(EventQueue, CapturesReleasedExactlyOnceWhenFiredCancelledOrCompacted)
{
    // use_count() must go from 2 (test + queued callback) to 1 exactly
    // once: when the timer fires, when a cancelled timer drains, and
    // when compaction drops a cancelled timer. A double release would
    // take it to 0; a leak would leave it at 2.
    auto fired = std::make_shared<int>(0);
    auto drained = std::make_shared<int>(0);
    auto compacted = std::make_shared<int>(0);
    {
        EventQueue eq;
        eq.scheduleTimer(10, [fired] { ++*fired; });
        TimerId d = eq.scheduleTimer(20, [drained] { ++*drained; });
        TimerId c =
            eq.scheduleTimer(kFarDelay, [compacted] { ++*compacted; });
        EXPECT_TRUE(eq.cancelTimer(d));
        EXPECT_TRUE(eq.cancelTimer(c));
        EXPECT_EQ(drained.use_count(), 2); // cancelled but still queued

        eq.runUntil(30);
        EXPECT_EQ(*fired, 1);
        EXPECT_EQ(fired.use_count(), 1);
        EXPECT_EQ(drained.use_count(), 1);
        EXPECT_EQ(compacted.use_count(), 2); // its tick is far off

        // Cancel enough further timers for a compaction to drop c.
        for (size_t i = 0; i < EventQueue::kCompactMinCancelled; ++i)
            eq.cancelTimer(eq.scheduleTimer(kFarDelay + 1 + i, [] {}));
        EXPECT_EQ(eq.compactions(), 1u);
        EXPECT_EQ(compacted.use_count(), 1);

        // The freed slots are reused; running and destroying the queue
        // must not release anything a second time.
        for (int i = 0; i < 8; ++i)
            eq.scheduleIn(1 + i, [] {});
        eq.runAll();
    }
    EXPECT_EQ(fired.use_count(), 1);
    EXPECT_EQ(drained.use_count(), 1);
    EXPECT_EQ(compacted.use_count(), 1);
    EXPECT_EQ(*drained, 0);
    EXPECT_EQ(*compacted, 0);
}

TEST(EventQueue, ReusedSlotsNeverRunStaleCallbacks)
{
    // Slots are recycled as events run, cancelled timers drain, and
    // compaction drops cancelled keys. Through a mix of all three,
    // every event must run its own callback exactly once, and no
    // successfully cancelled timer may run at all.
    EventQueue eq;
    constexpr int kRounds = 40;
    constexpr int kPerRound = 24;
    std::vector<int> runs(kRounds * kPerRound, 0);
    std::vector<int> expected(runs.size(), 1);
    std::vector<std::pair<TimerId, int>> timers;
    int label = 0;
    for (int round = 0; round < kRounds; ++round) {
        for (int i = 0; i < kPerRound; ++i, ++label) {
            auto cb = [&runs, label] { ++runs[label]; };
            if (label % 4 == 0) {
                eq.scheduleIn(1 + label % 7, std::move(cb));
            } else {
                // Every third timer is far off, so only compaction
                // (or the final drain) removes it.
                const Tick delay =
                    label % 3 == 0 ? kFarDelay + label : 1 + label % 11;
                timers.emplace_back(eq.scheduleTimerIn(delay, std::move(cb)),
                                    label);
            }
        }
        // Cancel every other timer armed so far, alternating parity
        // by round: some are live, some fired or already cancelled.
        for (size_t t = round % 2; t < timers.size(); t += 2) {
            if (eq.cancelTimer(timers[t].first))
                expected[timers[t].second] = 0;
        }
        eq.runUntil(eq.now() + 6);
    }
    eq.runAll();
    EXPECT_GT(eq.compactions(), 0u);
    EXPECT_EQ(runs, expected);
}

TEST(EventQueue, ReserveDoesNotDisturbOrdering)
{
    EventQueue eq;
    eq.reserve(1024);
    std::vector<int> order;
    eq.schedule(3, [&] { order.push_back(3); });
    eq.schedule(1, [&] { order.push_back(1); });
    eq.schedule(2, [&] { order.push_back(2); });
    eq.runAll();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, TimerFiresLikeAnEvent)
{
    EventQueue eq;
    Tick seen = 0;
    TimerId id = eq.scheduleTimerIn(25, [&] { seen = eq.now(); });
    EXPECT_NE(id, kInvalidTimer);
    EXPECT_EQ(eq.activeTimers(), 1u);
    eq.runAll();
    EXPECT_EQ(seen, 25u);
    EXPECT_EQ(eq.activeTimers(), 0u);
}

TEST(EventQueue, CancelledTimerNeverRuns)
{
    EventQueue eq;
    int fired = 0;
    TimerId id = eq.scheduleTimer(10, [&] { ++fired; });
    EXPECT_TRUE(eq.cancelTimer(id));
    eq.schedule(20, [&] { fired += 100; });
    eq.runAll();
    EXPECT_EQ(fired, 100);
    EXPECT_EQ(eq.activeTimers(), 0u);
}

TEST(EventQueue, CancelledTimerDoesNotAdvanceClockOrCount)
{
    EventQueue eq;
    TimerId id = eq.scheduleTimer(10, [] {});
    eq.cancelTimer(id);
    eq.schedule(30, [] {});
    eq.runAll();
    // The cancelled slot drains silently: it neither executes nor
    // becomes the clock's resting point.
    EXPECT_EQ(eq.now(), 30u);
    EXPECT_EQ(eq.processed(), 1u);
}

TEST(EventQueue, CancelReturnsFalseWhenNotLive)
{
    EventQueue eq;
    EXPECT_FALSE(eq.cancelTimer(kInvalidTimer));
    EXPECT_FALSE(eq.cancelTimer(12345)); // never issued

    TimerId id = eq.scheduleTimer(5, [] {});
    EXPECT_TRUE(eq.cancelTimer(id));
    EXPECT_FALSE(eq.cancelTimer(id)); // already cancelled

    TimerId fired = eq.scheduleTimer(6, [] {});
    eq.runAll();
    EXPECT_FALSE(eq.cancelTimer(fired)); // already fired
}

TEST(EventQueue, PlainEventsAreNotCancellable)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(10, [&] { ++fired; });
    // A plain event's (private) sequence would be 1; cancelling that id
    // must not touch it.
    EXPECT_FALSE(eq.cancelTimer(1));
    eq.runAll();
    EXPECT_EQ(fired, 1);
}

TEST(EventQueue, TimerAndEventTieBreaksBySchedulingOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.scheduleTimer(10, [&] { order.push_back(1); });
    eq.schedule(10, [&] { order.push_back(2); });
    eq.scheduleTimer(10, [&] { order.push_back(3); });
    eq.runAll();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, CancelFromInsideAnEarlierEvent)
{
    // The deadline-vs-completion race: whichever same-tick rival runs
    // first cancels the other, deterministically by sequence.
    EventQueue eq;
    int fired = 0;
    TimerId timer = eq.scheduleTimer(10, [&] { fired += 1; });
    eq.schedule(10, [&] {
        fired += 10;
        EXPECT_FALSE(eq.cancelTimer(timer)); // timer already fired
    });
    eq.runAll();
    EXPECT_EQ(fired, 11);

    EventQueue eq2;
    int fired2 = 0;
    TimerId t2 = kInvalidTimer;
    eq2.schedule(10, [&] {
        fired2 += 10;
        EXPECT_TRUE(eq2.cancelTimer(t2)); // event won: timer dies
    });
    t2 = eq2.scheduleTimer(10, [&] { fired2 += 1; });
    eq2.runAll();
    EXPECT_EQ(fired2, 10);
}

TEST(EventQueue, RunUntilDrainsCancelledSlotsWithinLimitOnly)
{
    EventQueue eq;
    int fired = 0;
    TimerId id = eq.scheduleTimer(10, [&] { ++fired; });
    eq.cancelTimer(id);
    eq.schedule(30, [&] { ++fired; });
    eq.runUntil(20);
    EXPECT_EQ(fired, 0);
    EXPECT_EQ(eq.now(), 20u);
    EXPECT_EQ(eq.pending(), 1u); // the tick-30 event survived
    eq.runAll();
    EXPECT_EQ(fired, 1);
}

TEST(EventQueue, CancellationStateStaysBounded)
{
    // Both bookkeeping sets must drain as the heap does — scheduling
    // and cancelling many timers leaves no residue.
    EventQueue eq;
    for (int round = 0; round < 100; ++round) {
        std::vector<TimerId> ids;
        for (int i = 0; i < 10; ++i)
            ids.push_back(eq.scheduleTimerIn(5 + i, [] {}));
        for (size_t i = 0; i < ids.size(); i += 2)
            eq.cancelTimer(ids[i]);
        eq.runAll();
        EXPECT_EQ(eq.activeTimers(), 0u);
        EXPECT_EQ(eq.pending(), 0u);
    }
}

TEST(EventQueue, CompactionKeepsPendingBounded)
{
    // Hedged offloads cancel one timer per offload without the clock
    // ever draining past them. Without compaction the heap would hold
    // every cancelled slot until its tick; with it, pending() stays
    // O(live + kCompactMinCancelled) however many timers were ever
    // cancelled.
    EventQueue eq;
    const Tick kFar = 1'000'000'000;
    const size_t kLive = 10;
    std::vector<TimerId> live;
    for (size_t i = 0; i < kLive; ++i)
        live.push_back(eq.scheduleTimer(kFar + i, [] {}));

    for (int i = 0; i < 10'000; ++i) {
        TimerId id = eq.scheduleTimer(kFar / 2 + i, [] {});
        eq.cancelTimer(id);
        EXPECT_LE(eq.pending(),
                  kLive + 2 * EventQueue::kCompactMinCancelled)
            << "cancelled slots accumulated at i=" << i;
    }
    EXPECT_GT(eq.compactions(), 0u);
    EXPECT_EQ(eq.activeTimers(), live.size());

    // The surviving timers still fire.
    eq.runAll();
    EXPECT_EQ(eq.activeTimers(), 0u);
    EXPECT_EQ(eq.processed(), live.size());
}

TEST(EventQueue, CompactionPreservesExecutionOrder)
{
    // Interleave plain events, live timers, and cancelled timers so a
    // compaction rebuild happens mid-stream; execution order must be
    // the same total (when, priority, sequence) order as an identical
    // queue that never compacts (no cancellations).
    auto run = [](bool withCancelled) {
        EventQueue eq;
        std::vector<int> order;
        for (int i = 0; i < 400; ++i) {
            Tick when = 1000 + (i * 37) % 500;
            eq.schedule(when, [&order, i] { order.push_back(i); });
            eq.scheduleTimer(when, [&order, i] {
                order.push_back(10'000 + i);
            });
            if (withCancelled) {
                TimerId id = eq.scheduleTimer(when + 1, [&order, i] {
                    order.push_back(-i);
                });
                eq.cancelTimer(id);
            }
        }
        eq.runAll();
        return order;
    };
    EXPECT_EQ(run(true), run(false));
}

TEST(EventQueue, NoCompactionBelowFloor)
{
    // A handful of cancellations must not trigger rebuilds — the floor
    // keeps small queues on the zero-overhead path.
    EventQueue eq;
    for (size_t i = 0; i < EventQueue::kCompactMinCancelled - 1; ++i) {
        TimerId id = eq.scheduleTimer(100 + i, [] {});
        eq.cancelTimer(id);
    }
    EXPECT_EQ(eq.compactions(), 0u);
    eq.runAll();
}

TEST(EventQueue, ScheduleInOverflowRejectedWithFields)
{
    // Regression: now_ + delay used to wrap silently in uint64
    // arithmetic, either tripping the misleading "scheduling into the
    // past" error or scheduling at a bogus near tick. It must fail
    // with a message naming the overflowing fields.
    EventQueue eq;
    eq.schedule(1000, [] {});
    eq.runAll();
    const Tick kMax = std::numeric_limits<Tick>::max();
    try {
        eq.scheduleIn(kMax - eq.now() + 1, [] {});
        FAIL() << "overflowing scheduleIn did not throw";
    } catch (const FatalError &err) {
        const std::string msg = err.what();
        EXPECT_NE(msg.find("scheduleIn"), std::string::npos) << msg;
        EXPECT_NE(msg.find("overflows"), std::string::npos) << msg;
        EXPECT_NE(msg.find("now=1000"), std::string::npos) << msg;
        EXPECT_NE(msg.find("delay="), std::string::npos) << msg;
    }
    // The largest non-overflowing delay is fine.
    EXPECT_NO_THROW(eq.scheduleIn(kMax - eq.now(), [] {}));
}

TEST(EventQueue, ScheduleTimerInOverflowRejectedWithFields)
{
    EventQueue eq;
    eq.schedule(7, [] {});
    eq.runAll();
    const Tick kMax = std::numeric_limits<Tick>::max();
    try {
        eq.scheduleTimerIn(kMax, [] {});
        FAIL() << "overflowing scheduleTimerIn did not throw";
    } catch (const FatalError &err) {
        const std::string msg = err.what();
        EXPECT_NE(msg.find("scheduleTimerIn"), std::string::npos) << msg;
        EXPECT_NE(msg.find("now=7"), std::string::npos) << msg;
        EXPECT_NE(msg.find("delay="), std::string::npos) << msg;
    }
    // No timer was issued and no slot leaked by the failed call.
    EXPECT_EQ(eq.activeTimers(), 0u);
    EXPECT_EQ(eq.pending(), 0u);
}

TEST(EventQueue, PendingLiveExcludesCancelledSlots)
{
    // Regression: pending() counts cancelled slots (documented), and
    // callers polling it for progress overcount; pendingLive() is the
    // executable-event count.
    EventQueue eq;
    eq.schedule(10, [] {});
    TimerId a = eq.scheduleTimer(20, [] {});
    TimerId b = eq.scheduleTimer(30, [] {});
    EXPECT_EQ(eq.pending(), 3u);
    EXPECT_EQ(eq.pendingLive(), 3u);

    eq.cancelTimer(a);
    EXPECT_EQ(eq.pending(), 3u); // slot still queued
    EXPECT_EQ(eq.pendingLive(), 2u);

    eq.cancelTimer(b);
    EXPECT_EQ(eq.pendingLive(), 1u);

    eq.runAll();
    EXPECT_EQ(eq.pending(), 0u);
    EXPECT_EQ(eq.pendingLive(), 0u);
}

TEST(EventQueue, PendingLiveExcludesCancelledHeapSlots)
{
    // Same accounting for far-future timers, including after a
    // compaction reclaims the slots.
    EventQueue eq;
    const Tick kFar = kFarDelay * 4;
    std::vector<TimerId> ids;
    for (size_t i = 0; i < 3 * EventQueue::kCompactMinCancelled; ++i)
        ids.push_back(eq.scheduleTimer(kFar + i, [] {}));
    for (TimerId id : ids)
        eq.cancelTimer(id);
    EXPECT_EQ(eq.pendingLive(), 0u);
    EXPECT_EQ(eq.pending() - eq.pendingLive(),
              eq.pending()); // everything queued is cancelled
    eq.runAll();
    EXPECT_EQ(eq.pending(), 0u);
    EXPECT_EQ(eq.pendingLive(), 0u);
}

TEST(EventQueue, WheelHorizonBoundaryOrdering)
{
    // Events on both sides of a power-of-two tick boundary, scheduled
    // out of order, must run in global timestamp order.
    EventQueue eq;
    std::vector<Tick> order;
    auto record = [&] { order.push_back(eq.now()); };
    const Tick kH = kFarDelay;
    for (Tick t : {kH - 1, kH, kH + 1, Tick{1}, kH * 2, kH - kStride})
        eq.schedule(t, record);
    eq.runAll();
    std::vector<Tick> sorted = order;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_EQ(order, sorted);
    EXPECT_EQ(order.size(), 6u);
}

TEST(EventQueue, ManyEventsStressOrdering)
{
    EventQueue eq;
    Tick last = 0;
    for (int i = 0; i < 10000; ++i) {
        eq.schedule((i * 7919) % 5000, [&] {
            EXPECT_GE(eq.now(), last);
            last = eq.now();
        });
    }
    eq.runAll();
    EXPECT_EQ(eq.processed(), 10000u);
}

} // namespace
} // namespace accel::sim
