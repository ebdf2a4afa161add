/**
 * @file
 * Randomized property suite: EventQueue (keys in one heap over a
 * callback slab) must be observationally identical to
 * ReferenceEventQueue (the pre-optimization std::function queue kept
 * as an executable specification).
 *
 * For seeded random mixes of schedule / scheduleIn / scheduleTimer /
 * scheduleTimerIn / cancelTimer / runNext / runUntil — including
 * callbacks that schedule and cancel reentrantly — both queues must
 * produce the identical callback execution sequence, identical
 * TimerIds, identical cancelTimer results, and identical
 * now()/processed()/activeTimers()/pendingLive()/empty()/pending()/
 * compactions() trajectories. The last two agree because both queues
 * reclaim cancelled slots under the same kCompactMinCancelled rule.
 *
 * Test names stay under `EventQueueProperty.` — CI runs exactly this
 * prefix under ThreadSanitizer.
 */

#include <cstdint>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "sim/event_queue.hh"
#include "sim/reference_event_queue.hh"
#include "util/rng.hh"

namespace accel::sim {
namespace {

/** One pre-generated operation, applied identically to both queues. */
struct Op
{
    enum Kind : std::uint32_t
    {
        kSchedule,
        kScheduleIn,
        kScheduleTimer,
        kScheduleTimerIn,
        kCancel,
        kRunNext,
        kRunUntil,
    };
    Kind kind;
    Tick delay;        //!< delay (or run-until span) operand
    int priority;      //!< scheduling priority operand
    std::uint64_t pick; //!< selects which recorded timer to cancel
};

/** Labels for reentrantly scheduled events live above this floor. */
constexpr std::uint64_t kChildLabel = 1'000'000;

/**
 * Everything observable one queue produced while replaying an op list.
 * Two queues agree iff their Observed compare equal field-by-field.
 */
struct Observed
{
    std::vector<std::uint64_t> log;     //!< labels in execution order
    std::vector<TimerId> timers;        //!< every TimerId handed out
    std::vector<bool> cancelResults;    //!< cancelTimer return values
    // (now, processed, activeTimers, pendingLive, empty, pending,
    // compactions) after each op
    std::vector<std::tuple<Tick, std::uint64_t, size_t, size_t, bool,
                           size_t, std::uint64_t>>
        trajectory;
};

/**
 * Replays an op list against @p Queue (EventQueue or the reference),
 * recording everything observable. Callbacks act deterministically on
 * their label, so both queues see the same reentrant behaviour — as
 * long as they execute callbacks in the same order, which is exactly
 * the property under test.
 */
template <typename Queue>
class Script
{
  public:
    Observed
    run(const std::vector<Op> &ops)
    {
        for (const Op &op : ops) {
            apply(op);
            checkpoint();
        }
        q_.runAll();
        checkpoint();
        return std::move(seen_);
    }

  private:
    /** Schedulable callback: 16 bytes, fits any queue's SBO budget. */
    struct Cb
    {
        Script *script;
        std::uint64_t label;
        void operator()() const { script->fire(label); }
    };

    Cb event(std::uint64_t label) { return Cb{this, label}; }

    void
    apply(const Op &op)
    {
        switch (op.kind) {
        case Op::kSchedule:
            q_.schedule(q_.now() + op.delay, event(nextLabel_++),
                        op.priority);
            break;
        case Op::kScheduleIn:
            q_.scheduleIn(op.delay, event(nextLabel_++), op.priority);
            break;
        case Op::kScheduleTimer:
            seen_.timers.push_back(q_.scheduleTimer(
                q_.now() + op.delay, event(nextLabel_++), op.priority));
            break;
        case Op::kScheduleTimerIn:
            seen_.timers.push_back(q_.scheduleTimerIn(
                op.delay, event(nextLabel_++), op.priority));
            break;
        case Op::kCancel:
            if (!seen_.timers.empty()) {
                // May be live, already fired, or already cancelled —
                // all three must answer identically on both queues.
                TimerId id =
                    seen_.timers[op.pick % seen_.timers.size()];
                seen_.cancelResults.push_back(q_.cancelTimer(id));
            }
            break;
        case Op::kRunNext:
            q_.runNext();
            break;
        case Op::kRunUntil:
            q_.runUntil(q_.now() + op.delay);
            break;
        }
    }

    /** Runs event @p label: log, then act deterministically on it. */
    void
    fire(std::uint64_t label)
    {
        seen_.log.push_back(label);
        if (label >= kChildLabel)
            return; // children do not recurse
        if (label % 5 == 0) {
            // Reentrant plain event, possibly at the tick the queue
            // is draining right now.
            q_.schedule(q_.now() + (label * 37) % 190,
                        event(kChildLabel + label),
                        static_cast<int>(label % 3) - 1);
        }
        if (label % 11 == 5) {
            seen_.timers.push_back(q_.scheduleTimer(
                q_.now() + 64 + (label * 13) % 4096,
                event(kChildLabel * 2 + label)));
        }
        if (label % 7 == 3 && !seen_.timers.empty()) {
            TimerId id =
                seen_.timers[(label * 31) % seen_.timers.size()];
            seen_.cancelResults.push_back(q_.cancelTimer(id));
        }
    }

    void
    checkpoint()
    {
        seen_.trajectory.emplace_back(q_.now(), q_.processed(),
                                      q_.activeTimers(),
                                      q_.pendingLive(), q_.empty(),
                                      q_.pending(), q_.compactions());
    }

    Queue q_;
    Observed seen_;
    std::uint64_t nextLabel_ = 1;
};

/** Split between near and far delays, in ticks. */
constexpr Tick kHorizon = 65536;

/** Delay mix: near churn, mid-range, around kHorizon, and far. */
Tick
randomDelay(Rng &rng)
{
    switch (rng.next() % 4) {
    case 0: // equal-tick and near-future churn
        return rng.next() % 256;
    case 1: // anywhere below the horizon
        return rng.next() % kHorizon;
    case 2: // right at the horizon
        return kHorizon - 2 + rng.next() % 5;
    default: // far future
        return kHorizon + rng.next() % (kHorizon * 3);
    }
}

std::vector<Op>
makeOps(std::uint64_t seed, bool cancelHeavy)
{
    Rng rng(seed, /*stream=*/29);
    std::vector<Op> ops;
    for (int i = 0; i < 400; ++i) {
        Op op{};
        const std::uint64_t roll = rng.next() % (cancelHeavy ? 10 : 8);
        if (roll < 2) {
            op.kind = Op::kSchedule;
        } else if (roll == 2) {
            op.kind = Op::kScheduleIn;
        } else if (roll == 3) {
            op.kind = Op::kScheduleTimer;
        } else if (roll == 4) {
            op.kind = Op::kScheduleTimerIn;
        } else if (roll == 5) {
            op.kind = Op::kCancel;
        } else if (roll == 6) {
            op.kind = Op::kRunNext;
        } else if (roll == 7) {
            op.kind = Op::kRunUntil;
        } else {
            // cancelHeavy extras: far timers armed then mostly
            // cancelled — the compaction-triggering workload.
            op.kind = roll == 8 ? Op::kScheduleTimerIn : Op::kCancel;
        }
        op.delay = randomDelay(rng);
        op.priority = static_cast<int>(rng.next() % 5) - 2;
        op.pick = rng.next();
        ops.push_back(op);
    }
    return ops;
}

void
expectSameBehaviour(const std::vector<Op> &ops, std::uint64_t seed)
{
    Observed fast = Script<EventQueue>{}.run(ops);
    Observed oracle = Script<ReferenceEventQueue>{}.run(ops);
    EXPECT_EQ(fast.log, oracle.log) << "seed " << seed;
    EXPECT_EQ(fast.timers, oracle.timers) << "seed " << seed;
    EXPECT_EQ(fast.cancelResults, oracle.cancelResults)
        << "seed " << seed;
    EXPECT_EQ(fast.trajectory, oracle.trajectory) << "seed " << seed;
}

TEST(EventQueueProperty, RandomOpMixMatchesReference)
{
    for (std::uint64_t seed = 1; seed <= 20; ++seed)
        expectSameBehaviour(makeOps(seed, /*cancelHeavy=*/false), seed);
}

TEST(EventQueueProperty, CancelHeavyMixMatchesReference)
{
    // Arm-then-cancel dominated mixes drive both queues through
    // compaction; observables must still agree.
    for (std::uint64_t seed = 100; seed <= 115; ++seed)
        expectSameBehaviour(makeOps(seed, /*cancelHeavy=*/true), seed);
}

} // namespace
} // namespace accel::sim
