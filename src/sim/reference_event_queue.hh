/**
 * @file
 * Reference event queue: the pre-optimization sim core, kept verbatim.
 *
 * This is the original `sim::EventQueue` — `std::function` callbacks
 * and a single binary heap with cancelled-slot compaction — preserved
 * as an executable specification. Two consumers depend on it staying
 * byte-for-byte faithful to the seed implementation:
 *
 *  - the randomized property suite (tests/sim/event_queue_property_
 *    test.cc) cross-checks EventQueue against it: identical execution
 *    sequences and identical now()/processed()/pending() trajectories
 *    for arbitrary op mixes;
 *  - bench/simcore_throughput uses it as the "pre-change queue"
 *    baseline for the events/sec and allocations/event regression
 *    gates.
 *
 * Do not optimize this class; it exists to be slow in exactly the old
 * ways.
 */

#pragma once

#include <cstdint>
#include <functional>
#include <unordered_set>
#include <vector>

#include "sim/event_queue.hh"

namespace accel::sim {

/** Pure-heap, std::function-based event queue (oracle/baseline). */
class ReferenceEventQueue
{
  public:
    using Callback = std::function<void()>;

    ReferenceEventQueue() = default;

    /** Current simulated time. */
    Tick now() const { return now_; }

    /** Schedule @p cb at absolute time @p when. */
    void schedule(Tick when, Callback &&cb, int priority = 0);

    /** Schedule @p cb @p delay cycles from now. */
    void scheduleIn(Tick delay, Callback &&cb, int priority = 0);

    /** Schedule a cancellable timer at absolute time @p when. */
    TimerId scheduleTimer(Tick when, Callback &&cb, int priority = 0);

    /** Schedule a cancellable timer @p delay cycles from now. */
    TimerId scheduleTimerIn(Tick delay, Callback &&cb, int priority = 0);

    /** Cancel a pending timer; true when @p id was live. */
    bool cancelTimer(TimerId id);

    /** Timers scheduled and neither fired nor cancelled yet. */
    size_t activeTimers() const { return liveTimers_.size(); }

    /** True when no events remain. */
    bool empty() const { return heap_.empty(); }

    /** Pending events, cancelled-timer slots included. */
    size_t pending() const { return heap_.size(); }

    /** Pending events minus still-queued cancelled-timer slots. */
    size_t pendingLive() const { return heap_.size() - cancelled_.size(); }

    /** Times the heap was rebuilt to shed cancelled slots. */
    std::uint64_t compactions() const { return compactions_; }

    /** Cancelled-slot floor below which compaction never triggers. */
    static constexpr size_t kCompactMinCancelled = 64;

    /** Reserve heap capacity for an expected number of pending events. */
    void reserve(size_t events) { heap_.reserve(events); }

    /** Total events executed so far. */
    std::uint64_t processed() const { return processed_; }

    /** Execute the earliest event; false when the queue was empty. */
    bool runNext();

    /** Run events with timestamps <= @p limit, then advance now(). */
    void runUntil(Tick limit);

    /** Run until the queue drains. */
    void runAll();

  private:
    struct Event
    {
        Tick when;
        int priority;
        std::uint64_t sequence;
        Callback callback;
    };

    struct Later
    {
        bool
        operator()(const Event &a, const Event &b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            if (a.priority != b.priority)
                return a.priority > b.priority;
            return a.sequence > b.sequence;
        }
    };

    Event popEvent();
    std::uint64_t scheduleEvent(Tick when, Callback &&cb, int priority);
    bool runOne(Tick limit);
    void maybeCompact();

    std::vector<Event> heap_;
    Tick now_ = 0;
    std::uint64_t sequence_ = 1;
    std::uint64_t processed_ = 0;
    std::uint64_t compactions_ = 0;
    std::unordered_set<std::uint64_t> liveTimers_;
    std::unordered_set<std::uint64_t> cancelled_;
};

} // namespace accel::sim
