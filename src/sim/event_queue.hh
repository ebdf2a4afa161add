/**
 * @file
 * Discrete-event simulation core.
 *
 * A minimal, deterministic event queue in simulated host cycles. The
 * microservice simulator (microsim) is built on top of it; the engine
 * itself knows nothing about services or accelerators.
 *
 * Determinism: events at equal ticks execute in (priority, insertion
 * sequence) order, so a seeded simulation always replays identically.
 *
 * Hot-path structure (see DESIGN.md, "Sim-core hot path"):
 *
 *  - Callbacks are `sim::InlineCallback` — move-only with 64 bytes of
 *    inline storage; oversized captures spill into a thread-local
 *    kernels::PoolAllocator, so steady-state scheduling performs no
 *    global heap allocation.
 *  - One binary heap orders 24-byte keys (when, priority, sequence,
 *    slot). The callbacks sit in a slab of slots the keys index, so a
 *    heap sift moves only keys, and each callback moves once into its
 *    slot and once out to run. The property suite cross-checks the
 *    queue against sim::ReferenceEventQueue.
 *  - Timer bookkeeping uses FlatSet64 (open addressing, no per-insert
 *    node allocation).
 */

#pragma once

#include <cstdint>
#include <vector>

#include "sim/flat_set64.hh"
#include "sim/inline_callback.hh"

namespace accel::sim {

/** Simulated time in host clock cycles. */
using Tick = std::uint64_t;

/** Scheduled work: lower priority values run first within a tick. */
using Callback = InlineCallback;

/**
 * Handle to a cancellable timer. Valid ids are non-zero; kInvalidTimer
 * never names a live timer, so it can serve as an "unset" sentinel.
 */
using TimerId = std::uint64_t;
constexpr TimerId kInvalidTimer = 0;

/** Deterministic event queue (binary min-heap of keys over a slab). */
class EventQueue
{
  public:
    /** Current simulated time. */
    Tick now() const { return now_; }

    /**
     * Schedule @p cb at absolute time @p when. The callback is taken
     * as a sink (&&): the queue stores millions of events per run, so
     * the type-erased state must move, never copy.
     * @throws FatalError when @p when precedes now().
     */
    void schedule(Tick when, Callback &&cb, int priority = 0);

    /**
     * Schedule @p cb @p delay cycles from now.
     * @throws FatalError when now() + @p delay overflows Tick.
     */
    void scheduleIn(Tick delay, Callback &&cb, int priority = 0);

    /**
     * Schedule a cancellable timer at absolute time @p when. Only
     * timers pay the cancellation bookkeeping; plain schedule() events
     * keep the zero-overhead hot path. Timeout/retry logic (offload
     * deadlines racing device completions) needs the returned handle.
     */
    TimerId scheduleTimer(Tick when, Callback &&cb, int priority = 0);

    /**
     * Schedule a cancellable timer @p delay cycles from now.
     * @throws FatalError when now() + @p delay overflows Tick.
     */
    TimerId scheduleTimerIn(Tick delay, Callback &&cb, int priority = 0);

    /**
     * Cancel a pending timer. A cancelled timer's callback never runs
     * and its state is released when its slot drains from the queue.
     * @return true when @p id was live (scheduled, not yet fired or
     *         cancelled); false for fired, already-cancelled, invalid,
     *         or plain-schedule() ids.
     */
    bool cancelTimer(TimerId id);

    /** Timers scheduled and neither fired nor cancelled yet. */
    size_t activeTimers() const { return liveTimers_.size(); }

    /** True when no events remain (cancelled slots count as events). */
    bool empty() const { return heap_.empty(); }

    /**
     * Number of queued event slots, cancelled timers included: a
     * cancelled timer still occupies its slot — and counts here —
     * until its tick drains or slot compaction reclaims it (see
     * compactions()). Use pendingLive() for the number of events that
     * will actually execute; polling pending() for progress or
     * termination decisions overcounts under timer cancellation.
     */
    size_t pending() const { return heap_.size(); }

    /**
     * Events that will actually execute: pending() minus queued
     * cancelled-timer slots. This is the count to poll for progress /
     * termination decisions.
     */
    size_t pendingLive() const { return heap_.size() - cancelledQueued_; }

    /**
     * Times the heap was rebuilt to shed cancelled-timer slots. The
     * rebuild triggers when at least kCompactMinCancelled queued slots
     * are cancelled and they make up half the heap, which keeps
     * pending() at O(live events + kCompactMinCancelled) no matter how
     * many timers were ever cancelled (hedged offloads cancel one
     * timer per offload). Compaction never changes results: execution
     * order is the total (when, priority, sequence) order, which does
     * not depend on heap layout.
     */
    std::uint64_t compactions() const { return compactions_; }

    /** Cancelled-slot floor below which compaction never triggers. */
    static constexpr size_t kCompactMinCancelled = 64;

    /** Reserve capacity for an expected number of pending events. */
    void
    reserve(size_t events)
    {
        heap_.reserve(events);
        callbacks_.reserve(events);
    }

    /** Total events executed so far. */
    std::uint64_t processed() const { return processed_; }

    /**
     * Execute the earliest event, advancing now().
     * @return false when the queue was empty.
     */
    bool runNext();

    /**
     * Run events with timestamps <= @p limit, then advance now() to
     * @p limit. Events scheduled past the limit stay queued.
     */
    void runUntil(Tick limit);

    /** Run until the queue drains. */
    void runAll();

  private:
    /** Heap entry; the callback it orders lives in callbacks_. */
    struct Key
    {
        Tick when;
        std::uint64_t sequence;
        int priority;
        // Index into callbacks_, with kTimerBit set for timers. A
        // queued timer whose sequence has left liveTimers_ was
        // cancelled; plain events skip that lookup on the pop path.
        std::uint32_t slot;
    };

    static constexpr std::uint32_t kTimerBit = 0x8000'0000u;

    struct Later
    {
        bool
        operator()(const Key &a, const Key &b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            if (a.priority != b.priority)
                return a.priority > b.priority;
            return a.sequence > b.sequence;
        }
    };

    /** schedule() body; returns the event's sequence number. */
    std::uint64_t scheduleEvent(Tick when, Callback &&cb, int priority,
                                bool isTimer);

    /** now() + delay with an explicit overflow check. */
    Tick deadlineFromNow(Tick delay, const char *who) const;

    /**
     * Pop-and-execute the earliest live event whose tick is <= @p limit,
     * discarding cancelled timers along the way.
     * @return false when no eligible event remains.
     */
    bool runOne(Tick limit);

    /** Rebuild the heap without cancelled slots once they dominate it. */
    void maybeCompact();

    // An explicit vector heap (std::push_heap/pop_heap with Later, so
    // front() is the earliest key) instead of std::priority_queue,
    // whose const top() cannot hand the key off without a copy.
    std::vector<Key> heap_;

    // The slab. A slot is taken when its event is scheduled and goes
    // on freeSlots_ only when its key leaves heap_ — popped to run,
    // popped as a cancelled timer, or dropped by compaction. A
    // cancelled timer keeps its slot until then, so no key in heap_
    // can name a slot that was reused.
    std::vector<Callback> callbacks_;
    std::vector<std::uint32_t> freeSlots_;

    Tick now_ = 0;
    // Sequence numbers double as TimerIds, so 0 is reserved as the
    // invalid handle. Starting at 1 preserves relative ordering.
    std::uint64_t sequence_ = 1;
    std::uint64_t processed_ = 0;
    std::uint64_t compactions_ = 0;

    // The only cancellation record: cancelTimer erases the id from
    // liveTimers_, and a queued timer key whose sequence is absent is
    // cancelled. The set is bounded by the number of pending events
    // and never iterated, so hash order cannot leak into results.
    // Sequence numbers start at 1, so FlatSet64's reserved key 0 is
    // never needed.
    FlatSet64 liveTimers_;

    // Cancelled timer keys still in heap_, so pendingLive() stays O(1).
    size_t cancelledQueued_ = 0;
};

} // namespace accel::sim
