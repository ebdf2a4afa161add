#include "sim/event_queue.hh"

#include <algorithm>
#include <limits>
#include <string>
#include <utility>

#include "util/logging.hh"

namespace accel::sim {

Tick
EventQueue::deadlineFromNow(Tick delay, const char *who) const
{
    // now_ + delay wraps silently in uint64 arithmetic; the wrapped
    // value either trips the misleading "scheduling into the past"
    // fatal or — worse — lands >= now_ and silently schedules at the
    // wrong tick. Fail with the actual fields instead. The message is
    // built inside the branch: this is the per-event hot path, and a
    // require(cond, string) call would pay the formatting even when
    // the check passes.
    if (delay > std::numeric_limits<Tick>::max() - now_) {
        fatal(std::string(who) +
              ": now + delay overflows Tick (now=" +
              std::to_string(now_) +
              ", delay=" + std::to_string(delay) + ")");
    }
    return now_ + delay;
}

std::uint64_t
EventQueue::scheduleEvent(Tick when, Callback &&cb, int priority,
                          bool isTimer)
{
    require(when >= now_, "EventQueue: scheduling into the past");
    ensure(static_cast<bool>(cb), "EventQueue: empty callback");
    std::uint32_t slot;
    if (freeSlots_.empty()) {
        // The top bit of Key::slot is the timer tag.
        require(callbacks_.size() < kTimerBit,
                "EventQueue: too many pending events");
        slot = static_cast<std::uint32_t>(callbacks_.size());
        callbacks_.push_back(std::move(cb));
    } else {
        slot = freeSlots_.back();
        freeSlots_.pop_back();
        callbacks_[slot] = std::move(cb);
    }
    const std::uint64_t seq = sequence_++;
    heap_.push_back(Key{when, seq, priority, isTimer ? slot | kTimerBit
                                                     : slot});
    std::push_heap(heap_.begin(), heap_.end(), Later{});
    return seq;
}

void
EventQueue::schedule(Tick when, Callback &&cb, int priority)
{
    (void)scheduleEvent(when, std::move(cb), priority,
                        /*isTimer=*/false);
}

void
EventQueue::scheduleIn(Tick delay, Callback &&cb, int priority)
{
    schedule(deadlineFromNow(delay, "EventQueue::scheduleIn"),
             std::move(cb), priority);
}

TimerId
EventQueue::scheduleTimer(Tick when, Callback &&cb, int priority)
{
    const std::uint64_t seq =
        scheduleEvent(when, std::move(cb), priority, /*isTimer=*/true);
    liveTimers_.insert(seq);
    return seq;
}

TimerId
EventQueue::scheduleTimerIn(Tick delay, Callback &&cb, int priority)
{
    return scheduleTimer(
        deadlineFromNow(delay, "EventQueue::scheduleTimerIn"),
        std::move(cb), priority);
}

bool
EventQueue::cancelTimer(TimerId id)
{
    if (liveTimers_.erase(id) == 0)
        return false;
    // The queued key stays in place; leaving liveTimers_ is what marks
    // it cancelled (its timer bit makes the pop path check).
    ++cancelledQueued_;
    maybeCompact();
    return true;
}

void
EventQueue::maybeCompact()
{
    // A cancelled timer's key otherwise persists until its tick
    // drains. Workloads that arm a long timer per operation and cancel
    // almost all of them early — hedged offloads and per-attempt
    // watchdogs are the motivating case — would grow the heap with the
    // number of timers ever cancelled, not the number outstanding.
    // Once cancelled keys dominate the heap, rebuild it without them:
    // amortized O(1) per cancellation, and results cannot change
    // because pop order is the total (when, priority, sequence) order,
    // independent of heap layout.
    if (cancelledQueued_ < kCompactMinCancelled ||
        cancelledQueued_ * 2 < heap_.size()) {
        return;
    }
    size_t kept = 0;
    for (const Key &key : heap_) {
        if ((key.slot & kTimerBit) != 0 &&
            !liveTimers_.contains(key.sequence)) {
            const std::uint32_t slot = key.slot & ~kTimerBit;
            callbacks_[slot] = nullptr;
            freeSlots_.push_back(slot);
        } else {
            heap_[kept++] = key;
        }
    }
    heap_.resize(kept);
    std::make_heap(heap_.begin(), heap_.end(), Later{});
    cancelledQueued_ = 0;
    ++compactions_;
}

bool
EventQueue::runOne(Tick limit)
{
    while (!heap_.empty() && heap_.front().when <= limit) {
        const Key key = heap_.front();
        std::pop_heap(heap_.begin(), heap_.end(), Later{});
        heap_.pop_back();
        // Detach the callback before it runs: it may schedule events,
        // which can reuse this slot or grow the slab.
        const std::uint32_t slot = key.slot & ~kTimerBit;
        Callback cb = std::move(callbacks_[slot]);
        freeSlots_.push_back(slot);
        if ((key.slot & kTimerBit) != 0 &&
            liveTimers_.erase(key.sequence) == 0) {
            // Cancelled timer: drop (releasing its captures) without
            // running or advancing the clock.
            --cancelledQueued_;
            continue;
        }
        now_ = key.when;
        ++processed_;
        cb();
        return true;
    }
    return false;
}

bool
EventQueue::runNext()
{
    return runOne(std::numeric_limits<Tick>::max());
}

void
EventQueue::runUntil(Tick limit)
{
    while (runOne(limit)) {
    }
    if (now_ < limit)
        now_ = limit;
}

void
EventQueue::runAll()
{
    while (runNext()) {
    }
}

} // namespace accel::sim
