/**
 * @file
 * Deterministic fault schedules for the accelerator device model.
 *
 * A FaultPlan describes how a device misbehaves over a run: windows in
 * which channels stall, per-offload probabilities of a dropped or late
 * completion, transfer-latency spikes, and a whole-device failure (with
 * optional recovery) at fixed ticks. The plan is pure data plus a
 * slot-indexed draw: the faults hitting offload #i depend only on
 * (seed, i), never on event interleaving, so a seeded run replays
 * bit-identically and parallel sweeps stay worker-count independent.
 *
 * The null plan (no fields set) is the absence of the subsystem: a
 * device without a plan takes zero extra branches and zero RNG draws,
 * which is what keeps fault-off outputs bit-identical to a tree that
 * never had this layer.
 */

#pragma once

#include <cstdint>
#include <vector>

#include "sim/event_queue.hh"

namespace accel::faults {

/** Half-open window [begin, end) in simulated ticks. */
struct StallWindow
{
    sim::Tick begin = 0;
    sim::Tick end = 0;
};

/**
 * @throws FatalError unless every window has begin < end and the list
 * is sorted by begin and disjoint; @p field names the list in the
 * message (e.g. "FaultPlan.stallWindows").
 */
void requireWindows(const std::vector<StallWindow> &windows,
                    const char *field);

/** The window of a sorted, disjoint list containing @p t, else null. */
const StallWindow *windowAt(const std::vector<StallWindow> &windows,
                            sim::Tick t);

/** Faults applied to one offload, fixed by (seed, offload index). */
struct FaultDraw
{
    /** Completion is lost: the device serves but never responds. */
    bool dropResponse = false;

    /** Extra cycles before the completion is delivered. */
    double lateResponseCycles = 0.0;

    /** Multiplier on the interface transfer latency. */
    double transferFactor = 1.0;
};

/** Sentinel for "this tick never arrives". */
constexpr sim::Tick kNeverTick = ~static_cast<sim::Tick>(0);

/** A seeded, fully deterministic device-misbehaviour schedule. */
struct FaultPlan
{
    /** Seed for the per-offload fault draws. */
    std::uint64_t seed = 1;

    /** Probability an offload's completion is silently lost. */
    double dropProbability = 0.0;

    /** Probability a completion is delayed by lateDelayCycles. */
    double lateProbability = 0.0;
    double lateDelayCycles = 0.0;

    /** Probability the transfer is multiplied by spikeFactor. */
    double transferSpikeProbability = 0.0;
    double transferSpikeFactor = 1.0;

    /**
     * Windows in which no channel starts new work (queued offloads
     * wait; in-flight service finishes normally). Must be sorted by
     * begin and non-overlapping.
     */
    std::vector<StallWindow> stallWindows;

    /**
     * Whole-device failure: from deviceFailAtTick until
     * deviceRecoverAtTick the device resets — queued and arriving
     * offloads are discarded and in-flight completions are lost.
     * kNeverTick disables failure / recovery respectively.
     */
    sim::Tick deviceFailAtTick = kNeverTick;
    sim::Tick deviceRecoverAtTick = kNeverTick;

    /** True when any fault field departs from the null plan. */
    bool active() const;

    /** @throws FatalError on out-of-domain values (names the field). */
    void validate() const;

    /**
     * Faults for offload number @p offloadIndex (0-based issue order).
     * Pure function of (seed, offloadIndex) — the slot-indexed RNG
     * discipline: a retry is a new offload and gets an independent
     * draw.
     */
    FaultDraw draw(std::uint64_t offloadIndex) const;

    /** True when @p t falls inside a stall window. */
    bool stalledAt(sim::Tick t) const;

    /**
     * End of the stall window containing @p t, or @p t itself when the
     * device is not stalled.
     */
    sim::Tick stallEnd(sim::Tick t) const;

    /** True when the device is failed (reset) at @p t. */
    bool failedAt(sim::Tick t) const;
};

} // namespace accel::faults
