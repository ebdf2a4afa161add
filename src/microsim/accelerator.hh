/**
 * @file
 * Accelerator device model for the microservice simulator.
 *
 * A device with one or more service channels behind a FIFO queue. An
 * offload arrives after its interface transfer completes, waits for a
 * free channel, is served at the device's speedup factor, and invokes a
 * completion callback. Queue waits are emergent, giving the analytical
 * model's Q parameter a measurable counterpart.
 *
 * An optional FaultPlan makes the device misbehave deterministically:
 * transfers spike, completions arrive late or never, channels stall,
 * and the whole device can fail (and recover) at fixed ticks. Without a
 * plan the device takes the exact pre-fault code path, so fault-off
 * runs stay bit-identical.
 */

#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <string>

#include "faults/fault_plan.hh"
#include "sim/event_queue.hh"
#include "stats/online_stats.hh"

namespace accel::microsim {

/** Static description of an accelerator device. */
struct AcceleratorConfig
{
    /** A: service time = host-equivalent cycles / speedupFactor. */
    double speedupFactor = 1.0;

    /** Fixed interface transfer cycles per offload (part of L). */
    double fixedLatencyCycles = 0.0;

    /** Per-byte interface transfer cycles (the rest of L). */
    double latencyCyclesPerByte = 0.0;

    /** Parallel service channels. */
    std::uint32_t channels = 1;

    /** Optional deterministic misbehaviour schedule (null = healthy). */
    std::shared_ptr<const faults::FaultPlan> faultPlan;

    /** @throws FatalError on out-of-domain values (names the field). */
    void validate() const;
};

/** Observed device behaviour over a run. */
struct AcceleratorStats
{
    std::uint64_t served = 0;
    double busyCycles = 0.0;
    std::uint64_t maxQueueDepth = 0;
    OnlineStats queueWaitCycles;   //!< emergent Q per offload
    OnlineStats serviceCycles;
    OnlineStats transferCycles;

    // --- fault-plan outcomes (all zero on a healthy device) ---
    std::uint64_t droppedResponses = 0;  //!< served but response lost
    std::uint64_t lateResponses = 0;     //!< response delayed
    std::uint64_t spikedTransfers = 0;   //!< transfer-latency spikes
    std::uint64_t lostToDeviceFailure = 0; //!< discarded by reset
    std::uint64_t stallDeferrals = 0;    //!< service starts deferred

    /** Every counter above as one JSON object (report surface). */
    std::string summaryJson() const;
};

/** The device: transfer -> queue -> serve -> completion callback. */
class Accelerator
{
  public:
    /**
     * @param eq      simulation event queue (must outlive the device)
     * @param config  validated device description
     */
    Accelerator(sim::EventQueue &eq, const AcceleratorConfig &config);

    /**
     * Dispatch one offload.
     *
     * Under a fault plan the completion callback may be invoked late or
     * never (dropped response, device failure); callers that need to
     * survive that race a deadline timer against it.
     *
     * @param hostEquivalentCycles cycles the host would have spent
     * @param bytes                offload granularity (drives transfer)
     * @param onComplete           invoked when service finishes
     *                             (sink: moved into the device queue)
     * @param transferPaidByHost   true when the caller already held the
     *                             core for the transfer (driver-awaits-ack
     *                             designs); the device then skips its own
     *                             transfer delay so L is charged once
     */
    void offload(double hostEquivalentCycles, double bytes,
                 sim::InlineCallback &&onComplete,
                 bool transferPaidByHost = false);

    /** Clear statistics (used at the end of a warmup window). */
    void resetStats() { stats_ = AcceleratorStats{}; }

    /** Interface transfer cycles for a given granularity. */
    double transferCycles(double bytes) const;

    /** Observed statistics. */
    const AcceleratorStats &stats() const { return stats_; }

  private:
    struct Pending
    {
        double serviceCycles;
        sim::Tick enqueued;
        double lateResponseCycles;
        bool dropResponse;
        sim::InlineCallback onComplete;
    };

    sim::EventQueue &eq_;
    AcceleratorConfig config_;
    std::deque<Pending> queue_;
    std::uint32_t busyChannels_ = 0;
    AcceleratorStats stats_;

    // --- fault-plan state ---
    std::uint64_t offloadIndex_ = 0;  //!< issue-order slot for draws
    sim::Tick stallWakeAt_ = 0;       //!< pending stall-resume event
    bool recoveryWakeScheduled_ = false;

    void enqueue(Pending &&item);
    void tryServe();
    void finishService(Pending &&item);
};

} // namespace accel::microsim
