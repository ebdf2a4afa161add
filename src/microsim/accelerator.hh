/**
 * @file
 * Accelerator device model for the microservice simulator.
 *
 * A device with one or more service channels behind a FIFO queue. An
 * offload arrives after its interface transfer completes, waits for a
 * free channel, is served at the device's speedup factor, and reports
 * its outcome through a callback. Queue waits are emergent, giving the
 * analytical model's Q parameter a measurable counterpart.
 *
 * An optional FaultPlan makes the device misbehave deterministically:
 * transfers spike, responses arrive late or are dropped, channels
 * stall, and the whole device can fail (and recover) at fixed ticks.
 * Every offload still reports exactly once: a lost one reports false.
 * Without a plan the device takes the exact pre-fault code path, so
 * fault-off runs stay bit-identical.
 */

#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "faults/fault_plan.hh"
#include "sim/event_queue.hh"
#include "stats/online_stats.hh"
#include "util/slot_pool.hh"

namespace accel::microsim {

/**
 * Outcome callback of one offload. It runs exactly once: with true when
 * the response arrives, with false when the device loses the offload
 * (see Accelerator::offload).
 */
using OffloadCallback = sim::InlineFunction<void(bool delivered)>;

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
     * @p onComplete runs exactly once. It gets true when the response
     * arrives, which under a fault plan may be late. It gets false, at
     * the tick the offload is lost, when the device is failed as the
     * transfer arrives, a reset clears the queue or hits the offload in
     * service, or the response is dropped. A false outcome means no
     * response will ever come; callers that need an answer in time
     * still race a deadline timer against the true one.
     *
     * @param hostEquivalentCycles cycles the host would have spent
     * @param bytes                offload granularity (drives transfer)
     * @param onComplete           outcome callback (sink: moved into
     *                             the device's record of the offload)
     * @param transferPaidByHost   true when the caller already held the
     *                             core for the transfer (driver-awaits-ack
     *                             designs); the device then skips its own
     *                             transfer delay so L is charged once
     */
    void offload(double hostEquivalentCycles, double bytes,
                 OffloadCallback &&onComplete,
                 bool transferPaidByHost = false);

    /** Clear statistics (used at the end of a warmup window). */
    void resetStats() { stats_ = AcceleratorStats{}; }

    /** Interface transfer cycles for a given granularity. */
    double transferCycles(double bytes) const;

    /** Observed statistics. */
    const AcceleratorStats &stats() const { return stats_; }

    /** Offloads whose outcome has not been reported yet. */
    std::size_t liveRecords() const { return pending_.live(); }

  private:
    /**
     * One offload from dispatch until its outcome is reported. Its
     * transfer, service and late-response events name it by handle.
     */
    struct Pending
    {
        double serviceCycles = 0.0;
        sim::Tick enqueued = 0;
        double lateResponseCycles = 0.0;
        bool dropResponse = false;
        OffloadCallback onComplete;
    };
    using PendingHandle = SlotPool<Pending>::Handle;

    sim::EventQueue &eq_;
    AcceleratorConfig config_;
    SlotPool<Pending> pending_;
    /**
     * FIFO ring of queued offloads: queueCount_ handles from
     * queueHead_, wrapping. It doubles when full, so a steady queue
     * allocates nothing.
     */
    std::vector<PendingHandle> queue_;
    std::size_t queueHead_ = 0;
    std::size_t queueCount_ = 0;
    std::uint32_t busyChannels_ = 0;
    AcceleratorStats stats_;

    // --- fault-plan state ---
    std::uint64_t offloadIndex_ = 0;  //!< issue-order slot for draws
    sim::Tick stallWakeAt_ = 0;       //!< pending stall-resume event
    bool recoveryWakeScheduled_ = false;

    void enqueue(PendingHandle h);
    PendingHandle popQueue();
    void tryServe();
    void finishService(PendingHandle h);

    /** Release @p h's record, then report @p delivered to its caller. */
    void report(PendingHandle h, bool delivered);
};

} // namespace accel::microsim
