#include "microsim/accelerator.hh"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <utility>

#include "util/json_fmt.hh"
#include "util/logging.hh"

namespace accel::microsim {

std::string
AcceleratorStats::summaryJson() const
{
    std::ostringstream os;
    os << "{\"served\": " << served << ", \"busy_cycles\": "
       << jsonNumber(busyCycles) << ", \"max_queue_depth\": "
       << maxQueueDepth << ", \"queue_wait_cycles\": "
       << queueWaitCycles.summaryJson() << ", \"service_cycles\": "
       << serviceCycles.summaryJson() << ", \"transfer_cycles\": "
       << transferCycles.summaryJson() << ", \"dropped_responses\": "
       << droppedResponses << ", \"late_responses\": " << lateResponses
       << ", \"spiked_transfers\": " << spikedTransfers
       << ", \"lost_to_device_failure\": " << lostToDeviceFailure
       << ", \"stall_deferrals\": " << stallDeferrals << "}";
    return os.str();
}

void
AcceleratorConfig::validate() const
{
    require(std::isfinite(speedupFactor) && speedupFactor >= 1.0,
            "AcceleratorConfig.speedupFactor must be finite and >= 1");
    require(std::isfinite(fixedLatencyCycles) && fixedLatencyCycles >= 0,
            "AcceleratorConfig.fixedLatencyCycles must be finite and "
            ">= 0");
    require(std::isfinite(latencyCyclesPerByte) &&
                latencyCyclesPerByte >= 0,
            "AcceleratorConfig.latencyCyclesPerByte must be finite and "
            ">= 0");
    require(channels >= 1, "AcceleratorConfig.channels must be >= 1");
    if (faultPlan)
        faultPlan->validate();
}

Accelerator::Accelerator(sim::EventQueue &eq,
                         const AcceleratorConfig &config)
    : eq_(eq), config_(config)
{
    config_.validate();
    // An inert plan (all defaults) is dropped here so every later
    // check is a single null test and fault-off behaviour is the
    // pre-fault code path.
    if (config_.faultPlan && !config_.faultPlan->active())
        config_.faultPlan.reset();
}

double
Accelerator::transferCycles(double bytes) const
{
    return config_.fixedLatencyCycles +
           config_.latencyCyclesPerByte * bytes;
}

void
Accelerator::offload(double hostEquivalentCycles, double bytes,
                     OffloadCallback &&onComplete,
                     bool transferPaidByHost)
{
    require(hostEquivalentCycles >= 0, "Accelerator: negative work");
    require(bytes >= 0, "Accelerator: negative granularity");

    double transfer = transferPaidByHost ? 0.0 : transferCycles(bytes);

    Pending item;
    item.serviceCycles = hostEquivalentCycles / config_.speedupFactor;
    item.onComplete = std::move(onComplete);

    if (const faults::FaultPlan *plan = config_.faultPlan.get()) {
        faults::FaultDraw d = plan->draw(offloadIndex_++);
        if (d.transferFactor != 1.0 && !transferPaidByHost) {
            // Host-paid transfers were already charged at the nominal
            // latency on the core; spikes only hit the device-side leg.
            transfer *= d.transferFactor;
            ++stats_.spikedTransfers;
        }
        item.dropResponse = d.dropResponse;
        item.lateResponseCycles = d.lateResponseCycles;
    }
    stats_.transferCycles.add(transfer);

    // The offload reaches the device queue after the transfer completes.
    const PendingHandle h = pending_.acquire(std::move(item));
    eq_.scheduleIn(static_cast<sim::Tick>(std::llround(transfer)),
                   [this, h]() { enqueue(h); });
}

void
Accelerator::report(PendingHandle h, bool delivered)
{
    // Moved out before it runs: the caller may offload again, which
    // can reuse this slot or grow the pool.
    OffloadCallback onComplete = std::move(pending_.at(h).onComplete);
    pending_.release(h);
    onComplete(delivered);
}

void
Accelerator::enqueue(PendingHandle h)
{
    if (config_.faultPlan && config_.faultPlan->failedAt(eq_.now())) {
        // The device is resetting: the request vanishes at the
        // interface.
        ++stats_.lostToDeviceFailure;
        report(h, /*delivered=*/false);
        return;
    }
    pending_.at(h).enqueued = eq_.now();
    if (queueCount_ == queue_.size()) {
        // Unroll the ring into a buffer twice the size, oldest first.
        std::vector<PendingHandle> grown(std::max<std::size_t>(
            8, 2 * queue_.size()));
        for (std::size_t i = 0; i < queueCount_; ++i)
            grown[i] = queue_[(queueHead_ + i) % queue_.size()];
        queue_ = std::move(grown);
        queueHead_ = 0;
    }
    queue_[(queueHead_ + queueCount_) % queue_.size()] = h;
    ++queueCount_;
    stats_.maxQueueDepth =
        std::max<std::uint64_t>(stats_.maxQueueDepth, queueCount_);
    tryServe();
}

Accelerator::PendingHandle
Accelerator::popQueue()
{
    const PendingHandle h = queue_[queueHead_];
    queueHead_ = (queueHead_ + 1) % queue_.size();
    --queueCount_;
    return h;
}

void
Accelerator::tryServe()
{
    const faults::FaultPlan *plan = config_.faultPlan.get();
    if (plan && plan->failedAt(eq_.now())) {
        // Device reset: everything queued is lost. Wake up at the
        // recovery tick (if one exists) to resume service.
        while (queueCount_ > 0) {
            ++stats_.lostToDeviceFailure;
            report(popQueue(), /*delivered=*/false);
        }
        if (plan->deviceRecoverAtTick != faults::kNeverTick &&
            !recoveryWakeScheduled_) {
            recoveryWakeScheduled_ = true;
            eq_.schedule(plan->deviceRecoverAtTick,
                         [this]() { tryServe(); });
        }
        return;
    }
    if (plan && queueCount_ > 0 && plan->stalledAt(eq_.now())) {
        // Channel stall: nothing new starts until the window ends.
        ++stats_.stallDeferrals;
        sim::Tick end = plan->stallEnd(eq_.now());
        if (stallWakeAt_ != end) {
            stallWakeAt_ = end;
            eq_.schedule(end, [this]() { tryServe(); });
        }
        return;
    }
    while (busyChannels_ < config_.channels && queueCount_ > 0) {
        const PendingHandle h = popQueue();
        ++busyChannels_;

        const Pending &item = pending_.at(h);
        double wait = static_cast<double>(eq_.now() - item.enqueued);
        stats_.queueWaitCycles.add(wait);
        stats_.serviceCycles.add(item.serviceCycles);
        stats_.busyCycles += item.serviceCycles;

        eq_.scheduleIn(
            static_cast<sim::Tick>(std::llround(item.serviceCycles)),
            [this, h]() { finishService(h); });
    }
}

void
Accelerator::finishService(PendingHandle h)
{
    ensure(busyChannels_ > 0, "Accelerator: channel underflow");
    --busyChannels_;
    const faults::FaultPlan *plan = config_.faultPlan.get();
    if (plan && plan->failedAt(eq_.now())) {
        // The reset raced the in-flight work: its completion is lost.
        ++stats_.lostToDeviceFailure;
        report(h, /*delivered=*/false);
        tryServe();
        return;
    }
    ++stats_.served;
    const Pending &item = pending_.at(h);
    if (item.dropResponse) {
        ++stats_.droppedResponses;
        report(h, /*delivered=*/false);
    } else if (item.lateResponseCycles > 0) {
        ++stats_.lateResponses;
        eq_.scheduleIn(static_cast<sim::Tick>(
                           std::llround(item.lateResponseCycles)),
                       [this, h]() { report(h, /*delivered=*/true); });
    } else {
        report(h, /*delivered=*/true);
    }
    tryServe();
}

} // namespace accel::microsim
