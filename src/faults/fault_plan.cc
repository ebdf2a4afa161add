#include "faults/fault_plan.hh"

#include <cmath>

#include "util/logging.hh"
#include "util/rng.hh"

namespace accel::faults {

namespace {

constexpr std::uint64_t kFaultStream = 0xfa0175ULL;

void
requireProbability(double p, const char *field)
{
    require(std::isfinite(p) && p >= 0.0 && p <= 1.0,
            std::string("FaultPlan.") + field + " must be in [0, 1]");
}

} // namespace

void
requireWindows(const std::vector<StallWindow> &windows, const char *field)
{
    sim::Tick prev_end = 0;
    for (const StallWindow &w : windows) {
        require(w.begin < w.end,
                std::string(field) + " entries must have begin < end");
        require(w.begin >= prev_end,
                std::string(field) + " must be sorted and disjoint");
        prev_end = w.end;
    }
}

const StallWindow *
windowAt(const std::vector<StallWindow> &windows, sim::Tick t)
{
    for (const StallWindow &w : windows) {
        if (t < w.begin)
            break; // sorted: later windows can't contain t
        if (t < w.end)
            return &w;
    }
    return nullptr;
}

bool
FaultPlan::active() const
{
    return dropProbability > 0.0 || lateProbability > 0.0 ||
           transferSpikeProbability > 0.0 || !stallWindows.empty() ||
           deviceFailAtTick != kNeverTick;
}

void
FaultPlan::validate() const
{
    requireProbability(dropProbability, "dropProbability");
    requireProbability(lateProbability, "lateProbability");
    requireProbability(transferSpikeProbability,
                       "transferSpikeProbability");
    require(std::isfinite(lateDelayCycles) && lateDelayCycles >= 0.0,
            "FaultPlan.lateDelayCycles must be finite and >= 0");
    require(std::isfinite(transferSpikeFactor) &&
                transferSpikeFactor >= 1.0,
            "FaultPlan.transferSpikeFactor must be finite and >= 1");
    require(lateProbability == 0.0 || lateDelayCycles > 0.0,
            "FaultPlan.lateDelayCycles must be > 0 when "
            "lateProbability > 0");
    requireWindows(stallWindows, "FaultPlan.stallWindows");
    if (deviceFailAtTick == kNeverTick) {
        require(deviceRecoverAtTick == kNeverTick,
                "FaultPlan.deviceRecoverAtTick needs deviceFailAtTick");
    } else if (deviceRecoverAtTick != kNeverTick) {
        require(deviceFailAtTick < deviceRecoverAtTick,
                "FaultPlan.deviceRecoverAtTick must follow "
                "deviceFailAtTick");
    }
}

FaultDraw
FaultPlan::draw(std::uint64_t offloadIndex) const
{
    FaultDraw d;
    // One throwaway generator per offload keeps the draw a pure
    // function of (seed, index): fault outcomes cannot shift when
    // retries or scheduling change the order in which offloads issue.
    Rng rng(slotSeed(seed, offloadIndex), kFaultStream);
    if (transferSpikeProbability > 0.0 &&
        rng.chance(transferSpikeProbability)) {
        d.transferFactor = transferSpikeFactor;
    }
    if (dropProbability > 0.0 && rng.chance(dropProbability)) {
        d.dropResponse = true;
        return d; // a dropped completion can't also be late
    }
    if (lateProbability > 0.0 && rng.chance(lateProbability))
        d.lateResponseCycles = lateDelayCycles;
    return d;
}

bool
FaultPlan::stalledAt(sim::Tick t) const
{
    return windowAt(stallWindows, t) != nullptr;
}

sim::Tick
FaultPlan::stallEnd(sim::Tick t) const
{
    const StallWindow *w = windowAt(stallWindows, t);
    return w ? w->end : t;
}

bool
FaultPlan::failedAt(sim::Tick t) const
{
    if (deviceFailAtTick == kNeverTick || t < deviceFailAtTick)
        return false;
    return deviceRecoverAtTick == kNeverTick || t < deviceRecoverAtTick;
}

} // namespace accel::faults
