#include "faults/edge_fault_plan.hh"

#include <cmath>

#include "util/logging.hh"
#include "util/rng.hh"

namespace accel::faults {

namespace {

/** Distinct from the device plan's stream: same (seed, index) pair on
 *  a device and an edge must not correlate. */
constexpr std::uint64_t kEdgeFaultStream = 0xed6efa17ULL;

void
requireProbability(double p, const char *field)
{
    require(std::isfinite(p) && p >= 0.0 && p <= 1.0,
            std::string("EdgeFaultPlan.") + field + " must be in [0, 1]");
}

} // namespace

bool
EdgeFaultPlan::active() const
{
    return dropProbability > 0.0 || spikeProbability > 0.0 ||
           !blackholes.empty();
}

bool
EdgeFaultPlan::canLoseCalls() const
{
    return dropProbability > 0.0 || !blackholes.empty();
}

void
EdgeFaultPlan::validate() const
{
    requireProbability(dropProbability, "dropProbability");
    requireProbability(spikeProbability, "spikeProbability");
    require(std::isfinite(spikeLatencyCycles) && spikeLatencyCycles >= 0.0,
            "EdgeFaultPlan.spikeLatencyCycles must be finite and >= 0");
    require(spikeProbability == 0.0 || spikeLatencyCycles > 0.0,
            "EdgeFaultPlan.spikeLatencyCycles must be > 0 when "
            "spikeProbability > 0");
    require(spikeWindows.empty() || spikeProbability > 0.0,
            "EdgeFaultPlan.spikeWindows without spikeProbability > 0 "
            "narrows a spike that never fires");
    requireWindows(spikeWindows, "EdgeFaultPlan.spikeWindows");
    requireWindows(blackholes, "EdgeFaultPlan.blackholes");
}

EdgeFaultDraw
EdgeFaultPlan::draw(std::uint64_t callSlot) const
{
    EdgeFaultDraw d;
    // One throwaway generator per call keeps the draw a pure function
    // of (seed, slot): fault outcomes cannot shift when retries or
    // scheduling change the order in which calls issue.
    Rng rng(slotSeed(seed, callSlot), kEdgeFaultStream);
    if (spikeProbability > 0.0 && rng.chance(spikeProbability))
        d.extraLatencyCycles = spikeLatencyCycles;
    if (dropProbability > 0.0 && rng.chance(dropProbability))
        d.drop = true; // a dropped call's spike draw is moot
    return d;
}

bool
EdgeFaultPlan::blackholedAt(sim::Tick t) const
{
    return windowAt(blackholes, t) != nullptr;
}

bool
EdgeFaultPlan::spikeActiveAt(sim::Tick t) const
{
    return spikeWindows.empty() || windowAt(spikeWindows, t) != nullptr;
}

} // namespace accel::faults
