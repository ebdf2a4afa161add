#include "model/accelerometer.hh"

#include <cmath>
#include <limits>

#include "util/logging.hh"

namespace accel::model {

namespace {

/**
 * Thread-switch cycles charged per offload on the *throughput* path:
 * Sync-OS pays two switches (away and back, paper eq. 3); a distinct
 * async response thread pays one; other designs pay none.
 */
double
speedupSwitches(ThreadingDesign design)
{
    switch (design) {
      case ThreadingDesign::SyncOS:
        return 2.0;
      case ThreadingDesign::AsyncDistinctThread:
        return 1.0;
      default:
        return 0.0;
    }
}

/**
 * Thread-switch cycles charged per offload on the *latency* path (paper
 * eq. 5 charges a single o1 for designs that re-schedule a thread).
 */
double
latencySwitches(ThreadingDesign design)
{
    switch (design) {
      case ThreadingDesign::SyncOS:
      case ThreadingDesign::AsyncDistinctThread:
        return 1.0;
      default:
        return 0.0;
    }
}

/** True when accelerator execution time sits on the throughput path. */
bool
accelOnSpeedupPath(ThreadingDesign design)
{
    return design == ThreadingDesign::Sync;
}

/** True when accelerator execution time sits on the request-latency path. */
bool
accelOnLatencyPath(ThreadingDesign design, Strategy strategy)
{
    if (design == ThreadingDesign::AsyncNoResponse &&
        strategy == Strategy::Remote) {
        // The remote accelerator operates after this service is done with
        // the request; its time shows up in the application's end-to-end
        // latency, not this microservice's request latency (paper §3).
        return false;
    }
    return true;
}

} // namespace

Accelerometer::Accelerometer(Params params)
    : params_(params)
{
    params_.validate();
}

double
Accelerometer::overheadFraction(double per_offload_cycles) const
{
    return params_.offloads * per_offload_cycles / params_.hostCycles;
}

double
Accelerometer::acceleratorFraction() const
{
    return params_.alpha * params_.offloadedFraction / params_.accelFactor;
}

double
Accelerometer::hostResidentFraction() const
{
    // Non-kernel work plus the kernel cycles whose granularity was below
    // break-even and therefore stays on the host.
    return (1.0 - params_.alpha) +
           params_.alpha * (1.0 - params_.offloadedFraction);
}

double
Accelerometer::acceleratedHostCycles(ThreadingDesign design) const
{
    double per_offload = params_.dispatchCycles() +
        speedupSwitches(design) * params_.threadSwitchCycles;
    double frac = hostResidentFraction() + overheadFraction(per_offload);
    if (accelOnSpeedupPath(design))
        frac += acceleratorFraction();
    return frac * params_.hostCycles;
}

double
Accelerometer::acceleratedRequestCycles(ThreadingDesign design) const
{
    double per_offload = params_.dispatchCycles() +
        latencySwitches(design) * params_.threadSwitchCycles;
    double frac = hostResidentFraction() + overheadFraction(per_offload);
    if (accelOnLatencyPath(design, params_.strategy))
        frac += acceleratorFraction();
    return frac * params_.hostCycles;
}

double
Accelerometer::speedup(ThreadingDesign design) const
{
    return params_.hostCycles / acceleratedHostCycles(design);
}

double
Accelerometer::latencyReduction(ThreadingDesign design) const
{
    return params_.hostCycles / acceleratedRequestCycles(design);
}

Projection
Accelerometer::project(ThreadingDesign design) const
{
    return {speedup(design), latencyReduction(design)};
}

double
Accelerometer::idealSpeedup() const
{
    if (params_.alpha >= 1.0)
        return std::numeric_limits<double>::infinity();
    return 1.0 / (1.0 - params_.alpha);
}

bool
Accelerometer::profitable(ThreadingDesign design) const
{
    return speedup(design) > 1.0;
}

double
OffloadProfit::hostKernelCycles(double granularity) const
{
    require(granularity >= 0, "OffloadProfit: negative granularity");
    return cyclesPerByte * std::pow(granularity, beta);
}

namespace {

/**
 * Generic per-offload profitability: host cycles saved must exceed the
 * cycles spent offloading. @p accel_factor is (1 - 1/A) when the
 * accelerator is on the relevant path, 1 otherwise.
 */
bool
offloadWins(double host_cycles, double accel_factor, double overhead)
{
    return host_cycles * accel_factor > overhead;
}

double
solveBreakEven(double cycles_per_byte, double beta, double accel_factor,
               double overhead)
{
    if (accel_factor <= 0.0) {
        // A = 1 with accelerator time on the critical path: offloading
        // can never save cycles.
        return overhead > 0.0 ? std::numeric_limits<double>::infinity()
                              : 0.0;
    }
    if (overhead <= 0.0)
        return 0.0;
    double g = overhead / (cycles_per_byte * accel_factor);
    return std::pow(g, 1.0 / beta);
}

} // namespace

bool
OffloadProfit::improvesSpeedup(double granularity, ThreadingDesign design,
                               const Params &params) const
{
    double overhead = params.dispatchCycles() +
        speedupSwitches(design) * params.threadSwitchCycles;
    double factor = accelOnSpeedupPath(design)
        ? 1.0 - 1.0 / params.accelFactor : 1.0;
    return offloadWins(hostKernelCycles(granularity), factor, overhead);
}

double
OffloadProfit::breakEvenSpeedup(ThreadingDesign design,
                                const Params &params) const
{
    require(cyclesPerByte > 0, "OffloadProfit: Cb must be positive");
    require(beta > 0, "OffloadProfit: beta must be positive");
    double overhead = params.dispatchCycles() +
        speedupSwitches(design) * params.threadSwitchCycles;
    double factor = accelOnSpeedupPath(design)
        ? 1.0 - 1.0 / params.accelFactor : 1.0;
    return solveBreakEven(cyclesPerByte, beta, factor, overhead);
}

double
OffloadProfit::breakEvenLatency(ThreadingDesign design,
                                const Params &params) const
{
    require(cyclesPerByte > 0, "OffloadProfit: Cb must be positive");
    require(beta > 0, "OffloadProfit: beta must be positive");
    double overhead = params.dispatchCycles() +
        latencySwitches(design) * params.threadSwitchCycles;
    double factor = accelOnLatencyPath(design, params.strategy)
        ? 1.0 - 1.0 / params.accelFactor : 1.0;
    return solveBreakEven(cyclesPerByte, beta, factor, overhead);
}

} // namespace accel::model
