/**
 * @file
 * Parameter sweeps over the Accelerometer model.
 *
 * Architects use these to see where speedup saturates or collapses as a
 * single parameter varies (paper §3 "Applying the Accelerometer model"):
 * accelerator factor A, interface latency L, offload count n, kernel
 * fraction α, and accelerator load (via M/M/1-derived Q).
 */

#pragma once

#include <functional>
#include <vector>

#include "model/accelerometer.hh"

namespace accel::model {

/** One sweep sample: the independent variable and both projections. */
struct SweepPoint
{
    double x;
    Projection projection;
};

/** Evenly spaced values in [lo, hi] (inclusive); count >= 2. */
std::vector<double> linspace(double lo, double hi, size_t count);

/** Logarithmically spaced values in [lo, hi]; requires 0 < lo <= hi. */
std::vector<double> logspace(double lo, double hi, size_t count);

/**
 * Generic sweep: for each x, @p apply mutates a copy of @p base, then the
 * model is evaluated under @p design.
 *
 * Points are evaluated on the global worker pool (see
 * util/thread_pool.hh; ACCEL_JOBS controls the width). Results are
 * written by input index, so the vector is bit-identical to a serial
 * evaluation for every worker count. @p apply must be safe to call
 * concurrently on distinct Params copies.
 */
std::vector<SweepPoint>
sweep(const Params &base, ThreadingDesign design,
      const std::vector<double> &xs,
      const std::function<void(Params &, double)> &apply);

/** Sweep the accelerator speedup factor A. */
std::vector<SweepPoint>
sweepAccelFactor(const Params &base, ThreadingDesign design,
                 const std::vector<double> &factors);

/** Sweep the interface latency L (cycles). */
std::vector<SweepPoint>
sweepInterfaceLatency(const Params &base, ThreadingDesign design,
                      const std::vector<double> &latencies);

/** Sweep the kernel fraction α. */
std::vector<SweepPoint>
sweepAlpha(const Params &base, ThreadingDesign design,
           const std::vector<double> &alphas);

/**
 * Sweep accelerator load: for each offered load (offloads/s), Q is set
 * from the M/M/1 wait at that load and n is set to the load. Points with
 * utilization >= 1 (a saturated accelerator has no finite steady-state
 * wait) are omitted with a warning; pass @p omittedOut to observe how
 * many inputs were dropped — a fully saturated sweep returns an empty
 * vector, which is otherwise indistinguishable from empty input.
 *
 * @param serviceCycles  accelerator service time per offload
 * @param clockHz        host clock in cycles per second
 * @param omittedOut     optional out-count of omitted load points
 */
std::vector<SweepPoint>
sweepLoad(const Params &base, ThreadingDesign design, double serviceCycles,
          double clockHz, const std::vector<double> &loads,
          size_t *omittedOut = nullptr);

} // namespace accel::model
