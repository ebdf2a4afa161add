/**
 * @file
 * Parameter sweeps over the Accelerometer model.
 *
 * Architects use these to see where speedup saturates or collapses as a
 * single parameter varies (paper §3 "Applying the Accelerometer model"),
 * e.g. the accelerator factor A.
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

} // namespace accel::model
