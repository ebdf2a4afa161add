#include "model/sweep.hh"

#include "util/thread_pool.hh"

namespace accel::model {

std::vector<SweepPoint>
sweep(const Params &base, ThreadingDesign design,
      const std::vector<double> &xs,
      const std::function<void(Params &, double)> &apply)
{
    // Each point is a pure function of (base, design, xs[i]); evaluate
    // them across the worker pool, each writing its own pre-sized slot
    // so the result is bit-identical to the serial loop.
    std::vector<SweepPoint> points(xs.size());
    parallelFor(xs.size(), [&](size_t i) {
        Params p = base;
        apply(p, xs[i]);
        Accelerometer model(p);
        points[i] = {xs[i], model.project(design)};
    });
    return points;
}

std::vector<SweepPoint>
sweepAccelFactor(const Params &base, ThreadingDesign design,
                 const std::vector<double> &factors)
{
    return sweep(base, design, factors,
                 [](Params &p, double x) { p.accelFactor = x; });
}

} // namespace accel::model
