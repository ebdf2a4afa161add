#include "model/sweep.hh"

#include <cmath>
#include <string>

#include "model/queueing.hh"
#include "util/logging.hh"
#include "util/thread_pool.hh"

namespace accel::model {

std::vector<double>
linspace(double lo, double hi, size_t count)
{
    require(count >= 2, "linspace: need at least two points");
    require(hi >= lo, "linspace: hi must be >= lo");
    std::vector<double> xs(count);
    double step = (hi - lo) / static_cast<double>(count - 1);
    for (size_t i = 0; i < count; ++i)
        xs[i] = lo + step * static_cast<double>(i);
    return xs;
}

std::vector<double>
logspace(double lo, double hi, size_t count)
{
    require(count >= 2, "logspace: need at least two points");
    require(lo > 0 && hi >= lo, "logspace: need 0 < lo <= hi");
    std::vector<double> xs(count);
    double ratio = std::pow(hi / lo, 1.0 / static_cast<double>(count - 1));
    double v = lo;
    for (size_t i = 0; i < count; ++i) {
        xs[i] = v;
        v *= ratio;
    }
    return xs;
}

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

std::vector<SweepPoint>
sweepInterfaceLatency(const Params &base, ThreadingDesign design,
                      const std::vector<double> &latencies)
{
    return sweep(base, design, latencies,
                 [](Params &p, double x) { p.interfaceCycles = x; });
}

std::vector<SweepPoint>
sweepAlpha(const Params &base, ThreadingDesign design,
           const std::vector<double> &alphas)
{
    return sweep(base, design, alphas,
                 [](Params &p, double x) { p.alpha = x; });
}

std::vector<SweepPoint>
sweepLoad(const Params &base, ThreadingDesign design, double serviceCycles,
          double clockHz, const std::vector<double> &loads,
          size_t *omittedOut)
{
    // Stability is a cheap test; run it first so the parallel phase
    // evaluates exactly the surviving loads, in input order.
    std::vector<double> stable;
    stable.reserve(loads.size());
    for (double load : loads) {
        if (utilization(serviceCycles, load, clockHz) < 1.0)
            stable.push_back(load);
    }
    size_t omitted = loads.size() - stable.size();
    if (omittedOut != nullptr)
        *omittedOut = omitted;
    if (omitted > 0) {
        warn("sweepLoad: omitted " + std::to_string(omitted) + " of " +
             std::to_string(loads.size()) +
             " load points with utilization >= 1 (accelerator saturated)");
    }

    std::vector<SweepPoint> points(stable.size());
    parallelFor(stable.size(), [&](size_t i) {
        double load = stable[i];
        Params p = base;
        p.offloads = load;
        p.queueCycles = mm1WaitCycles(serviceCycles, load, clockHz);
        Accelerometer model(p);
        points[i] = {load, model.project(design)};
    });
    return points;
}

} // namespace accel::model
