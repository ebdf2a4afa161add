/** @file Tests for parameter sweeps. */

#include "model/sweep.hh"

#include <gtest/gtest.h>

namespace accel::model {
namespace {

Params
base()
{
    Params p;
    p.hostCycles = 1e9;
    p.alpha = 0.25;
    p.offloads = 1e5;
    p.interfaceCycles = 500;
    p.accelFactor = 8;
    return p;
}

TEST(Sweeps, AccelFactorMonotone)
{
    auto points = sweepAccelFactor(base(), ThreadingDesign::Sync,
                                   {1, 2, 4, 8, 16});
    ASSERT_EQ(points.size(), 5u);
    for (size_t i = 1; i < points.size(); ++i) {
        EXPECT_GE(points[i].projection.speedup,
                  points[i - 1].projection.speedup);
    }
}

TEST(Sweeps, InterfaceLatencyMonotone)
{
    auto points = sweep(base(), ThreadingDesign::AsyncSameThread,
                        {0, 100, 1000, 10000},
                        [](Params &p, double x) { p.interfaceCycles = x; });
    for (size_t i = 1; i < points.size(); ++i) {
        EXPECT_LE(points[i].projection.speedup,
                  points[i - 1].projection.speedup);
    }
}

TEST(Sweeps, AlphaSweepApproachesIdeal)
{
    auto points = sweep(base(), ThreadingDesign::AsyncSameThread, {0.1, 0.9},
                        [](Params &p, double x) { p.alpha = x; });
    EXPECT_LT(points[0].projection.speedup, points[1].projection.speedup);
}

TEST(Sweeps, GenericSweepAppliesMutator)
{
    auto points = sweep(base(), ThreadingDesign::Sync, {10.0, 20.0},
                        [](Params &p, double x) { p.setupCycles = x; });
    ASSERT_EQ(points.size(), 2u);
    EXPECT_GT(points[0].projection.speedup, points[1].projection.speedup);
}

} // namespace
} // namespace accel::model
