/** @file Tests for the kernel calibration fitter. */

#include "kernels/calibration.hh"

#include <cmath>

#include <gtest/gtest.h>

#include "util/logging.hh"

namespace accel::kernels {
namespace {

TEST(FitLinear, ExactLine)
{
    // cycles = 3*g + 50.
    std::vector<std::pair<double, double>> samples;
    for (double g : {10.0, 100.0, 1000.0})
        samples.emplace_back(g, 3 * g + 50);
    Calibration c = fitLinear(samples);
    EXPECT_NEAR(c.cyclesPerByte, 3.0, 1e-9);
    EXPECT_NEAR(c.fixedCycles, 50.0, 1e-6);
    EXPECT_NEAR(c.rSquared, 1.0, 1e-9);
}

TEST(FitLinear, NoisyLineStillRecoversSlope)
{
    std::vector<std::pair<double, double>> samples = {
        {100, 310}, {200, 590}, {400, 1220}, {800, 2390}};
    Calibration c = fitLinear(samples);
    EXPECT_NEAR(c.cyclesPerByte, 3.0, 0.1);
    EXPECT_GT(c.rSquared, 0.99);
}

TEST(FitLinear, RejectsDegenerateInput)
{
    EXPECT_THROW(fitLinear({{1, 1}}), FatalError);
    EXPECT_THROW(fitLinear({{5, 1}, {5, 2}}), FatalError);
}

TEST(Calibrate, SyntheticOperatorRecovered)
{
    // A fake "kernel" that models 2 cycles/byte at a 1 GHz clock by
    // just returning; we validate plumbing with a deterministic op via
    // fitLinear instead of wall time, so here only check the callable
    // path runs and produces a finite result.
    auto op = [](size_t bytes) -> std::uint64_t {
        volatile std::uint64_t acc = 0;
        for (size_t i = 0; i < bytes; ++i)
            acc = acc + i;
        return acc;
    };
    Calibration c = calibrate(op, {1024, 4096, 16384}, 2.0, 3);
    EXPECT_GT(c.cyclesPerByte, 0.0);
    EXPECT_TRUE(std::isfinite(c.fixedCycles));
}

TEST(Calibrate, DomainChecks)
{
    auto op = [](size_t) -> std::uint64_t { return 0; };
    EXPECT_THROW(calibrate(op, {1, 2}, 0.0), FatalError);
    EXPECT_THROW(calibrate(op, {1, 2}, 2.0, 0), FatalError);
    EXPECT_THROW(calibrate(op, {7, 7}, 2.0, 1), FatalError);
}

/**
 * Wall clock that advances by a scripted amount per timed call: the
 * k-th timeOnce interval for a b-byte op lasts (2*b + 100) "seconds",
 * so at a 1e-9 GHz clock (1 cycle/second) calibration must recover
 * exactly 2 cycles/byte and 100 fixed cycles — deterministically,
 * with zero reads of the real clock.
 */
class ScriptedTimer final : public WallTimer
{
  public:
    double
    seconds() const override
    {
        // Calls alternate start/end; odd calls close an interval of
        // the scripted duration for the current op size.
        if (++calls_ % 2 == 1)
            return clock_;
        clock_ += 2.0 * static_cast<double>(bytes_) + 100.0;
        return clock_;
    }

    void setBytes(size_t bytes) { bytes_ = bytes; }

  private:
    mutable std::uint64_t calls_ = 0;
    mutable double clock_ = 0.0;
    size_t bytes_ = 0;
};

TEST(Calibrate, InjectedTimerMakesCalibrationDeterministic)
{
    ScriptedTimer timer;
    auto op = [&timer](size_t bytes) -> std::uint64_t {
        timer.setBytes(bytes);
        return bytes;
    };
    // 1e-9 GHz => 1 cycle per scripted "second".
    Calibration c =
        calibrate(op, {256, 1024, 4096}, 1e-9, 3, timer);
    EXPECT_NEAR(c.cyclesPerByte, 2.0, 1e-9);
    EXPECT_NEAR(c.fixedCycles, 100.0, 1e-6);
    EXPECT_NEAR(c.rSquared, 1.0, 1e-12);

    // Bit-identical on a second run: no hidden wall-clock dependence.
    ScriptedTimer timer2;
    auto op2 = [&timer2](size_t bytes) -> std::uint64_t {
        timer2.setBytes(bytes);
        return bytes;
    };
    Calibration d =
        calibrate(op2, {256, 1024, 4096}, 1e-9, 3, timer2);
    EXPECT_EQ(c.cyclesPerByte, d.cyclesPerByte);
    EXPECT_EQ(c.fixedCycles, d.fixedCycles);
}

TEST(Calibrate, RealKernelsHavePositiveMarginalCost)
{
    // Smoke calibration of the real kernels with few repetitions: the
    // fitted per-byte cost must be positive and the fit meaningful.
    for (auto fn : {calibrateAesCtr, calibrateLzCompress}) {
        Calibration c = fn(2.0);
        EXPECT_GT(c.cyclesPerByte, 0.0);
        EXPECT_GT(c.rSquared, 0.8);
    }
}

TEST(Calibrate, AesCostsMoreThanMemcpyPerByte)
{
    Calibration aes = calibrateAesCtr(2.0);
    Calibration copy = calibrateMemOp(0 /*Copy*/, 2.0);
    EXPECT_GT(aes.cyclesPerByte, copy.cyclesPerByte);
}

} // namespace
} // namespace accel::kernels
