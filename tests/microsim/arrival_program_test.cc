/** @file Tests for time-varying arrival-rate programs. */

#include "microsim/arrival_program.hh"

#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "util/logging.hh"

namespace accel::microsim {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

TEST(ArrivalProgram, ConstantProgram)
{
    ArrivalProgram p = ArrivalProgram::constant(1e5);
    EXPECT_FALSE(p.empty());
    EXPECT_TRUE(p.isConstant());
    EXPECT_DOUBLE_EQ(p.rateAt(0.0), 1e5);
    EXPECT_DOUBLE_EQ(p.rateAt(123.0), 1e5);
    EXPECT_DOUBLE_EQ(p.peakRate(), 1e5);
    EXPECT_DOUBLE_EQ(p.meanRate(10.0), 1e5);
}

TEST(ArrivalProgram, EmptyProgramIsZeroRate)
{
    ArrivalProgram p;
    EXPECT_TRUE(p.empty());
    EXPECT_DOUBLE_EQ(p.rateAt(1.0), 0.0);
    EXPECT_DOUBLE_EQ(p.peakRate(), 0.0);
    p.validate(); // empty is a valid "no program"
}

TEST(ArrivalProgram, DayTraceStepsAndWraps)
{
    // Three 10-second steps at 1x, 2x, 0.5x of 1000/s; period 30 s.
    ArrivalProgram p =
        ArrivalProgram::dayTrace(1000.0, {1.0, 2.0, 0.5}, 10.0);
    EXPECT_DOUBLE_EQ(p.periodSeconds, 30.0);
    EXPECT_DOUBLE_EQ(p.rateAt(0.0), 1000.0);
    EXPECT_DOUBLE_EQ(p.rateAt(9.999), 1000.0);
    EXPECT_DOUBLE_EQ(p.rateAt(10.0), 2000.0);
    EXPECT_DOUBLE_EQ(p.rateAt(25.0), 500.0);
    // Wraps: t = 35 is t = 5 of the next day.
    EXPECT_DOUBLE_EQ(p.rateAt(35.0), 1000.0);
    EXPECT_DOUBLE_EQ(p.peakRate(), 2000.0);
    // Mean over exactly one period: (1 + 2 + 0.5)/3 * 1000.
    EXPECT_NEAR(p.meanRate(30.0), 3500.0 / 3.0, 1e-9);
    EXPECT_FALSE(p.isConstant());
}

TEST(ArrivalProgram, FlashCrowdShape)
{
    // Zero until 10 s, ramp up over 2 s, hold 5 s, ramp down over 2 s.
    ArrivalProgram p = ArrivalProgram::flashCrowd(800.0, 10.0, 2.0, 5.0);
    EXPECT_DOUBLE_EQ(p.rateAt(0.0), 0.0);
    EXPECT_DOUBLE_EQ(p.rateAt(9.99), 0.0);
    EXPECT_DOUBLE_EQ(p.rateAt(11.0), 400.0); // mid-ramp
    EXPECT_DOUBLE_EQ(p.rateAt(12.0), 800.0);
    EXPECT_DOUBLE_EQ(p.rateAt(15.0), 800.0);
    EXPECT_DOUBLE_EQ(p.rateAt(18.0), 400.0); // mid-ramp-down
    EXPECT_DOUBLE_EQ(p.rateAt(19.0), 0.0);
    EXPECT_DOUBLE_EQ(p.rateAt(100.0), 0.0);
    EXPECT_DOUBLE_EQ(p.peakRate(), 800.0);
}

TEST(ArrivalProgram, ComposeSumsRates)
{
    ArrivalProgram base = ArrivalProgram::constant(1000.0);
    ArrivalProgram flash =
        ArrivalProgram::flashCrowd(500.0, 1.0, 0.5, 1.0);
    ArrivalProgram mix = ArrivalProgram::compose({base, flash});
    EXPECT_DOUBLE_EQ(mix.rateAt(0.5), 1000.0);
    EXPECT_DOUBLE_EQ(mix.rateAt(1.25), 1250.0); // mid-ramp
    EXPECT_DOUBLE_EQ(mix.rateAt(2.0), 1500.0);  // holding
    EXPECT_DOUBLE_EQ(mix.rateAt(10.0), 1000.0); // after the surge
    EXPECT_DOUBLE_EQ(mix.peakRate(), 1500.0);
    // The composed breakpoints keep the ramp exact, so the integral
    // equals base + the surge trapezoid: 500 * (0.5 + 1.0 + 0.5)/... :
    // ramp up (0.5 s avg 250) + hold (1 s at 500) + ramp down.
    double surgeArea = 0.5 * 0.5 * 500.0 * 2 + 1.0 * 500.0;
    EXPECT_NEAR(mix.meanRate(10.0), 1000.0 + surgeArea / 10.0, 1e-9);
}

TEST(ArrivalProgram, ComposeMultiTenantMix)
{
    // Two periodic tenants with the same period sum pointwise.
    ArrivalProgram a = ArrivalProgram::dayTrace(100.0, {1.0, 3.0}, 5.0);
    ArrivalProgram b = ArrivalProgram::dayTrace(50.0, {2.0, 1.0}, 5.0);
    ArrivalProgram mix = ArrivalProgram::compose({a, b});
    EXPECT_DOUBLE_EQ(mix.periodSeconds, 10.0);
    EXPECT_DOUBLE_EQ(mix.rateAt(0.0), 200.0);
    EXPECT_DOUBLE_EQ(mix.rateAt(7.0), 350.0);
    EXPECT_DOUBLE_EQ(mix.rateAt(12.0), 200.0); // wrapped
}

TEST(ArrivalProgram, ComposeRejectsPeriodMismatch)
{
    ArrivalProgram a = ArrivalProgram::dayTrace(100.0, {1.0}, 5.0);
    ArrivalProgram b = ArrivalProgram::constant(10.0);
    EXPECT_THROW(ArrivalProgram::compose({a, b}), FatalError);
}

TEST(ArrivalProgram, ValidateRejectsBadShapes)
{
    ArrivalProgram p;
    // Must start at t = 0.
    p.segments = {ArrivalSegment{1.0, 2.0, 10.0, 10.0}};
    EXPECT_THROW(p.validate(), FatalError);
    // Gap between segments.
    p.segments = {ArrivalSegment{0.0, 1.0, 10.0, 10.0},
                  ArrivalSegment{2.0, 3.0, 10.0, 10.0}};
    EXPECT_THROW(p.validate(), FatalError);
    // An unbounded segment must come last and cannot ramp.
    p.segments = {ArrivalSegment{0.0, kInf, 10.0, 20.0}};
    EXPECT_THROW(p.validate(), FatalError);
    // All-zero rate has no arrivals to generate.
    p.segments = {ArrivalSegment{0.0, kInf, 0.0, 0.0}};
    EXPECT_THROW(p.validate(), FatalError);
    // Periodic segments must tile the period exactly.
    p.segments = {ArrivalSegment{0.0, 1.0, 10.0, 10.0}};
    p.periodSeconds = 2.0;
    EXPECT_THROW(p.validate(), FatalError);
    // Negative rates are out of domain.
    p.periodSeconds = 0.0;
    p.segments = {ArrivalSegment{0.0, kInf, -5.0, -5.0}};
    EXPECT_THROW(p.validate(), FatalError);
}

TEST(ArrivalProgram, NonPeriodicHoldsFinalRate)
{
    ArrivalProgram p;
    p.segments = {ArrivalSegment{0.0, 1.0, 100.0, 200.0},
                  ArrivalSegment{1.0, kInf, 200.0, 200.0}};
    p.validate();
    EXPECT_DOUBLE_EQ(p.rateAt(0.5), 150.0);
    EXPECT_DOUBLE_EQ(p.rateAt(50.0), 200.0);
    // Mean over [0, 2]: ramp trapezoid (avg 150) + 1 s held at 200.
    EXPECT_NEAR(p.meanRate(2.0), (150.0 + 200.0) / 2.0, 1e-9);
}

} // namespace
} // namespace accel::microsim
