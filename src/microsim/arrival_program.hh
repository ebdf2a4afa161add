/**
 * @file
 * Time-varying open-loop arrival-rate programs.
 *
 * The open-loop simulator mode historically offered one constant
 * Poisson rate; real services see diurnal swings and flash crowds, and
 * the paper's fleet projections only hold if the accelerated service
 * survives them. An ArrivalProgram is a deterministic piecewise-linear
 * rate function r(t) (arrivals per simulated second): piecewise-constant
 * day traces, ramped flash crowds, and multi-tenant mixes composed by
 * summing per-service profiles are all expressible as segment lists.
 *
 * Sampling is by Lewis-Shedler thinning: candidates are drawn from a
 * homogeneous Poisson process at peakRate() and accepted with
 * probability r(t)/peakRate() — one extra uniform draw per candidate,
 * fully deterministic for a seed. A constant program takes the legacy
 * single-draw path instead, so `constant(r)` is bit-identical to
 * setting `openArrivalsPerSec = r` (the parallel-parity suite pins
 * this).
 */

#pragma once

#include <vector>

namespace accel::microsim {

/**
 * One linear-rate span [startSeconds, endSeconds): the rate ramps from
 * startRate to endRate across the span. startRate == endRate makes the
 * span constant (a day-trace step).
 */
struct ArrivalSegment
{
    double startSeconds = 0.0;
    double endSeconds = 0.0;
    double startRate = 0.0; //!< arrivals/sec at startSeconds
    double endRate = 0.0;   //!< arrivals/sec approaching endSeconds
};

/**
 * A deterministic arrival-rate program r(t). Empty segments mean "no
 * program": the service falls back to the constant openArrivalsPerSec
 * knob. Time t = 0 is simulation tick 0 (warmup included), so warmup
 * plays the head of the trace.
 */
struct ArrivalProgram
{
    /** Contiguous ascending spans; the first must start at t = 0. */
    std::vector<ArrivalSegment> segments;

    /**
     * When > 0, the program wraps: r(t) = r(t mod periodSeconds), and
     * the segments must tile exactly [0, periodSeconds). 0 plays the
     * segments once, holding the last segment's endRate forever.
     */
    double periodSeconds = 0.0;

    bool empty() const { return segments.empty(); }

    /** Rate at time @p tSeconds (right-continuous at breakpoints). */
    double rateAt(double tSeconds) const;

    /** Supremum of r(t): the thinning envelope. */
    double peakRate() const;

    /** Mean of r(t) over [0, horizonSeconds] (expected offered load). */
    double meanRate(double horizonSeconds) const;

    /** True when r(t) is one constant (legacy single-draw path). */
    bool isConstant() const;

    /** @throws FatalError on out-of-domain values (names the field). */
    void validate() const;

    /** The constant program r(t) = rate. */
    static ArrivalProgram constant(double rate);

    /**
     * Piecewise-constant day trace: step i holds
     * baseRate * stepFactors[i] for secondsPerStep seconds. The program
     * is periodic with period stepFactors.size() * secondsPerStep, so a
     * run longer than one "day" replays it.
     */
    static ArrivalProgram dayTrace(double baseRate,
                                   const std::vector<double> &stepFactors,
                                   double secondsPerStep);

    /**
     * A flash crowd overlay: zero until startSeconds, linear ramp to
     * extraRate over rampSeconds, hold for holdSeconds, linear ramp
     * back to zero over rampSeconds, zero after. Compose it onto a base
     * trace to model a surge.
     */
    static ArrivalProgram flashCrowd(double extraRate, double startSeconds,
                                     double rampSeconds,
                                     double holdSeconds);

    /**
     * Multi-tenant mix: the sum of the parts' rates. Parts must agree
     * on periodSeconds (all 0 or all equal). Breakpoints are the union
     * of the parts' breakpoints, so composed ramps stay exact.
     */
    static ArrivalProgram compose(const std::vector<ArrivalProgram> &parts);
};

} // namespace accel::microsim
