/**
 * @file
 * Kernel calibration: derive model parameters by measuring real kernels.
 *
 * The paper measures model parameters with "micro-benchmarks that measure
 * execution time on the host and the accelerator". This module does the
 * same: it times a kernel over a range of granularities and fits
 *
 *     cycles(g) = Cb * g + o0
 *
 * by least squares, yielding the per-byte cost Cb and the fixed per-call
 * overhead o0 the model consumes. Wall time is converted to cycles at a
 * nominal host clock; the model operates on relative cycle shares, so the
 * nominal clock only scales units, never the projected speedups.
 */

#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "util/wall_timer.hh"

namespace accel::kernels {

/** Result of a linear-fit calibration. */
struct Calibration
{
    double cyclesPerByte;  //!< Cb: marginal cycles per byte
    double fixedCycles;    //!< o0: fixed cycles per invocation
    double rSquared;       //!< goodness of the linear fit in [0,1]
};

/**
 * Times @p op at each granularity and fits the linear cost model.
 *
 * @param op          kernel under test; must process exactly @p bytes and
 *                    return a value derived from the data (defeats DCE)
 * @param sizes       granularities to sample (>= 2 distinct values)
 * @param clockGHz    nominal host clock for the time→cycles conversion
 * @param repetitions timing repetitions per granularity (median taken)
 * @param timer       wall-clock source; tests inject a deterministic
 *                    fake so calibration itself is reproducible
 *
 * @throws FatalError on fewer than two distinct sizes or non-positive
 *         clock.
 */
Calibration
calibrate(const std::function<std::uint64_t(size_t)> &op,
          const std::vector<size_t> &sizes, double clockGHz = 2.0,
          int repetitions = 9,
          const WallTimer &timer = steadyWallTimer());

/**
 * Fit the linear model to already-collected (bytes, cycles) samples.
 * Exposed separately so simulated measurements can reuse the fit.
 */
Calibration fitLinear(const std::vector<std::pair<double, double>> &samples);

/** Convenience: calibrate AES-128-CTR encryption (the SSL leaf). */
Calibration calibrateAesCtr(double clockGHz = 2.0);

/**
 * Convenience: calibrate LZ compression over synthetic log-like text
 * (the ZSTD leaf).
 */
Calibration calibrateLzCompress(double clockGHz = 2.0);

/** Convenience: calibrate a memory leaf operation. */
Calibration calibrateMemOp(int op, double clockGHz = 2.0);

} // namespace accel::kernels
