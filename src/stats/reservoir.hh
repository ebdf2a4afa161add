/**
 * @file
 * Reservoir sampling for quantile estimation.
 *
 * The simulator streams millions of per-request latencies; a fixed-size
 * uniform reservoir (Vitter's algorithm R) keeps an unbiased sample
 * from which tail quantiles (p50/p95/p99) are estimated for SLO
 * analysis.
 */

#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "util/rng.hh"

namespace accel {

/** Fixed-size uniform sample over a stream. */
class ReservoirSample
{
  public:
    /**
     * 4096 slots, seed 0x5eed. Not explicit: an aggregate that holds a
     * reservoir, such as `TierStats{}`, copy-initializes it from `{}`.
     */
    ReservoirSample() : ReservoirSample(4096, 0x5eed) {}

    /**
     * @param capacity reservoir size (quantile resolution ~1/capacity)
     * @param seed     RNG seed for replacement decisions
     */
    explicit ReservoirSample(size_t capacity, std::uint64_t seed = 0x5eed);

    /** Observe one value. */
    void add(double value);

    /** Values observed so far (not the reservoir size). */
    std::uint64_t count() const { return seen_; }

    /** Current reservoir occupancy. */
    size_t size() const { return values_.size(); }

    /**
     * Quantile estimate for p in [0, 1] (nearest-rank on the sample).
     * @throws FatalError when empty or p out of range.
     */
    double quantile(double p) const;

    /** Convenience percentiles. */
    double p50() const { return quantile(0.50); }
    double p95() const { return quantile(0.95); }
    double p99() const { return quantile(0.99); }

    /** {"count":..,"p50":..,"p95":..,"p99":..} (0s when empty). */
    std::string summaryJson() const;

  private:
    size_t capacity_;
    std::uint64_t seen_ = 0;
    std::vector<double> values_;
    mutable std::vector<double> sorted_;
    mutable bool dirty_ = false;
    Rng rng_;
};

} // namespace accel
