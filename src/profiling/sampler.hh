/**
 * @file
 * Trace sampler: synthesizes the profiling stream a production profiler
 * would capture for a given service.
 *
 * The sampler builds a joint distribution over (functionality, leaf
 * category) pairs whose marginals match the service's encoded
 * functionality mix (Fig. 9) and leaf mix (Fig. 2). Since the paper
 * publishes only marginals, the joint is reconstructed by iterative
 * proportional fitting (IPF) over an affinity mask expressing which
 * leaves plausibly appear under which functionality (e.g. ZSTD leaves
 * under Compression, SSL leaves under Secure I/O).
 *
 * Sampled traces carry realistic frame names (interned once per
 * process; see symbol_table.hh), so the tagger pipeline
 * (LeafTagger + FunctionalityTagger + Aggregator) can re-derive the
 * paper's breakdowns from raw traces — exercising the same measurement
 * path the paper used, not just echoing the tables.
 */

#pragma once

#include <vector>

#include "profiling/call_trace.hh"
#include "util/rng.hh"
#include "workload/platforms.hh"
#include "workload/profiles.hh"

namespace accel::profiling {

/** Joint (functionality x leaf) cycle distribution for a service. */
class JointDistribution
{
  public:
    /**
     * Fit the joint to @p profile's marginals with IPF.
     *
     * @param iterations  IPF sweeps; 100 is plenty for convergence
     */
    explicit JointDistribution(const workload::ServiceProfile &profile,
                               int iterations = 100);

    /** Joint probability mass of a (functionality, leaf) cell. */
    double mass(workload::Functionality f,
                workload::LeafCategory l) const;

    /** Row marginal: total mass of a functionality. */
    double functionalityMass(workload::Functionality f) const;

    /** Column marginal: total mass of a leaf category. */
    double leafMass(workload::LeafCategory l) const;

    /** Draw one cell proportionally to its mass. */
    std::pair<workload::Functionality, workload::LeafCategory>
    sample(Rng &rng) const;

  private:
    std::vector<double> cells_; // row-major [functionality][leaf]
    std::vector<double> cumulative_;

    static size_t index(workload::Functionality f,
                        workload::LeafCategory l);
};

/** Generates CallTrace samples for a service on a CPU generation. */
class TraceSampler
{
  public:
    /**
     * @param profile service to sample
     * @param gen     CPU generation (sets per-category IPC)
     * @param seed    deterministic stream seed
     */
    TraceSampler(const workload::ServiceProfile &profile,
                 workload::CpuGen gen, std::uint64_t seed);

    /** Draw one trace (frames + cycles + instructions). */
    CallTrace sample();

    /** Draw @p count traces. */
    std::vector<CallTrace> sampleMany(size_t count);

    const JointDistribution &joint() const { return joint_; }

  private:
    struct FrameIds;
    static const FrameIds &frameIds();

    const FrameIds &ids_;
    const workload::ServiceProfile &profile_;
    workload::CpuGen gen_;
    JointDistribution joint_;
    Rng rng_;

    SymbolId sampleLeaf(workload::LeafCategory category);
};

} // namespace accel::profiling
