/**
 * @file
 * Request generation for the microservice simulator.
 *
 * A request is host work plus zero or more offloadable kernel
 * invocations. Kernel granularities are drawn from a BucketDist (the
 * paper's CDF figures); kernel cycles follow cyclesPerByte · g^beta.
 */

#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "stats/bucket_dist.hh"
#include "util/rng.hh"

namespace accel::microsim {

/**
 * Category tag carried by work segments and kernels so the simulator
 * can attribute core cycles (e.g. to the paper's functionality
 * categories). The simulator treats tags as opaque; kUntagged marks
 * generic work.
 */
using WorkTag = int;
constexpr WorkTag kUntagged = -1;

/** One offloadable kernel invocation inside a request. */
struct KernelInvocation
{
    double bytes;      //!< granularity g
    double hostCycles; //!< Cb · g^beta: cost if executed on the host
    WorkTag tag = kUntagged;

    /**
     * Segment index after which this kernel runs. Filled by
     * RequestSource; kernels of segment i execute between segments i
     * and i+1.
     */
    std::uint32_t afterSegment = 0;
};

/** A tagged slice of non-kernel host work. */
struct WorkSegment
{
    double cycles;
    WorkTag tag = kUntagged;
};

/** A generated request. */
struct Request
{
    /** Non-kernel work, executed in order. */
    std::vector<WorkSegment> segments;
    std::vector<KernelInvocation> kernels;

    /** Total non-kernel cycles across segments. */
    double nonKernelCycles() const;

    /** Total host cycles when nothing is offloaded. */
    double totalHostCycles() const;
};

/** Workload description from which requests are sampled. */
struct WorkloadSpec
{
    /** Mean non-kernel host cycles per request. */
    double nonKernelCyclesMean = 0.0;

    /**
     * Optional tagged composition of the non-kernel work: shares must
     * be positive and are normalized against nonKernelCyclesMean. When
     * empty, the work is a single untagged blob sliced evenly around
     * the kernels (the default closed-form-equivalent behaviour).
     */
    std::vector<WorkSegment> segmentTemplate;

    /** Tag attached to generated kernels. */
    WorkTag kernelTag = kUntagged;

    /**
     * Coefficient of variation of non-kernel cycles (log-normal); 0
     * makes requests deterministic.
     */
    double nonKernelCv = 0.0;

    /** Kernel invocations per request (deterministic count). */
    std::uint32_t kernelsPerRequest = 1;

    /** Granularity distribution of kernel invocations; may be null when
     *  kernelsPerRequest == 0. */
    std::shared_ptr<const BucketDist> granularity;

    /** Cb: host cycles per byte of kernel work. */
    double cyclesPerByte = 0.0;

    /** Kernel complexity exponent (1 = linear). */
    double beta = 1.0;

    /** @throws FatalError on inconsistent values. */
    void validate() const;

    /** Expected kernel host cycles per request (linear kernels). */
    double meanKernelCycles() const;

    /** Expected α this workload induces: kernel / (kernel+non-kernel). */
    double impliedAlpha() const;
};

/** Samples requests from a WorkloadSpec. */
class RequestSource
{
  public:
    RequestSource(const WorkloadSpec &spec, std::uint64_t seed);

    /**
     * Draw the next request into @p req, replacing its contents but
     * keeping its buffers' capacity, so a reused Request stops
     * allocating once it has held the largest request.
     */
    void fill(Request &req);

    const WorkloadSpec &spec() const { return spec_; }

  private:
    WorkloadSpec spec_;
    Rng rng_;
    double logMu_ = 0.0;
    double logSigma_ = 0.0;
};

} // namespace accel::microsim
