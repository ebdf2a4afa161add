/**
 * @file
 * The Accelerometer analytical model (paper §3).
 *
 * Projects microservice throughput speedup (C/CS) and per-request latency
 * reduction (C/CL) for a hardware acceleration strategy under a given
 * threading design. Implements equations (1)-(8) of the paper, extended
 * with partial offload (only granularities above break-even offload; the
 * rest of the kernel stays on the host).
 */

#pragma once

#include "model/params.hh"

namespace accel::model {

/** The pair of quantities the model projects. */
struct Projection
{
    double speedup;          //!< throughput ratio C / CS
    double latencyReduction; //!< per-request ratio C / CL
};

/**
 * Evaluates the Accelerometer equations for one parameter set.
 *
 * The model is intentionally tiny: construction validates parameter
 * domains, and each query is a closed-form expression. See the paper's
 * Fig. 11-14 for the timelines each design models.
 */
class Accelerometer
{
  public:
    /** @throws FatalError when @p params violates a domain constraint. */
    explicit Accelerometer(Params params);

    /** The validated parameters. */
    const Params &params() const { return params_; }

    /**
     * Throughput speedup C/CS for a threading design.
     *
     * Sync: eq. (1). Sync-OS: eq. (3). Async same-thread and
     * no-response: eq. (6). Async distinct-thread: eq. (3) with one o1.
     */
    double speedup(ThreadingDesign design) const;

    /**
     * Per-request latency reduction C/CL.
     *
     * Sync: eq. (1). Sync-OS and Async distinct-thread: eq. (5).
     * Async same-thread: eq. (8). Async no-response: eq. (8) off-chip but
     * eq. (6) for remote accelerators, whose operation time moves to the
     * application's end-to-end latency instead of this service's request
     * latency.
     */
    double latencyReduction(ThreadingDesign design) const;

    /** Both projections at once. */
    Projection project(ThreadingDesign design) const;

    /** Amdahl ideal speedup 1/(1-α): the kernel takes zero time. */
    double idealSpeedup() const;

    /**
     * Net gain condition (paper text under each equation): true when the
     * projected speedup exceeds 1.
     */
    bool profitable(ThreadingDesign design) const;

    /**
     * Host cycles with acceleration, CS, per time unit (speedup = C/CS).
     */
    double acceleratedHostCycles(ThreadingDesign design) const;

    /**
     * Request-path cycles with acceleration, CL, per time unit
     * (latency reduction = C/CL).
     */
    double acceleratedRequestCycles(ThreadingDesign design) const;

  private:
    Params params_;

    /** n/C · per-offload-overhead, as a fraction of C. */
    double overheadFraction(double per_offload_cycles) const;

    /** Accelerator execution time as a fraction of C: α_off/A. */
    double acceleratorFraction() const;

    /** (1-α) + residual kernel fraction. */
    double hostResidentFraction() const;
};

/**
 * Per-offload profitability tests (paper eqs. 2, 4, 7).
 *
 * An offload of granularity g costs the host cb·g^β cycles when executed
 * locally (β models kernel complexity; 1 = linear).
 */
struct OffloadProfit
{
    double cyclesPerByte; //!< Cb
    double beta = 1.0;    //!< kernel complexity exponent

    /** Host cycles to execute a g-byte kernel locally: Cb·g^β. */
    double hostKernelCycles(double granularity) const;

    /**
     * True when offloading a g-byte kernel improves throughput under the
     * given design and overhead parameters.
     */
    bool improvesSpeedup(double granularity, ThreadingDesign design,
                         const Params &params) const;

    /**
     * Smallest granularity whose offload improves throughput (the
     * "break-even g" the paper marks on its CDF figures), or +inf when no
     * granularity profits (e.g. A = 1 with accelerator time on the
     * critical path).
     */
    double breakEvenSpeedup(ThreadingDesign design,
                            const Params &params) const;

    /** Smallest granularity whose offload reduces latency, or +inf. */
    double breakEvenLatency(ThreadingDesign design,
                            const Params &params) const;
};

} // namespace accel::model
