/**
 * @file
 * Degraded-mode policy shared by ServiceSim offloads and ServiceGraph
 * RPC edges: the per-offload deadline/retry policy, the failure-rate
 * breaker configuration, and the one CircuitBreaker state machine that
 * both a service's offload path and every resilient graph edge run.
 *
 * The breaker only decides; callers own the consequences. Each keeps
 * its own opens/probes/closes counters (reset with its own measurement
 * window) and its own warning text, so the breaker needs no clock,
 * metrics, or logging of its own.
 */

#pragma once

#include <cstdint>
#include <vector>

#include "sim/event_queue.hh"

namespace accel::microsim {

/**
 * Shared shape check: a cycle-cost knob must be finite and >= 0.
 * @throws FatalError naming @p field.
 */
void requireCycles(double v, const char *field);

/**
 * Per-offload deadline + retry policy (degraded-mode offload).
 *
 * timeoutCycles == 0 (the default) disables the whole resilience
 * layer: offloads wait for the device forever, exactly the pre-fault
 * behaviour. With a deadline, each attempt races a cancellable timer
 * against the device completion; expiry triggers capped exponential
 * backoff and, after maxAttempts, host fallback (or abandonment).
 */
struct RetryPolicy
{
    /** Deadline per offload attempt in cycles (0 = never time out). */
    double timeoutCycles = 0.0;

    /** Total attempts per kernel, including the first. */
    std::uint32_t maxAttempts = 1;

    double backoffBaseCycles = 0.0; //!< delay before the first retry
    double backoffFactor = 2.0;     //!< exponential growth per retry
    double backoffCapCycles = 1e9;  //!< hard cap on any single backoff

    /**
     * After retry exhaustion, re-execute the kernel on the host. When
     * false the kernel is abandoned: the request still completes but
     * counts as failed, not goodput.
     */
    bool hostFallback = true;

    /** True when the deadline/retry layer is engaged. */
    bool active() const { return timeoutCycles > 0; }

    /** @throws FatalError on out-of-domain values (names the field). */
    void validate() const;
};

/**
 * Failure-rate circuit breaker settings (see CircuitBreaker). Services
 * revert kernels to host execution while open; graph edges settle
 * calls degraded. Either way timeouts are the failure signal, so the
 * owner must have a deadline configured.
 */
struct BreakerConfig
{
    bool enabled = false;
    std::uint32_t window = 32;     //!< sliding outcome window size
    std::uint32_t minSamples = 8;  //!< samples before evaluating
    double openThreshold = 0.5;    //!< failure fraction that opens
    double probeAfterCycles = 1e6; //!< open -> probe delay (sim cycles)

    /** @throws FatalError on out-of-domain values (names the field). */
    void validate() const;
};

/**
 * The breaker state machine. While closed, outcomes feed a sliding
 * window of the last `window` results; once at least `minSamples` are
 * in it and the failure fraction reaches `openThreshold`, the breaker
 * opens and the window is cleared. After `probeAfterCycles` the next
 * gate() lets exactly one probe through (half-open) and rejects
 * everyone else until the probe reports: success closes the breaker,
 * failure re-opens it and restarts the probe clock. Results that were
 * in flight when the breaker left Closed are ignored.
 *
 * A disabled config passes every call and record() does nothing.
 */
class CircuitBreaker
{
  public:
    struct Gate
    {
        bool pass;  //!< false: the breaker rejects this call
        bool probe; //!< this call is the half-open probe
    };

    /** What a record() did, for the caller's counters. */
    enum class Transition
    {
        None,   //!< no open/close (includes a failed probe re-opening)
        Opened, //!< the window tripped: Closed -> Open
        Closed, //!< the probe succeeded: HalfOpen -> Closed
    };

    explicit CircuitBreaker(const BreakerConfig &cfg)
        : cfg_(cfg), window_(cfg.window)
    {}

    /** Admission decision for one call issued at @p now. */
    Gate gate(sim::Tick now);

    /**
     * Feed one settled call's outcome; @p probe must echo the gate()
     * result that admitted it.
     */
    Transition record(bool success, bool probe, sim::Tick now);

    bool closed() const { return state_ == State::Closed; }

  private:
    enum class State { Closed, Open, HalfOpen };

    BreakerConfig cfg_;
    State state_ = State::Closed;
    /**
     * The last windowCount_ outcomes (true = success), oldest at
     * windowHead_, in a ring of cfg_.window slots.
     */
    std::vector<bool> window_;
    std::uint32_t windowHead_ = 0;
    std::uint32_t windowCount_ = 0;
    std::uint32_t failures_ = 0;
    sim::Tick openedAt_ = 0;
};

} // namespace accel::microsim
