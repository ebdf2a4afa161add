#include "microsim/resilience.hh"

#include <cmath>

#include "util/logging.hh"

namespace accel::microsim {

void
requireCycles(double v, const char *field)
{
    require(std::isfinite(v) && v >= 0,
            std::string(field) + " must be finite and >= 0");
}

void
RetryPolicy::validate() const
{
    requireCycles(timeoutCycles, "RetryPolicy.timeoutCycles");
    require(maxAttempts >= 1, "RetryPolicy.maxAttempts must be >= 1");
    requireCycles(backoffBaseCycles, "RetryPolicy.backoffBaseCycles");
    require(std::isfinite(backoffFactor) && backoffFactor >= 1.0,
            "RetryPolicy.backoffFactor must be finite and >= 1");
    requireCycles(backoffCapCycles, "RetryPolicy.backoffCapCycles");
}

void
BreakerConfig::validate() const
{
    require(window >= 1, "BreakerConfig.window must be >= 1");
    require(minSamples >= 1, "BreakerConfig.minSamples must be >= 1");
    require(minSamples <= window,
            "BreakerConfig.minSamples must be <= window");
    require(std::isfinite(openThreshold) && openThreshold > 0 &&
                openThreshold <= 1,
            "BreakerConfig.openThreshold must be in (0, 1]");
    requireCycles(probeAfterCycles, "BreakerConfig.probeAfterCycles");
}

CircuitBreaker::Gate
CircuitBreaker::gate(sim::Tick now)
{
    switch (state_) {
      case State::Closed:
        return {true, false};
      case State::Open:
        if (static_cast<double>(now - openedAt_) >= cfg_.probeAfterCycles) {
            state_ = State::HalfOpen;
            return {true, true};
        }
        return {false, false};
      case State::HalfOpen:
        // A probe is already in flight; everyone else is rejected.
        return {false, false};
    }
    panic("CircuitBreaker::gate: unreachable state");
}

CircuitBreaker::Transition
CircuitBreaker::record(bool success, bool probe, sim::Tick now)
{
    if (!cfg_.enabled)
        return Transition::None;
    if (probe) {
        ensure(state_ == State::HalfOpen,
               "CircuitBreaker::record: probe outcome without half-open "
               "state");
        if (success) {
            state_ = State::Closed;
            return Transition::Closed;
        }
        state_ = State::Open;
        openedAt_ = now;
        return Transition::None;
    }
    if (state_ != State::Closed)
        return Transition::None; // stragglers from before the breaker opened
    if (windowCount_ == cfg_.window) {
        // Full: the oldest outcome leaves as this one takes its slot.
        if (!window_[windowHead_])
            --failures_;
        window_[windowHead_] = success;
        windowHead_ = (windowHead_ + 1) % cfg_.window;
    } else {
        window_[(windowHead_ + windowCount_) % cfg_.window] = success;
        ++windowCount_;
    }
    if (!success)
        ++failures_;
    if (windowCount_ >= cfg_.minSamples &&
        static_cast<double>(failures_) /
                static_cast<double>(windowCount_) >=
            cfg_.openThreshold) {
        // The window only ever fills while closed, so clearing it here
        // is what lets a probe success close onto a fresh window.
        state_ = State::Open;
        openedAt_ = now;
        windowHead_ = 0;
        windowCount_ = 0;
        failures_ = 0;
        return Transition::Opened;
    }
    return Transition::None;
}

} // namespace accel::microsim
