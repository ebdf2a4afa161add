// Fixture: approved patterns only; the analyzer must stay silent.
#include <cstddef>
#include <cstdint>
#include <utility>

namespace sim {
struct InlineCallback {
};
} // namespace sim

namespace accel {
struct Rng {
    explicit Rng(std::uint64_t seed, std::uint64_t stream = 0);
    double uniform();
    std::uint64_t next64();
};
template <typename F> void parallelFor(std::size_t n, F &&f);
} // namespace accel

struct EventQueue {
    void scheduleIn(int delay, sim::InlineCallback &&cb);
    void run();
    void runAll();
};

std::uint64_t mix(std::uint64_t x);
void sink(double v);
void check(double v);

struct CleanConfig {
    double rate = 1.0;
    bool strict = false;

    void validate() const;
};

void
CleanConfig::validate() const
{
    check(rate);
}

struct CleanStats {
    std::uint64_t handled = 0;
    double busyCycles = 0.0;
};

// A runtime system whose FromConfig factory pairs with the class:
// the private run state behind a `private:` label that is immediately
// followed by a nested struct must stay out of validate-coverage.
class CleanSystem {
  public:
    void validate() const;
    void spin();

  private:
    struct Slot {
        std::uint64_t token = 0;
    };

    double budgetCycles_ = 0.0;
    Slot slot_;
};

void
CleanSystem::validate() const
{
    check(budgetCycles_);
}

CleanSystem
cleanSystemFromConfig()
{
    CleanSystem sys;
    sys.validate();
    return sys;
}

struct Worker {
    EventQueue eq_;
    CleanStats stats_;
    accel::Rng rng_{2020};

    // Value captures into a deferred sink: nothing dangles.
    void scheduleByValue(std::uint64_t item) {
        eq_.scheduleIn(10, [this, item] { stats_.handled += item; });
    }

    // Member stream advance outside any parallel region: approved.
    double memberStream() { return rng_.uniform(); }
};

// Per-slot generators inside the parallel body: ACCEL_JOBS-safe.
void
slotIndexedSweep(std::uint64_t seed)
{
    accel::parallelFor(16, [seed](std::size_t i) {
        accel::Rng rng(mix(seed ^ (i + 1)));
        sink(rng.uniform());
    });
}

// Test/bench shape: the frame drives the loop, so [&] is safe.
void
driveLoop(Worker &w)
{
    std::uint64_t done = 0;
    w.eq_.scheduleIn(3, [&] { ++done; });
    w.eq_.run();
    w.stats_.busyCycles += static_cast<double>(done);
}

// The same shape draining the queue with runAll().
void
drainLoop(Worker &w)
{
    std::uint64_t done = 0;
    w.eq_.scheduleIn(3, [&] { ++done; });
    w.eq_.runAll();
    w.stats_.busyCycles += static_cast<double>(done);
}

double
reportStats(const CleanStats &s)
{
    return static_cast<double>(s.handled) + s.busyCycles;
}
