/**
 * @file
 * Sim-core hot-path throughput gate: EventQueue (one heap of 24-byte
 * keys over a slab of InlineCallbacks) vs the pre-change queue
 * (sim::ReferenceEventQueue, std::function events in one binary heap),
 * on two workloads:
 *
 *  - steady: many self-rescheduling event chains whose callbacks
 *    capture a shared_ptr plus payload — the capture shape microsim
 *    callbacks actually have, and one std::function always
 *    heap-allocates;
 *  - hedging: the timer-heavy shape from the accelerator tiers — every
 *    operation schedules a completion, a hedge timer, and a watchdog,
 *    and the completion cancels the timers (most timers die
 *    unfired). A slice of watchdogs lands far in the future, so
 *    cancelled keys pile up until compaction reclaims them.
 *
 * Heap traffic is measured with a global operator-new counting hook
 * (this binary only). Both queues run identical op sequences and must
 * produce identical execution checksums and processed-event counts —
 * the same bit-identical-results contract the property suite enforces.
 *
 * Exit-code gates (regression wall, run in CI):
 *  - hedging events/sec: new queue >= 2x reference;
 *  - steady allocations/event on the new queue <= 1 (steady state,
 *    measured after a warmup round on the same queue instance);
 *  - checksum/processed parity between the two queues, both workloads.
 *
 * Usage: simcore_throughput [--seed N] [--json PATH]
 */

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <memory>
#include <new>
#include <sstream>
#include <string>

#include "bench_common.hh"
#include "sim/event_queue.hh"
#include "sim/reference_event_queue.hh"
#include "util/logging.hh"
#include "util/rng.hh"
#include "util/table.hh"
#include "util/wall_timer.hh"

// ---------------------------------------------------------------------
// Allocation counting hook: every flavor of global new/delete this
// binary can reach. Counting is process-wide; measurements take deltas
// around single-threaded regions, so the relaxed atomic is only for
// formal correctness.
// ---------------------------------------------------------------------

namespace {
std::atomic<std::uint64_t> g_allocs{0};
} // namespace

void *
operator new(std::size_t n)
{
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t n)
{
    return ::operator new(n);
}

void *
operator new(std::size_t n, std::align_val_t align)
{
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    const std::size_t a = static_cast<std::size_t>(align);
    const std::size_t rounded = (std::max<std::size_t>(n, 1) + a - 1) /
                                a * a; // aligned_alloc contract
    if (void *p = std::aligned_alloc(a, rounded))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t n, std::align_val_t align)
{
    return ::operator new(n, align);
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

namespace accel::bench {
namespace {

std::uint64_t
mix(std::uint64_t x)
{
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ULL;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebULL;
    x ^= x >> 31;
    return x;
}

// ------------------------------------------------------------------
// Steady workload: kChains independent self-rescheduling chains.
// ------------------------------------------------------------------

constexpr unsigned kChains = 256;
constexpr std::uint64_t kSteadyPerChain = 1500; // events per chain/round

struct SteadyShared
{
    std::uint64_t checksum = 0;
    std::uint64_t fired = 0;
};

template <typename Queue> struct ChainTask
{
    Queue *q;
    std::shared_ptr<SteadyShared> shared;
    std::uint32_t id;
    std::uint64_t stride;
    std::uint64_t remaining;
    char payload[24]; // pad the capture to a realistic callback size

    void
    operator()()
    {
        shared->checksum =
            mix(shared->checksum ^ (q->now() * 0x9e3779b97f4a7c15ULL) ^
                id ^ static_cast<unsigned char>(payload[0]));
        ++shared->fired;
        if (--remaining > 0) {
            ChainTask next(*this);
            q->scheduleIn(stride, std::move(next));
        }
    }
};

struct RoundResult
{
    std::uint64_t events = 0;
    std::uint64_t allocs = 0;
    std::uint64_t checksum = 0;
    double seconds = 0;
};

template <typename Queue>
RoundResult
runSteadyRound(Queue &q, std::uint64_t seed)
{
    auto shared = std::make_shared<SteadyShared>();
    Rng rng(seed, /*stream=*/7);
    const std::uint64_t processedBefore = q.processed();
    const std::uint64_t allocsBefore =
        g_allocs.load(std::memory_order_relaxed);
    const double start = steadyWallTimer().seconds();
    for (std::uint32_t c = 0; c < kChains; ++c) {
        ChainTask<Queue> task{&q,
                              shared,
                              c,
                              /*stride=*/1 + rng.next() % 900,
                              kSteadyPerChain,
                              {}};
        task.payload[0] = static_cast<char>(c);
        q.scheduleIn(1 + c, std::move(task));
    }
    q.runAll();
    RoundResult out;
    out.seconds = steadyWallTimer().seconds() - start;
    out.events = q.processed() - processedBefore;
    out.allocs =
        g_allocs.load(std::memory_order_relaxed) - allocsBefore;
    out.checksum = shared->checksum;
    ensure(shared->fired == out.events,
           "simcore_throughput: steady chain accounting mismatch");
    return out;
}

// ------------------------------------------------------------------
// Hedging workload: kOpsChains chains of operations; each op arms a
// completion event plus three timers — a hedge, a retry, and a
// watchdog, the pattern a hedged offload with degraded-mode retry
// arms in the microsim — and the completion cancels whatever is still
// pending. Every 16th watchdog is armed kFarWatchdogDelay out, far
// past every other event, as a long deadline would be.
// ------------------------------------------------------------------

// Concurrency matters more than chain length here: with thousands of
// ops in flight (the hedged-offload regime the paper's services run
// at), each queue holds ~3 events per chain, so every push, pop, and
// compaction sweep pays O(log n) / O(n) over a multi-thousand element
// heap. The reference moves whole std::function events through it;
// EventQueue moves only keys.
constexpr unsigned kOpChains = 2048;
constexpr std::uint64_t kOpsPerChain = 120; // ops per chain/round
constexpr std::uint64_t kFarWatchdogDelay = 65536 + 50000;

struct HedgeShared
{
    std::uint64_t checksum = 0;
    std::uint64_t completions = 0;
    Rng rng{0, 0};
};

template <typename Queue>
void issueOp(Queue &q, HedgeShared *shared, std::uint32_t chain,
             std::uint64_t opsRemaining);

// HedgeShared outlives the drained queue (it sits on the round's
// stack), so callbacks hold a raw pointer: refcount traffic on every
// capture copy would be identical overhead for both queues and only
// dilute what the bench is trying to compare.
template <typename Queue> struct Completion
{
    Queue *q;
    HedgeShared *shared;
    std::uint32_t chain;
    // Per-chain countdown: chains complete concurrently, so a shared
    // counter would be decremented past zero by in-flight completions.
    std::uint64_t opsRemaining;
    sim::TimerId hedge;
    sim::TimerId retry;
    sim::TimerId watchdog;

    void
    operator()()
    {
        shared->checksum =
            mix(shared->checksum ^ (q->now() * 0x2545f4914f6cdd1dULL) ^
                chain);
        ++shared->completions;
        q->cancelTimer(hedge);
        q->cancelTimer(retry);
        q->cancelTimer(watchdog);
        if (opsRemaining > 0)
            issueOp(*q, shared, chain, opsRemaining - 1);
    }
};

template <typename Queue> struct HedgeFire
{
    Queue *q;
    HedgeShared *shared;
    std::uint32_t chain;

    void
    operator()()
    {
        // A hedge that beats its completion: record it (parity across
        // queues proves both saw the identical race outcome).
        shared->checksum = mix(shared->checksum ^ q->now() ^
                               (std::uint64_t{chain} << 32));
    }
};

template <typename Queue>
void
issueOp(Queue &q, HedgeShared *shared, std::uint32_t chain,
        std::uint64_t opsRemaining)
{
    const std::uint64_t service = 200 + shared->rng.next() % 4600;
    const bool farWatchdog = (shared->rng.next() & 15u) == 0;
    const std::uint64_t watchdogDelay =
        farWatchdog ? kFarWatchdogDelay : 20000;
    sim::TimerId hedge = q.scheduleTimerIn(
        3000, HedgeFire<Queue>{&q, shared, chain});
    // The retry always loses to the completion (service < 8000), so
    // it is pure arm-then-cancel traffic, like a degraded-mode retry
    // behind a service that is still healthy.
    sim::TimerId retry = q.scheduleTimerIn(
        8000, HedgeFire<Queue>{&q, shared, chain | 0x40000000u});
    sim::TimerId watchdog = q.scheduleTimerIn(
        watchdogDelay, HedgeFire<Queue>{&q, shared, chain | 0x80000000u});
    q.scheduleIn(service, Completion<Queue>{&q, shared, chain,
                                            opsRemaining, hedge, retry,
                                            watchdog});
}

template <typename Queue>
RoundResult
runHedgingRound(Queue &q, std::uint64_t seed)
{
    // Outlives the drained queue; callbacks capture the raw address.
    HedgeShared shared;
    shared.rng = Rng(seed, /*stream=*/11);
    const std::uint64_t processedBefore = q.processed();
    const std::uint64_t allocsBefore =
        g_allocs.load(std::memory_order_relaxed);
    const double start = steadyWallTimer().seconds();
    for (std::uint32_t c = 0; c < kOpChains; ++c)
        issueOp(q, &shared, c, kOpsPerChain - 1);
    q.runAll();
    RoundResult out;
    out.seconds = steadyWallTimer().seconds() - start;
    out.events = q.processed() - processedBefore;
    out.allocs =
        g_allocs.load(std::memory_order_relaxed) - allocsBefore;
    out.checksum = shared.checksum;
    ensure(shared.completions ==
               std::uint64_t{kOpChains} * kOpsPerChain,
           "simcore_throughput: hedging op accounting mismatch");
    return out;
}

// ------------------------------------------------------------------
// Harness
// ------------------------------------------------------------------

struct WorkloadReport
{
    RoundResult fresh;    // new queue, measured round
    RoundResult baseline; // reference queue, measured round
    bool parity = false;

    double
    speedup() const
    {
        const double freshEps =
            static_cast<double>(fresh.events) / fresh.seconds;
        const double baseEps =
            static_cast<double>(baseline.events) / baseline.seconds;
        return freshEps / baseEps;
    }

    double
    allocsPerEvent() const
    {
        return static_cast<double>(fresh.allocs) /
               static_cast<double>(fresh.events);
    }

    double
    baselineAllocsPerEvent() const
    {
        return static_cast<double>(baseline.allocs) /
               static_cast<double>(baseline.events);
    }
};

/**
 * Run warmup + measured rounds of @p round on a fresh instance of each
 * queue type. The measured round reuses the warmed queue instance so
 * pool chunks, callback slots, and heap capacity reflect steady state.
 * Timing takes the best of kTimedRounds to shed scheduler noise.
 */
template <typename RoundFn>
WorkloadReport
runWorkload(RoundFn round, std::uint64_t seed)
{
    constexpr int kTimedRounds = 3;
    WorkloadReport report;

    sim::EventQueue fresh;
    sim::ReferenceEventQueue baseline;
    RoundResult freshWarm = round(fresh, seed);
    RoundResult baseWarm = round(baseline, seed);
    ensure(freshWarm.checksum == baseWarm.checksum,
           "simcore_throughput: warmup checksum divergence");

    report.fresh = round(fresh, seed + 1);
    report.baseline = round(baseline, seed + 1);
    report.parity =
        report.fresh.checksum == report.baseline.checksum &&
        report.fresh.events == report.baseline.events;
    // Additional rounds shed scheduler noise (best time) and report
    // true steady-state allocation behavior (fewest allocs).
    for (int r = 1; r < kTimedRounds; ++r) {
        RoundResult f = round(fresh, seed + 1 + r);
        RoundResult b = round(baseline, seed + 1 + r);
        report.parity = report.parity && f.checksum == b.checksum &&
                        f.events == b.events;
        report.fresh.seconds = std::min(report.fresh.seconds, f.seconds);
        report.fresh.allocs = std::min(report.fresh.allocs, f.allocs);
        report.baseline.seconds =
            std::min(report.baseline.seconds, b.seconds);
        report.baseline.allocs =
            std::min(report.baseline.allocs, b.allocs);
    }
    return report;
}

void
printWorkload(const char *name, const WorkloadReport &w)
{
    TextTable table({"queue", "events", "seconds", "events/sec",
                     "allocs/event"});
    for (size_t c = 1; c < 5; ++c)
        table.setAlign(c, Align::Right);
    auto row = [&](const char *queue, const RoundResult &r,
                   double allocsPerEvent) {
        std::ostringstream eps;
        eps.precision(3);
        eps << std::fixed
            << static_cast<double>(r.events) / r.seconds / 1e6 << "M";
        std::ostringstream sec;
        sec.precision(4);
        sec << std::fixed << r.seconds;
        std::ostringstream ape;
        ape.precision(3);
        ape << std::fixed << allocsPerEvent;
        table.addRow({queue, std::to_string(r.events), sec.str(),
                      eps.str(), ape.str()});
    };
    std::cout << "--- " << name << " ---\n";
    row("keyheap+inline", w.fresh, w.allocsPerEvent());
    row("reference", w.baseline, w.baselineAllocsPerEvent());
    std::cout << table.str();
    std::cout.precision(2);
    std::cout << "speedup: " << std::fixed << w.speedup()
              << "x   parity: " << (w.parity ? "ok" : "DIVERGED")
              << "\n\n";
}

} // namespace
} // namespace accel::bench

int
main(int argc, char **argv)
{
    using namespace accel;
    using namespace accel::bench;

    const BenchArgs args =
        BenchArgs::parse("simcore_throughput", argc, argv);
    const std::uint64_t seed = args.seed;

    std::cout << "\n=== simcore_throughput (seed " << seed
              << ") ===\n\n";

    WorkloadReport steady = runWorkload(
        [](auto &q, std::uint64_t s) { return runSteadyRound(q, s); },
        seed);
    printWorkload("steady (self-rescheduling chains)", steady);

    WorkloadReport hedging = runWorkload(
        [](auto &q, std::uint64_t s) { return runHedgingRound(q, s); },
        seed);
    printWorkload("hedging (timers armed and cancelled)", hedging);

    constexpr double kMinHedgingSpeedup = 2.0;
    constexpr double kMaxSteadyAllocsPerEvent = 1.0;
    struct Gate
    {
        const char *name;
        bool pass;
    };
    const Gate gates[] = {
        {"hedging speedup >= 2x",
         hedging.speedup() >= kMinHedgingSpeedup},
        {"steady allocs/event <= 1",
         steady.allocsPerEvent() <= kMaxSteadyAllocsPerEvent},
        {"steady parity", steady.parity},
        {"hedging parity", hedging.parity},
    };
    bool ok = true;
    std::cout << "gates:\n";
    for (const Gate &g : gates) {
        std::cout << "  [" << (g.pass ? "PASS" : "FAIL") << "] "
                  << g.name << "\n";
        ok = ok && g.pass;
    }
    std::cout << (ok ? "\nALL GATES PASS\n" : "\nGATE FAILURE\n");

    if (!args.jsonPath.empty()) {
        std::ostringstream json;
        auto workload = [&](const char *name, const WorkloadReport &w) {
            json << "  \"" << name << "\": {\n"
                 << "    \"events\": " << w.fresh.events << ",\n"
                 << "    \"new_events_per_sec\": "
                 << static_cast<double>(w.fresh.events) /
                        w.fresh.seconds
                 << ",\n"
                 << "    \"ref_events_per_sec\": "
                 << static_cast<double>(w.baseline.events) /
                        w.baseline.seconds
                 << ",\n"
                 << "    \"speedup\": " << w.speedup() << ",\n"
                 << "    \"new_allocs_per_event\": "
                 << w.allocsPerEvent() << ",\n"
                 << "    \"ref_allocs_per_event\": "
                 << w.baselineAllocsPerEvent() << ",\n"
                 << "    \"parity\": "
                 << (w.parity ? "true" : "false") << "\n"
                 << "  }";
        };
        json << "{\n  \"seed\": " << seed << ",\n";
        workload("steady", steady);
        json << ",\n";
        workload("hedging", hedging);
        json << ",\n  \"pass\": " << (ok ? "true" : "false") << "\n}\n";
        args.writeJson(json.str());
    }

    return ok ? 0 : 1;
}
