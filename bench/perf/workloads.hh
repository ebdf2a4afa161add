/**
 * @file
 * The perf ladder's five workloads.
 *
 * Every input is defined in workloads.cc and nowhere else — no shared
 * bench fixture is included — so edits elsewhere in the tree cannot
 * silently change what is measured. The one exception is casestudy_ab,
 * which deliberately takes workload::allCaseStudies(): those are the
 * paper's Table 6 inputs, and the point of that workload is to time the
 * validation path as the paper defines it.
 */

#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "probe.hh"

namespace accel::perf {

/** The seed whose round digests golden.json pins. */
constexpr std::uint64_t kGoldenSeed = 2020;

/** Modelled per-layer values of one round, by metric name. */
using LayerValues = std::map<std::string, double>;

/**
 * One seeded workload. The harness calls setup() (again before a traced
 * round), then round() once untimed and then once per timed round; each
 * round rebuilds its simulators from the inputs setup() made, so every
 * round replays the same seeded input and produces the same digest.
 */
class Workload
{
  public:
    virtual ~Workload() = default;

    /** Build and validate the inputs. Idempotent. */
    virtual void setup(Probe &probe) = 0;

    /** Replay the input once. @return units of work completed. */
    virtual std::uint64_t round(Probe &probe) = 0;

    /** 64-bit FNV-1a digest of the last round's simulated output. */
    virtual std::uint64_t digest() const = 0;

    /**
     * Self-checks on the last round — chiefly that every configured
     * mechanism actually fired (or, where it must not, stayed off).
     * Appends one line per failure.
     */
    virtual void check(std::vector<std::string> &failures) const = 0;

    /**
     * Checks too costly for every round (they rerun the simulation
     * another way); the harness runs them once, after the timed phase.
     */
    virtual void crossCheck(std::vector<std::string> &) {}

    /** Modelled per-layer values of the last round. */
    virtual void layers(LayerValues &out) const = 0;
};

struct WorkloadInfo
{
    const char *name;
    const char *unit; //!< what one unit of work is
};

/** The workloads, in ladder order. */
const std::vector<WorkloadInfo> &workloadInfos();

/** @return null for an unknown name. */
std::unique_ptr<Workload> makeWorkload(const std::string &name,
                                       std::uint64_t seed);

/** Serial vs parallel wall time of one batch of the casestudy_ab arms. */
struct RunnerProbeResult
{
    unsigned workers = 1;
    double serialSeconds = 0.0;
    double parallelSeconds = 0.0;
    bool identical = false; //!< both batches gave the same summaries
};

/**
 * Run the six casestudy_ab arms through the global ThreadPool at one
 * worker and at @p workers, restoring one worker afterwards.
 */
RunnerProbeResult probeRunner(std::uint64_t seed, unsigned workers,
                              Probe &probe);

} // namespace accel::perf
