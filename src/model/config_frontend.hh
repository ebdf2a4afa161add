/**
 * @file
 * Config-file front end: the artifact workflow of "input model parameters
 * into a configuration file, then run the model".
 *
 * A parameter section looks like:
 *
 *     [aes-ni]
 *     C = 2.0e9          ; host cycles per time unit
 *     alpha = 0.165844
 *     n = 298951
 *     o0 = 10
 *     Q = 0
 *     L = 3
 *     o1 = 0
 *     A = 6
 *     strategy = on-chip
 *     threading = sync
 *     offloaded_fraction = 1.0   ; optional, default 1
 *
 * Instead of giving n and offloaded_fraction directly, a section may
 * describe the kernel's granularity distribution and let the planner
 * derive them (the paper's §5 workflow):
 *
 *     [compression-off-chip]
 *     C = 2.3e9
 *     alpha = 0.15
 *     L = 2300
 *     A = 27
 *     threading = sync
 *     cb = 5.62                   ; host cycles per byte
 *     n_total = 15008             ; total kernel invocations
 *     granularity_cdf = 0:64:12, 64:128:6, 128:256:8, 256:512:14.9, ...
 *     weighting = count           ; or "bytes"
 */

#pragma once

#include <memory>
#include <string>
#include <vector>

#include "config/config.hh"
#include "faults/fault_plan.hh"
#include "model/accelerometer.hh"
#include "stats/bucket_dist.hh"

namespace accel::model {

/** A named parameter set plus the threading design to evaluate. */
struct ConfigCase
{
    std::string name;
    Params params;
    ThreadingDesign design;
};

/**
 * Parse one section into model parameters. When the section carries
 * `cb`, `n_total`, and `granularity_cdf`, the profitable-offload plan
 * is derived and its n / offloaded_fraction land in the result;
 * otherwise `n` is required.
 *
 * @throws FatalError when required keys are missing or out of domain.
 */
Params paramsFromConfig(const Config &cfg, const std::string &section);

/**
 * Parse a granularity CDF literal: comma-separated "lo:hi:mass"
 * bucket triples, e.g. "0:64:12, 64:128:6".
 * @throws FatalError on malformed triples.
 */
BucketDist granularityFromConfig(const std::string &literal);

/** Threading design for a section (key "threading", default "sync"). */
ThreadingDesign threadingFromConfig(const Config &cfg,
                                    const std::string &section);

/**
 * Parse a section's fault-plan keys into a FaultPlan, or nullptr when
 * the section sets none of them (so fault-off configs build the exact
 * pre-fault device). Recognised keys, all prefixed `fault_`:
 *
 *     fault_seed = 7
 *     fault_drop_p = 0.05          ; per-offload completion loss
 *     fault_late_p = 0.1           ; per-offload late completion...
 *     fault_late_cycles = 5000     ; ...delayed by this many cycles
 *     fault_spike_p = 0.02         ; per-offload transfer spike...
 *     fault_spike_factor = 8       ; ...multiplying the transfer
 *     fault_stalls = 1e6:2e6, 5e6:6e6   ; begin:end tick windows
 *     fault_fail_at = 2.5e8        ; whole-device failure tick
 *     fault_recover_at = 3.5e8     ; optional recovery tick
 *
 * @throws FatalError on malformed windows or out-of-domain values.
 */
std::shared_ptr<const faults::FaultPlan>
faultPlanFromConfig(const Config &cfg, const std::string &section);

/**
 * As above but with an arbitrary key prefix in place of `fault_`.
 * The replicated-tier front end uses `fault_r<k>_` so each replica in
 * a section carries its own independent plan, e.g. `fault_r2_drop_p`.
 */
std::shared_ptr<const faults::FaultPlan>
faultPlanFromConfig(const Config &cfg, const std::string &section,
                    const std::string &prefix);

/**
 * Parse a required `begin:end[,begin:end]` tick-window list (the
 * device `fault_stalls` and the edge `fault_spike_windows` /
 * `fault_blackholes` keys). Ends are counts, so sci notation is fine.
 * @throws FatalError naming @p key on a malformed entry.
 */
std::vector<faults::StallWindow>
windowsFromConfig(const Config &cfg, const std::string &section,
                  const std::string &key);

/** Parse every section of a config into cases, preserving order. */
std::vector<ConfigCase> casesFromConfig(const Config &cfg);

/** Load a config file and render projection reports for all sections. */
std::string runConfigFile(const std::string &path);

} // namespace accel::model
