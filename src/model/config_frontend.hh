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
 *     beta = 1.0                  ; optional, default 1
 *
 * These are the only keys the model reads; casesFromConfig rejects any
 * other key by name.
 */

#pragma once

#include <string>
#include <vector>

#include "config/config.hh"
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
 * @throws FatalError when required keys are missing or out of domain,
 *         or when a planner section also gives n or offloaded_fraction.
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
 * Parse every section of a config into cases, preserving order.
 * @throws FatalError naming the section and every key in it that
 *         neither paramsFromConfig nor threadingFromConfig reads.
 */
std::vector<ConfigCase> casesFromConfig(const Config &cfg);

/** Load a config file and render projection reports for all sections. */
std::string runConfigFile(const std::string &path);

} // namespace accel::model
