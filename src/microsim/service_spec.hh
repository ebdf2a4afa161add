/**
 * @file
 * Unified construction API for simulated service instances.
 *
 * ServiceSpec gathers everything that describes one service — instance
 * shape (ServiceConfig), device (AcceleratorConfig), replica tier
 * (TierConfig), request mix (WorkloadSpec), arrival program, resilience
 * policies, and the RNG seed — behind one fluent builder. It exists
 * because the ServiceSim constructor-overload set could not grow to
 * express "node in a ServiceGraph with an injected event queue and a
 * shared accelerator tier" without combinatorial explosion; it replaced
 * those constructors outright.
 *
 * Unlike the per-struct validate() methods (which throw on the first
 * problem), errors() collects *every* field-named problem at once, so
 * graph assembly can report all invalid nodes in one failure instead
 * of stopping at the first. fromConfig() is the single config entry
 * point: one section parses service, accelerator, workload, tier,
 * fault-plan, arrival-program, and autoscaler keys together.
 */

#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "config/config.hh"
#include "microsim/service_sim.hh"

namespace accel::microsim {

/**
 * Fluent, validated description of one service instance.
 *
 * Setters return *this for chaining; build a simulator by passing
 * the spec to ServiceSim's constructor:
 *
 *     ServiceSim sim(ServiceSpec("web").service(svc).accelerator(dev)
 *                        .workload(work).seed(7));
 */
class ServiceSpec
{
  public:
    ServiceSpec() = default;

    /** @param specName label used in validation errors and GraphMetrics. */
    explicit ServiceSpec(std::string specName) : name_(std::move(specName)) {}

    // --- fluent setters ---
    ServiceSpec &name(std::string n);
    ServiceSpec &service(const ServiceConfig &svc);
    ServiceSpec &accelerator(const AcceleratorConfig &dev);
    ServiceSpec &tier(const TierConfig &t);
    ServiceSpec &workload(const WorkloadSpec &w);
    ServiceSpec &seed(std::uint64_t s);

    /**
     * Name a graph-owned shared AcceleratorTier this service contends
     * for (see ServiceGraph::addSharedTier). Only meaningful inside a
     * graph; a standalone ServiceSim rejects it.
     * Mutually exclusive with a non-trivial tier() of its own and with
     * the autoscaler (one controller cannot own a contended tier).
     */
    ServiceSpec &sharedTier(std::string tierName);

    // --- getters ---
    const std::string &name() const { return name_; }
    const ServiceConfig &service() const { return service_; }
    /** Mutable access for in-place tweaks between runs (A/B arms). */
    ServiceConfig &service() { return service_; }
    const AcceleratorConfig &accelerator() const { return accel_; }
    AcceleratorConfig &accelerator() { return accel_; }
    const TierConfig &tier() const { return tier_; }
    TierConfig &tier() { return tier_; }
    const WorkloadSpec &workload() const { return workload_; }
    WorkloadSpec &workload() { return workload_; }
    std::uint64_t seed() const { return seed_; }
    const std::string &sharedTierName() const { return sharedTierName_; }

    /**
     * Every validation problem with this spec, field-named, in a
     * stable order; empty when the spec is valid. Collects the
     * sub-config checks (ServiceConfig, AcceleratorConfig, TierConfig,
     * WorkloadSpec) plus the cross-cutting rules that used to live in
     * the ServiceSim constructor — notably hedging + Sync, which a
     * graph wants reported for *all* of its nodes at once.
     */
    std::vector<std::string> errors() const;

    /** @throws FatalError listing every errors() entry at once. */
    void validate() const;

    /**
     * Parse one config section into a spec — the single entry point
     * that unifies the scattered *FromConfig parsers. Recognised keys
     * (all optional; defaults match the field defaults):
     *
     *     ; --- service instance ---
     *     cores = 4
     *     threads = 4
     *     threading = sync            ; model::threadingFromConfig
     *     strategy = off-chip         ; on-chip | off-chip | remote
     *     clock_ghz = 2.0
     *     accelerated = true
     *     offload_setup = 100         ; o0 cycles
     *     context_switch = 3000       ; o1 cycles
     *     cache_pollution = 0
     *     response_pickup = 0
     *     unmodeled_per_offload = 0
     *     driver_waits_for_ack = true
     *     min_offload_bytes = 0
     *     max_outstanding = 64
     *     max_arrival_queue = 0
     *     open_arrivals_per_sec = 0
     *     seed = 1
     *     shared_tier = infer         ; graph-owned tier name
     *
     *     ; --- retry / breaker (presence of retry_timeout enables) ---
     *     retry_timeout = 2000
     *     retry_max_attempts = 2
     *     retry_backoff_base = 500
     *     retry_backoff_factor = 2
     *     retry_backoff_cap = 2000
     *     retry_host_fallback = true
     *     breaker_open_threshold = 0.5 ; presence enables the breaker
     *     breaker_window = 32          ; these three only with the
     *     breaker_min_samples = 8      ;  threshold (else: unknown
     *     breaker_probe_after = 1e6    ;  key, see breakerFromConfig)
     *
     *     ; --- accelerator device ---
     *     accel_speedup = 10
     *     accel_fixed_latency = 100
     *     accel_latency_per_byte = 0.1
     *     accel_channels = 1
     *
     *     ; --- workload ---
     *     work_non_kernel_cycles = 4000
     *     work_non_kernel_cv = 0.3
     *     work_kernels_per_request = 1
     *     work_granularity_cdf = 400:600:1.0
     *     work_cycles_per_byte = 2.0
     *     work_beta = 1.0
     *
     * plus the established composite parsers applied to the same
     * section: tierFromConfig (tier_*, fault_r<k>_*),
     * model::faultPlanFromConfig (fault_* → device fault plan),
     * arrivalProgramFromConfig (arrival_*), and autoscalerFromConfig
     * (scale_*). The section name becomes the spec name.
     *
     * Keys in @p section that none of the parsers recognise are
     * rejected with an error naming each offender (via
     * Config::unusedKeys), so a typo like `tier_hege_delay` fails
     * loudly instead of silently keeping the default.
     *
     * @throws FatalError on malformed values (the composite parsers
     *         throw their usual field-named errors) and on unknown
     *         keys; domain errors are reported by validate()/errors()
     *         so a caller can collect them across many sections.
     */
    static ServiceSpec fromConfig(const Config &cfg,
                                  const std::string &section);

  private:
    std::string name_ = "service";
    ServiceConfig service_;
    AcceleratorConfig accel_;
    TierConfig tier_;
    WorkloadSpec workload_;
    std::uint64_t seed_ = 1;
    std::string sharedTierName_;
};

} // namespace accel::microsim
