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
 * of stopping at the first.
 */

#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

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
