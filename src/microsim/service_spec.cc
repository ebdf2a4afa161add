#include "microsim/service_spec.hh"

#include <utility>

#include "util/logging.hh"

namespace accel::microsim {

using model::ThreadingDesign;

ServiceSpec &
ServiceSpec::name(std::string n)
{
    name_ = std::move(n);
    return *this;
}

ServiceSpec &
ServiceSpec::service(const ServiceConfig &svc)
{
    service_ = svc;
    return *this;
}

ServiceSpec &
ServiceSpec::accelerator(const AcceleratorConfig &dev)
{
    accel_ = dev;
    return *this;
}

ServiceSpec &
ServiceSpec::tier(const TierConfig &t)
{
    tier_ = t;
    return *this;
}

ServiceSpec &
ServiceSpec::workload(const WorkloadSpec &w)
{
    workload_ = w;
    return *this;
}

ServiceSpec &
ServiceSpec::seed(std::uint64_t s)
{
    seed_ = s;
    return *this;
}

ServiceSpec &
ServiceSpec::sharedTier(std::string tierName)
{
    sharedTierName_ = std::move(tierName);
    return *this;
}

std::vector<std::string>
ServiceSpec::errors() const
{
    std::vector<std::string> out;
    collectFatal(out, "", [this] { service_.validate(); });
    collectFatal(out, "", [this] { accel_.validate(); });
    collectFatal(out, "", [this] { tier_.validate(); });
    collectFatal(out, "", [this] { workload_.validate(); });
    // Cross-config rules. The hedging + Sync check used to hard-throw
    // in the ServiceSim constructor; here it is just one more entry,
    // so ServiceGraph::validate can report every invalid node at once.
    if (tier_.hedge.enabled && service_.design == ThreadingDesign::Sync) {
        out.push_back(
            "TierConfig.hedge cannot help ServiceConfig.design = Sync "
            "(the blocked driver waits on its single offload); use an "
            "async design or Sync-OS, or disable hedging");
    }
    if (!sharedTierName_.empty()) {
        if (!tier_.trivial()) {
            out.push_back(
                "ServiceSpec.sharedTier ('" + sharedTierName_ +
                "') excludes a non-trivial ServiceSpec.tier of its "
                "own: the graph-owned tier replaces it");
        }
        if (service_.autoscaler.enabled) {
            out.push_back(
                "ServiceSpec.sharedTier ('" + sharedTierName_ +
                "') excludes ServiceConfig.autoscaler: one service's "
                "controller cannot own a tier other services contend "
                "for");
        }
    }
    return out;
}

void
ServiceSpec::validate() const
{
    std::vector<std::string> errs = errors();
    if (errs.empty())
        return;
    std::string msg = "ServiceSpec '" + name_ + "':";
    for (const std::string &e : errs)
        msg += "\n  - " + e;
    fatal(msg);
}

} // namespace accel::microsim
