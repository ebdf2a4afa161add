#include "microsim/service_spec.hh"

#include <utility>

#include "model/config_frontend.hh"
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

namespace {

/**
 * Run one throwing sub-validator and collect its message (the
 * "fatal: " prefix stripped, since the collector re-raises through
 * fatal() itself).
 */
template <typename Fn>
void
collect(std::vector<std::string> &out, Fn &&check)
{
    try {
        check();
    } catch (const FatalError &e) {
        std::string msg = e.what();
        const std::string prefix = "fatal: ";
        if (msg.rfind(prefix, 0) == 0)
            msg.erase(0, prefix.size());
        out.push_back(std::move(msg));
    }
}

} // namespace

std::vector<std::string>
ServiceSpec::errors() const
{
    std::vector<std::string> out;
    collect(out, [this] { service_.validate(); });
    collect(out, [this] { accel_.validate(); });
    collect(out, [this] { tier_.validate(); });
    collect(out, [this] { workload_.validate(); });
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

ServiceSpec
ServiceSpec::fromConfig(const Config &cfg, const std::string &section)
{
    ServiceSpec spec(section);

    ServiceConfig svc;
    svc.cores =
        static_cast<std::uint32_t>(cfg.getCount(section, "cores", 1));
    svc.threads =
        static_cast<std::uint32_t>(cfg.getCount(section, "threads", 1));
    svc.design = model::threadingFromConfig(cfg, section);
    svc.strategy = model::strategyFromString(
        cfg.getString(section, "strategy", "off-chip"));
    svc.clockGHz = cfg.getDouble(section, "clock_ghz", 2.0);
    svc.accelerated = cfg.getBool(section, "accelerated", true);
    svc.offloadSetupCycles = cfg.getDouble(section, "offload_setup", 0.0);
    svc.contextSwitchCycles =
        cfg.getDouble(section, "context_switch", 0.0);
    svc.cachePollutionCycles =
        cfg.getDouble(section, "cache_pollution", 0.0);
    svc.responsePickupCycles =
        cfg.getDouble(section, "response_pickup", 0.0);
    svc.unmodeledPerOffloadCycles =
        cfg.getDouble(section, "unmodeled_per_offload", 0.0);
    svc.driverWaitsForAck =
        cfg.getBool(section, "driver_waits_for_ack", true);
    svc.minOffloadBytes = cfg.getDouble(section, "min_offload_bytes", 0.0);
    svc.maxOutstanding = static_cast<std::uint32_t>(
        cfg.getCount(section, "max_outstanding", 64));
    svc.maxArrivalQueue = static_cast<std::uint32_t>(
        cfg.getCount(section, "max_arrival_queue", 0));
    svc.openArrivalsPerSec =
        cfg.getDouble(section, "open_arrivals_per_sec", 0.0);

    // Presence of retry_timeout enables the deadline/retry layer; the
    // breaker follows the same presence convention on its threshold.
    svc.retry.timeoutCycles = cfg.getDouble(section, "retry_timeout", 0.0);
    svc.retry.maxAttempts = static_cast<std::uint32_t>(
        cfg.getCount(section, "retry_max_attempts", 1));
    svc.retry.backoffBaseCycles =
        cfg.getDouble(section, "retry_backoff_base", 0.0);
    svc.retry.backoffFactor =
        cfg.getDouble(section, "retry_backoff_factor", 2.0);
    svc.retry.backoffCapCycles =
        cfg.getDouble(section, "retry_backoff_cap", 1e9);
    svc.retry.hostFallback =
        cfg.getBool(section, "retry_host_fallback", true);
    svc.breaker = breakerFromConfig(cfg, section, "");

    svc.arrivalProgram = arrivalProgramFromConfig(cfg, section);
    svc.autoscaler = autoscalerFromConfig(cfg, section);
    spec.service(svc);

    AcceleratorConfig dev;
    dev.speedupFactor = cfg.getDouble(section, "accel_speedup", 1.0);
    dev.fixedLatencyCycles =
        cfg.getDouble(section, "accel_fixed_latency", 0.0);
    dev.latencyCyclesPerByte =
        cfg.getDouble(section, "accel_latency_per_byte", 0.0);
    dev.channels = static_cast<std::uint32_t>(
        cfg.getCount(section, "accel_channels", 1));
    dev.faultPlan = model::faultPlanFromConfig(cfg, section);
    spec.accelerator(dev);

    WorkloadSpec work;
    work.nonKernelCyclesMean =
        cfg.getDouble(section, "work_non_kernel_cycles", 0.0);
    work.nonKernelCv = cfg.getDouble(section, "work_non_kernel_cv", 0.0);
    work.kernelsPerRequest = static_cast<std::uint32_t>(
        cfg.getCount(section, "work_kernels_per_request", 1));
    if (cfg.has(section, "work_granularity_cdf")) {
        work.granularity =
            std::make_shared<const BucketDist>(model::granularityFromConfig(
                cfg.getString(section, "work_granularity_cdf")));
    }
    work.cyclesPerByte = cfg.getDouble(section, "work_cycles_per_byte", 0.0);
    work.beta = cfg.getDouble(section, "work_beta", 1.0);
    spec.workload(work);

    spec.tier(tierFromConfig(cfg, section));
    spec.seed(cfg.getCount(section, "seed", 1));
    if (cfg.has(section, "shared_tier"))
        spec.sharedTier(cfg.getString(section, "shared_tier"));
    // Every recognised key has been probed by now (the composite
    // parsers above walk their full key lists), so anything the
    // tracker never saw is a key this parser does not understand —
    // almost always a typo that would otherwise silently fall back to
    // a default. Reject it by name instead.
    std::vector<std::string> unknown = cfg.unusedKeys(section);
    if (!unknown.empty()) {
        std::string msg = "ServiceSpec::fromConfig: unknown key" +
            std::string(unknown.size() == 1 ? "" : "s") + " in [" +
            section + "]:";
        for (const std::string &k : unknown)
            msg += " '" + k + "'";
        fatal(msg);
    }
    return spec;
}

} // namespace accel::microsim
