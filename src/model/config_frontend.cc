#include "model/config_frontend.hh"

#include <sstream>
#include <string>

#include "model/granularity.hh"
#include "model/report.hh"
#include "util/logging.hh"
#include "util/string_utils.hh"

namespace accel::model {

BucketDist
granularityFromConfig(const std::string &literal)
{
    std::vector<DistBucket> buckets;
    for (const std::string &part : split(literal, ',')) {
        std::string triple = trim(part);
        if (triple.empty())
            continue;
        auto fields = split(triple, ':');
        require(fields.size() == 3,
                "granularity_cdf: expected lo:hi:mass, got '" + triple +
                    "'");
        buckets.push_back({parseDouble(fields[0]),
                           parseDouble(fields[1]),
                           parseDouble(fields[2])});
    }
    require(!buckets.empty(), "granularity_cdf: no buckets");
    return BucketDist(std::move(buckets));
}

Params
paramsFromConfig(const Config &cfg, const std::string &section)
{
    Params p;
    p.hostCycles = cfg.getDouble(section, "C");
    p.alpha = cfg.getDouble(section, "alpha");
    p.setupCycles = cfg.getDouble(section, "o0", 0.0);
    p.queueCycles = cfg.getDouble(section, "Q", 0.0);
    p.interfaceCycles = cfg.getDouble(section, "L", 0.0);
    p.threadSwitchCycles = cfg.getDouble(section, "o1", 0.0);
    p.accelFactor = cfg.getDouble(section, "A", 1.0);
    p.strategy =
        strategyFromString(cfg.getString(section, "strategy", "off-chip"));

    if (cfg.has(section, "granularity_cdf")) {
        // Planner mode: derive n and the offloaded fraction from the
        // kernel's size distribution and per-byte cost.
        for (const char *derived : {"n", "offloaded_fraction"}) {
            require(!cfg.has(section, derived),
                    std::string("config: give either ") + derived +
                        " or a granularity_cdf, not both");
        }
        BucketDist sizes = granularityFromConfig(
            cfg.getString(section, "granularity_cdf"));
        OffloadProfit profit{cfg.getDouble(section, "cb"),
                             cfg.getDouble(section, "beta", 1.0)};
        double n_total = cfg.getDouble(section, "n_total");
        std::string weighting =
            toLower(cfg.getString(section, "weighting", "count"));
        require(weighting == "count" || weighting == "bytes",
                "config: weighting must be 'count' or 'bytes'");
        auto plan = planOffloads(
            sizes, n_total, p.alpha, profit,
            threadingFromConfig(cfg, section), p,
            weighting == "count" ? AlphaWeighting::CountWeighted
                                 : AlphaWeighting::BytesWeighted);
        p = applyPlan(p, p.alpha, plan);
    } else {
        p.offloads = cfg.getDouble(section, "n");
        p.offloadedFraction =
            cfg.getDouble(section, "offloaded_fraction", 1.0);
    }
    p.validate();
    return p;
}

ThreadingDesign
threadingFromConfig(const Config &cfg, const std::string &section)
{
    return threadingFromString(cfg.getString(section, "threading", "sync"));
}

std::vector<ConfigCase>
casesFromConfig(const Config &cfg)
{
    std::vector<ConfigCase> cases;
    for (const std::string &section : cfg.sections()) {
        if (section.empty() && cfg.keys(section).empty())
            continue;
        ConfigCase c;
        c.name = section.empty() ? "(global)" : section;
        c.params = paramsFromConfig(cfg, section);
        c.design = threadingFromConfig(cfg, section);
        // Every key the model reads has been probed by now, so a key
        // left unused is one it does not know: usually a typo that
        // would otherwise silently keep the default.
        std::vector<std::string> unknown = cfg.unusedKeys(section);
        if (!unknown.empty()) {
            std::string msg = "config: unknown key" +
                std::string(unknown.size() == 1 ? "" : "s") + " in [" +
                c.name + "]:";
            for (const std::string &k : unknown)
                msg += " '" + k + "'";
            fatal(msg);
        }
        cases.push_back(std::move(c));
    }
    return cases;
}

std::string
runConfigFile(const std::string &path)
{
    Config cfg = Config::fromFile(path);
    std::vector<ConfigCase> cases = casesFromConfig(cfg);
    if (cases.empty())
        fatal("config '" + path + "' defines no parameter sections");
    std::ostringstream os;
    for (const auto &c : cases) {
        os << projectionReport(c.params, "== " + c.name + " ==");
        os << projectionLine(c.params, c.design) << "\n\n";
    }
    return os.str();
}

} // namespace accel::model
