/**
 * @file
 * perf_ladder: host-performance benchmark of the simulator stack and
 * the profiling pipeline (see README.md in this directory).
 *
 * One process runs one workload: set-up, one untimed warm-up round,
 * then timed rounds that each replay the same seeded input on one
 * thread. setup_s is the time from main() entry to the first timed
 * round, less the warm-up round. units_per_s and setup_s are scaled to
 * a reference host speed (see referenceSeconds). Every round's output is
 * digested (FNV-1a) and must equal the first round's and, at the
 * golden seed, golden.json's; the workload's self-checks must pass.
 * The last line of standard output is one JSON object:
 *
 *   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
 *
 * with the end-to-end metrics, or the per-layer metrics when --trace
 * is given. --trace adds one traced round (spans around every public
 * call, written as Chrome trace-event JSON) and the ThreadPool probe.
 *
 * Usage:
 *   perf_ladder --workload NAME [--seed N] [--seconds S | --rounds R]
 *               [--trace PATH] [--json PATH]
 *   perf_ladder --smoke              all workloads, seeds 2020 and 7
 *   perf_ladder --update-golden      rewrite golden.json (seed 2020)
 *   perf_ladder --check-alloc-hook   verify the allocation counter
 *   perf_ladder --list               print the workload names
 *
 * Exit status: 0 when every check passed, 1 on a failed check, 2 on a
 * usage error.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <queue>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "alloc_hook.hh"
#include "probe.hh"
#include "util/logging.hh"
#include "util/thread_pool.hh"
#include "util/wall_timer.hh"
#include "workloads.hh"

using namespace accel;
using namespace accel::perf;

namespace {

struct MetricDef
{
    const char *name;
    const char *unit;
    const char *moves; //!< end-to-end metric and workloads it should move
};

// The registry BENCHMARK.json mirrors.
const MetricDef kEndToEnd[] = {
    {"units_per_s", "units/s", ""},
    {"allocs_per_unit", "allocs/unit", ""},
    {"peak_rss_mb", "MB", ""},
    {"setup_s", "s", ""},
};

const MetricDef kPerLayer[] = {
    {"sim.events_per_unit", "events/unit",
     "units_per_s: casestudy_ab, tier_brownout"},
    {"sim.host_ns_per_event", "ns/event",
     "units_per_s: casestudy_ab, tier_brownout"},
    {"service.run_allocs_per_unit", "allocs/unit",
     "allocs_per_unit, units_per_s: casestudy_ab, tier_brownout"},
    {"service.ctor_us", "us/round",
     "units_per_s: casestudy_ab, tier_brownout"},
    {"service.collect_us", "us/round",
     "units_per_s: casestudy_ab, tier_brownout"},
    {"service.timeouts_per_offload", "count/offload",
     "units_per_s: tier_brownout"},
    {"service.retries_per_offload", "count/offload",
     "units_per_s: tier_brownout"},
    {"service.breaker_opens", "count", "units_per_s: tier_brownout"},
    {"service.core_busy_frac", "frac", "sim_err_pp, model_err_pp (model)"},
    {"service.overhead_frac", "frac", "sim_err_pp, model_err_pp (model)"},
    {"sim_err_pp", "pp", "fixed: casestudy_ab accuracy vs the paper"},
    {"model_err_pp", "pp", "fixed: casestudy_ab model vs simulation"},
    {"accel.offloads_per_unit", "count/unit",
     "sim_err_pp, model_err_pp: casestudy_ab (model)"},
    {"accel.busy_frac", "frac",
     "sim_err_pp, model_err_pp: casestudy_ab (model)"},
    {"accel.queue_wait_cycles_mean", "cycles",
     "sim_err_pp, model_err_pp: casestudy_ab (model)"},
    {"tier.hedges_per_offload", "count/offload",
     "units_per_s: tier_brownout; zero on casestudy_ab"},
    {"tier.failovers_per_offload", "count/offload",
     "units_per_s: tier_brownout; zero on casestudy_ab"},
    {"tier.duplicate_work_frac", "frac",
     "units_per_s: tier_brownout; zero on casestudy_ab"},
    {"graph.hops_per_root", "count/root",
     "units_per_s, allocs_per_unit: graph_fanout, graph_brownout"},
    {"graph.run_allocs_per_unit", "allocs/unit",
     "allocs_per_unit, units_per_s: graph_fanout, graph_brownout"},
    {"graph.assemble_us", "us/round",
     "units_per_s: graph_fanout, graph_brownout"},
    {"graph.validate_us", "us/round",
     "units_per_s: graph_fanout, graph_brownout"},
    {"graph.attempts_per_call", "count/call",
     "units_per_s: graph_brownout; zero on graph_fanout"},
    {"graph.ignored_frac", "frac",
     "units_per_s: graph_brownout; zero on graph_fanout"},
    {"graph.short_circuit_frac", "frac",
     "units_per_s: graph_brownout; zero on graph_fanout"},
    {"graph.retries_suppressed", "count",
     "units_per_s: graph_brownout; zero on graph_fanout"},
    {"graph.degraded_root_frac", "frac",
     "units_per_s: graph_brownout; zero on graph_fanout"},
    {"graph.breaker_opens", "count",
     "units_per_s: graph_brownout; zero on graph_fanout"},
    {"graph.root_p50_cycles", "cycles", "none (model)"},
    {"graph.root_p99_cycles", "cycles", "none (model)"},
    {"profiling.sample_ns_per_trace", "ns/trace",
     "units_per_s: profile_fleet"},
    {"profiling.aggregate_ns_per_trace", "ns/trace",
     "units_per_s: profile_fleet"},
    {"profiling.sample_allocs_per_trace", "allocs/trace",
     "allocs_per_unit: profile_fleet"},
    {"profiling.aggregate_allocs_per_trace", "allocs/trace",
     "allocs_per_unit: profile_fleet"},
    {"profiling.setup_us", "us/setup", "setup_s: profile_fleet"},
    {"profiling.max_share_err_pp", "pp", "fixed: profile_fleet accuracy"},
    {"runner.speedup", "x", "none (timed rounds are serial)"},
    {"runner.serial_frac", "frac", "none (timed rounds are serial)"},
    {"trace.overhead_frac", "frac", "none (traced vs untraced round)"},
};

struct Options
{
    std::string workload;
    std::uint64_t seed = kGoldenSeed;
    double seconds = 15.0;
    int rounds = 0; //!< > 0: exactly this many timed rounds
    std::string tracePath;
    std::string jsonPath;
};

double
now()
{
    return steadyWallTimer().seconds();
}

std::string
num(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string
hex(std::uint64_t v)
{
    char buf[20];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0.0;
}

/** Quartiles as Python's statistics.quantiles(data, n=4) gives them. */
std::vector<double>
quartiles(std::vector<double> data)
{
    std::sort(data.begin(), data.end());
    const long ld = static_cast<long>(data.size());
    if (ld == 0)
        return {0, 0, 0};
    if (ld == 1)
        return {data[0], data[0], data[0]};
    std::vector<double> out;
    const long m = ld + 1;
    for (long i = 1; i < 4; ++i) {
        const long j = std::clamp(i * m / 4, 1L, ld - 1);
        const long delta = i * m - j * 4;
        out.push_back((data[j - 1] * static_cast<double>(4 - delta) +
                       data[j] * static_cast<double>(delta)) /
                      4.0);
    }
    return out;
}

/**
 * Host-speed reference: a fixed event loop over a binary heap, a
 * std::map and small heap objects — the same kind of pointer-heavy,
 * allocating code the simulators run. It uses nothing from the library,
 * so no change outside this file can move it. A shared host's speed
 * swings by 2x over seconds to minutes; timed between rounds, this loop
 * slows with it, and the end-to-end timings are scaled by its time over
 * kReferenceSeconds so that the swing cancels and a code change shows.
 *
 * @return the loop's wall time, in seconds.
 */
double
referenceSeconds()
{
    struct Node
    {
        std::uint64_t payload[4];
    };
    using Event = std::pair<std::uint64_t, std::uint32_t>;
    static volatile std::uint64_t sink = 0;

    const double start = now();
    std::uint64_t x = 88172645463325252ULL; // xorshift64
    const auto draw = [&x] {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        return x % 1000;
    };
    std::priority_queue<Event, std::vector<Event>, std::greater<>> events;
    std::map<std::uint32_t, std::unique_ptr<Node>> live;
    for (std::uint32_t i = 0; i < 4096; ++i)
        events.push({draw(), i});
    std::uint64_t t = 0;
    for (int step = 0; step < 50000; ++step) {
        const Event e = events.top();
        events.pop();
        t = e.first;
        live[e.second] = std::make_unique<Node>(Node{{t, t, t, t}});
        if (live.size() > 2048)
            live.erase(live.begin());
        events.push({t + 1 + draw(), e.second});
    }
    sink = sink + t + live.size();
    return now() - start;
}

/** referenceSeconds() on a quiet host of the kind baseline.json names. */
constexpr double kReferenceSeconds = 0.010;

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

unsigned
hostCpus()
{
    return std::max(1u, std::thread::hardware_concurrency());
}

// ------------------------------------------------------------------
// golden.json: {"seed": 2020, "digests": {"<workload>": "<hex>", ...}}
// ------------------------------------------------------------------

std::map<std::string, std::string>
loadGolden()
{
    std::map<std::string, std::string> out;
    std::ifstream in(PERF_GOLDEN_PATH);
    std::stringstream text;
    text << in.rdbuf();
    const std::string s = text.str();
    for (const WorkloadInfo &w : workloadInfos()) {
        const std::string key = std::string("\"") + w.name + "\"";
        const size_t at = s.find(key);
        if (at == std::string::npos)
            continue;
        const size_t open = s.find('"', at + key.size());
        const size_t close =
            open == std::string::npos ? open : s.find('"', open + 1);
        if (close != std::string::npos)
            out[w.name] = s.substr(open + 1, close - open - 1);
    }
    return out;
}

bool
writeGolden(const std::map<std::string, std::string> &digests)
{
    std::ofstream out(PERF_GOLDEN_PATH);
    out << "{\n  \"seed\": " << kGoldenSeed << ",\n  \"digests\": {";
    const char *sep = "\n";
    for (const WorkloadInfo &w : workloadInfos()) {
        out << sep << "    \"" << w.name << "\": \"" << digests.at(w.name)
            << "\"";
        sep = ",\n";
    }
    out << "\n  }\n}\n";
    return static_cast<bool>(out);
}

// ------------------------------------------------------------------
// One workload, one process
// ------------------------------------------------------------------

struct RoundStat
{
    double seconds = 0.0;
    std::uint64_t units = 0;
    std::uint64_t allocs = 0;
    std::uint64_t digest = 0;
    bool ok = true;
    /** Mean referenceSeconds() on either side / kReferenceSeconds. */
    double slowdown = 1.0;

    double unitsPerSecond() const { return ratio(units, seconds); }
    double scaledUnitsPerSecond() const { return unitsPerSecond() * slowdown; }
    double allocsPerUnit() const { return ratio(allocs, units); }
};

class Runner
{
  public:
    /** @p mainStart: the clock reading at main() entry, for setup_s. */
    Runner(const Options &opt, std::unique_ptr<Workload> workload,
           double mainStart)
        : opt_(opt), workload_(std::move(workload)), mainStart_(mainStart)
    {
        const auto golden = loadGolden();
        const auto it = golden.find(opt_.workload);
        if (opt_.seed == kGoldenSeed && it != golden.end())
            golden_ = it->second;
    }

    /** Run every phase; @return true when every check passed. */
    bool run();

    void print(std::ostream &os) const;
    /** The one-line result: end-to-end, or per-layer when traced. */
    std::string contractJson() const;
    /** Everything, for --json and compare.py. */
    std::string reportJson() const;

  private:
    /** One replay of the workload, checked against the first one. */
    RoundStat replay(bool traced, std::uint32_t id);
    void traceRun();

    /**
     * Per-timed-round series, and how many checked rounds (warm-up,
     * timed and traced) were run and failed.
     */
    struct Series
    {
        std::vector<double> unitsPerSecond; //!< scaled to reference speed
        std::vector<double> rawUnitsPerSecond;
        std::vector<double> allocsPerUnit;
        int attempted = 0;
        int failed = 0;
    };
    Series series() const;

    /** {"name": {"value": .., "unit": ..}, ..} for one metric table. */
    std::string metricsJson(bool perLayer) const;

    /** setup_s: the set-up time scaled to the reference host speed. */
    double
    scaledSetupSeconds() const
    {
        return setupSeconds_ * kReferenceSeconds / referenceSeconds_.front();
    }

    const Options &opt_;
    std::unique_ptr<Workload> workload_;
    const double mainStart_;
    std::string golden_; //!< empty: no golden digest for this seed
    Probe probe_;
    Cost untraced_[static_cast<size_t>(Site::Count)];

    double setupSeconds_ = 0.0; //!< as read, not scaled
    /** referenceSeconds() after the warm-up round and after each timed one. */
    std::vector<double> referenceSeconds_;
    RoundStat warmup_;
    std::vector<RoundStat> rounds_;
    std::optional<RoundStat> traced_;
    bool haveReference_ = false;
    std::uint64_t reference_ = 0;
    double peakRssMb_ = 0.0;
    std::map<std::string, int> failures_; //!< message -> occurrences
    LayerValues layers_;
};

RoundStat
Runner::replay(bool traced, std::uint32_t id)
{
    probe_.begin(traced, id);
    RoundStat r;
    const std::uint64_t allocsBefore = allocationCount();
    const double start = now();
    try {
        Probe::Scope s(probe_, Site::Round);
        r.units = workload_->round(probe_);
    } catch (const std::exception &e) {
        ++failures_[std::string("round threw: ") + e.what()];
        r.ok = false;
    }
    r.seconds = now() - start;
    r.allocs = allocationCount() - allocsBefore;
    if (!r.ok)
        return r;

    r.digest = workload_->digest();
    if (!haveReference_) {
        haveReference_ = true;
        reference_ = r.digest;
    }
    std::vector<std::string> checks;
    workload_->check(checks);
    if (r.digest != reference_)
        checks.push_back("digest differs from the first round's");
    if (opt_.seed == kGoldenSeed && golden_ != hex(r.digest))
        checks.push_back("digest " + hex(r.digest) + " != golden " +
                         (golden_.empty() ? "(missing)" : golden_));
    for (const std::string &c : checks)
        ++failures_[c];
    r.ok = checks.empty();
    return r;
}

bool
Runner::run()
{
    workload_->setup(probe_);
    // The warm-up round runs next and the timed rounds right after it,
    // so this is main() entry to the first timed round, less warm-up.
    setupSeconds_ = now() - mainStart_;

    warmup_ = replay(false, 0);
    referenceSeconds_.push_back(referenceSeconds());

    const double phaseStart = now();
    const auto more = [&] {
        if (opt_.rounds > 0)
            return static_cast<int>(rounds_.size()) < opt_.rounds;
        return rounds_.empty() || now() - phaseStart < opt_.seconds;
    };
    for (std::uint32_t id = 1; more(); ++id) {
        RoundStat r = replay(false, id);
        for (size_t s = 0; s < static_cast<size_t>(Site::Count); ++s)
            untraced_[s] = probe_.cost(static_cast<Site>(s));
        referenceSeconds_.push_back(referenceSeconds());
        r.slowdown = (referenceSeconds_.end()[-2] + referenceSeconds_.back()) /
                     (2 * kReferenceSeconds);
        rounds_.push_back(r);
    }
    peakRssMb_ = peakRssMb();

    std::vector<std::string> cross;
    try {
        workload_->crossCheck(cross);
    } catch (const std::exception &e) {
        cross.push_back(std::string("cross-check threw: ") + e.what());
    }
    for (const std::string &c : cross)
        ++failures_[c];
    if (!cross.empty())
        rounds_.back().ok = false;

    if (!opt_.tracePath.empty())
        traceRun();
    return failures_.empty();
}

Runner::Series
Runner::series() const
{
    Series s;
    for (const RoundStat &r : rounds_) {
        s.unitsPerSecond.push_back(r.scaledUnitsPerSecond());
        s.rawUnitsPerSecond.push_back(r.unitsPerSecond());
        s.allocsPerUnit.push_back(r.allocsPerUnit());
    }
    const auto count = [&s](const RoundStat &r) {
        ++s.attempted;
        s.failed += r.ok ? 0 : 1;
    };
    count(warmup_);
    for (const RoundStat &r : rounds_)
        count(r);
    if (traced_)
        count(*traced_);
    return s;
}

void
Runner::traceRun()
{
    const std::uint32_t id = static_cast<std::uint32_t>(rounds_.size()) + 1;
    probe_.begin(true, id);
    workload_->setup(probe_);
    const double setupUs = probe_.cost(Site::SamplerCtor).seconds * 1e6;
    traced_ = replay(true, id);
    const RoundStat &traced = *traced_;
    // Costs of the traced round, before the runner probe adds its own.
    Cost cost[static_cast<size_t>(Site::Count)];
    for (size_t s = 0; s < static_cast<size_t>(Site::Count); ++s)
        cost[s] = probe_.cost(static_cast<Site>(s));
    const auto at = [&cost](Site s) -> const Cost & {
        return cost[static_cast<size_t>(s)];
    };
    const auto untraced = [this](Site s) -> const Cost & {
        return untraced_[static_cast<size_t>(s)];
    };

    const unsigned width = std::min(4u, hostCpus());
    const RunnerProbeResult runner = probeRunner(opt_.seed, width, probe_);
    if (!runner.identical) {
        ++failures_["runner probe: parallel batch differs from serial"];
        traced_->ok = false;
    }

    if (!probe_.writeChromeTrace(opt_.tracePath,
                                 "perf_ladder " + opt_.workload + " seed " +
                                     std::to_string(opt_.seed))) {
        ++failures_["cannot write trace " + opt_.tracePath];
        traced_->ok = false;
    }

    LayerValues &l = layers_;
    for (const MetricDef &m : kPerLayer)
        l[m.name] = 0.0;
    workload_->layers(l);
    const double units = static_cast<double>(traced.units);
    const double events = l["sim.events_per_unit"] * units;
    l["sim.host_ns_per_event"] =
        ratio(at(Site::RunUntil).seconds * 1e9, events);
    l["service.run_allocs_per_unit"] =
        ratio(untraced(Site::RunUntil).allocs, units);
    l["service.ctor_us"] = at(Site::ServiceCtor).seconds * 1e6;
    l["service.collect_us"] = at(Site::Collect).seconds * 1e6;
    l["graph.run_allocs_per_unit"] =
        ratio(untraced(Site::GraphRun).allocs, units);
    l["graph.assemble_us"] = at(Site::GraphAssemble).seconds * 1e6;
    l["graph.validate_us"] = at(Site::GraphValidate).seconds * 1e6;
    l["profiling.sample_ns_per_trace"] =
        ratio(at(Site::SampleMany).seconds * 1e9, units);
    l["profiling.aggregate_ns_per_trace"] =
        ratio(at(Site::AddAll).seconds * 1e9, units);
    l["profiling.sample_allocs_per_trace"] =
        ratio(untraced(Site::SampleMany).allocs, units);
    l["profiling.aggregate_allocs_per_trace"] =
        ratio(untraced(Site::AddAll).allocs, units);
    l["profiling.setup_us"] = setupUs;

    const double speedup =
        ratio(runner.serialSeconds, runner.parallelSeconds);
    l["runner.speedup"] = speedup;
    // Karp-Flatt experimentally determined serial fraction.
    const double p = runner.workers;
    l["runner.serial_frac"] =
        p > 1 ? (1.0 / speedup - 1.0 / p) / (1.0 - 1.0 / p) : 1.0;
    l["trace.overhead_frac"] =
        ratio(quartiles(series().rawUnitsPerSecond)[1],
              traced.unitsPerSecond()) -
        1.0;
}

void
Runner::print(std::ostream &os) const
{
    const Series s = series();
    const std::vector<double> &apu = s.allocsPerUnit;
    const std::vector<double> q = quartiles(s.unitsPerSecond);
    const bool allocsRepeat =
        std::adjacent_find(apu.begin(), apu.end(), std::not_equal_to<>()) ==
        apu.end();
    const char *unit = "unit";
    for (const WorkloadInfo &w : workloadInfos())
        if (opt_.workload == w.name)
            unit = w.unit;

    os << "perf_ladder " << opt_.workload << " seed " << opt_.seed << ": "
       << rounds_.size() << " timed rounds, "
       << (rounds_.empty() ? 0 : rounds_.front().units) << " x " << unit
       << " per round\n";
    os << "  units_per_s      " << num(q[1]) << " units/s (q1 " << num(q[0])
       << ", q3 " << num(q[2]) << ", " << rounds_.size()
       << " rounds; unscaled "
       << num(quartiles(s.rawUnitsPerSecond)[1]) << ")\n";
    os << "  allocs_per_unit  " << num(quartiles(apu)[1]) << " allocs/unit"
       << (allocsRepeat ? " (every round identical)" : " (rounds differ)")
       << "\n";
    os << "  peak_rss_mb      " << num(peakRssMb_) << " MB\n";
    os << "  setup_s          " << num(scaledSetupSeconds())
       << " s (main() to the first timed round, less the warm-up; "
          "unscaled "
       << num(setupSeconds_) << ")\n";
    os << "  host slowdown    "
       << num(quartiles(referenceSeconds_)[1] / kReferenceSeconds)
       << " (median reference loop time / " << num(kReferenceSeconds)
       << " s)\n";
    os << "  failed_frac      " << num(ratio(s.failed, s.attempted)) << " ("
       << s.failed << "/" << s.attempted << " checked rounds)\n";
    os << "  digest           " << hex(reference_)
       << (opt_.seed != kGoldenSeed ? " (no golden at this seed)"
           : golden_ == hex(reference_) ? " (matches golden)"
                                        : " (GOLDEN MISMATCH)")
       << "\n";
    if (!layers_.empty()) {
        os << "  per-layer (traced round):\n";
        for (const MetricDef &m : kPerLayer) {
            char line[200];
            std::snprintf(line, sizeof line, "    %-38s %-22s %-14s %s\n",
                          m.name, num(layers_.at(m.name)).c_str(), m.unit,
                          m.moves);
            os << line;
        }
        os << "  trace written to " << opt_.tracePath << "\n";
    }
    for (const auto &[msg, count] : failures_)
        os << "  FAIL: " << msg << " (x" << count << ")\n";
}

std::string
Runner::metricsJson(bool perLayer) const
{
    std::ostringstream os;
    os << "{";
    const char *sep = "";
    const auto metric = [&](const MetricDef &m, double v) {
        os << sep << "\"" << m.name << "\": {\"value\": " << num(v)
           << ", \"unit\": \"" << m.unit << "\"}";
        sep = ", ";
    };
    if (perLayer) {
        for (const MetricDef &m : kPerLayer)
            metric(m, layers_.at(m.name));
    } else {
        const Series s = series();
        const double values[] = {quartiles(s.unitsPerSecond)[1],
                                 quartiles(s.allocsPerUnit)[1], peakRssMb_,
                                 scaledSetupSeconds()};
        for (size_t i = 0; i < std::size(kEndToEnd); ++i)
            metric(kEndToEnd[i], values[i]);
    }
    os << "}";
    return os.str();
}

std::string
Runner::contractJson() const
{
    const Series s = series();
    std::ostringstream os;
    os << "{\"correct\": " << (failures_.empty() ? "true" : "false")
       << ", \"attempted\": " << s.attempted << ", \"failed\": " << s.failed
       << ", \"metrics\": " << metricsJson(!layers_.empty()) << "}";
    return os.str();
}

std::string
Runner::reportJson() const
{
    const Series s = series();
    const auto list = [](const std::vector<double> &v) {
        std::string out = "[";
        for (size_t i = 0; i < v.size(); ++i)
            out += (i ? ", " : "") + num(v[i]);
        return out + "]";
    };
    // One line, so that reports concatenate into a JSON-lines file.
    std::ostringstream os;
    os << "{\"workload\": \"" << opt_.workload << "\", \"seed\": "
       << opt_.seed << ", \"nproc\": " << hostCpus() << ", \"compiler\": \""
       << __VERSION__ << "\", \"correct\": "
       << (failures_.empty() ? "true" : "false") << ", \"digest\": \""
       << hex(reference_) << "\", \"golden\": \"" << golden_
       << "\", \"units_per_round\": "
       << (rounds_.empty() ? 0 : rounds_.front().units)
       << ", \"warmup_s\": " << num(warmup_.seconds)
       << ", \"round_units_per_s\": " << list(s.unitsPerSecond)
       << ", \"round_unscaled_units_per_s\": " << list(s.rawUnitsPerSecond)
       << ", \"round_allocs_per_unit\": " << list(s.allocsPerUnit)
       << ", \"reference_s\": " << list(referenceSeconds_)
       << ", \"unscaled_setup_s\": " << num(setupSeconds_)
       << ", \"end_to_end\": " << metricsJson(false) << ", \"per_layer\": "
       << (layers_.empty() ? "{}" : metricsJson(true)) << ", \"failures\": [";
    const char *sep = "";
    for (const auto &[msg, count] : failures_) {
        std::string text = msg + " (x" + std::to_string(count) + ")";
        std::replace(text.begin(), text.end(), '"', '\'');
        std::replace(text.begin(), text.end(), '\\', '/');
        os << sep << "\"" << text << "\"";
        sep = ", ";
    }
    os << "]}\n";
    return os.str();
}

// ------------------------------------------------------------------
// Smoke and golden modes: one round per (workload, seed), all checks
// ------------------------------------------------------------------

/** One round of @p name at @p seed. @return its digest, or 0 on failure. */
std::uint64_t
singleRound(const std::string &name, std::uint64_t seed,
            std::vector<std::string> &failures)
{
    std::unique_ptr<Workload> w = makeWorkload(name, seed);
    Probe probe;
    try {
        w->setup(probe);
        w->round(probe);
        w->check(failures);
        w->crossCheck(failures);
    } catch (const std::exception &e) {
        failures.push_back(std::string("threw: ") + e.what());
    }
    return failures.empty() ? w->digest() : 0;
}

int
smoke()
{
    const auto golden = loadGolden();
    bool ok = allocationHookCounts();
    std::cout << "alloc hook: " << (ok ? "counts" : "BROKEN") << "\n";
    for (std::uint64_t seed : {kGoldenSeed, std::uint64_t{7}}) {
        for (const WorkloadInfo &w : workloadInfos()) {
            const double start = now();
            std::vector<std::string> failures;
            const std::uint64_t digest = singleRound(w.name, seed, failures);
            if (seed == kGoldenSeed && failures.empty() &&
                (!golden.count(w.name) || golden.at(w.name) != hex(digest)))
                failures.push_back("digest " + hex(digest) +
                                   " != golden");
            std::cout << (failures.empty() ? "PASS " : "FAIL ") << w.name
                      << " seed " << seed << " digest " << hex(digest)
                      << " (" << num(now() - start) << " s)\n";
            for (const std::string &f : failures)
                std::cout << "  " << f << "\n";
            ok = ok && failures.empty();
        }
    }
    return ok ? 0 : 1;
}

int
updateGolden()
{
    std::map<std::string, std::string> digests;
    for (const WorkloadInfo &w : workloadInfos()) {
        std::vector<std::string> failures;
        const std::uint64_t digest =
            singleRound(w.name, kGoldenSeed, failures);
        if (!failures.empty()) {
            std::cerr << "perf_ladder: " << w.name << " failed its checks; "
                      << "golden.json left unchanged\n";
            for (const std::string &f : failures)
                std::cerr << "  " << f << "\n";
            return 1;
        }
        digests[w.name] = hex(digest);
        std::cout << w.name << " " << digests[w.name] << "\n";
    }
    if (!writeGolden(digests)) {
        std::cerr << "perf_ladder: cannot write " << PERF_GOLDEN_PATH << "\n";
        return 1;
    }
    std::cout << "wrote " << PERF_GOLDEN_PATH << "\n";
    return 0;
}

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "perf_ladder: " << why
              << "\nusage: perf_ladder --workload NAME [--seed N] "
                 "[--seconds S | --rounds R] [--trace PATH] [--json PATH]\n"
                 "       perf_ladder --smoke | --update-golden | "
                 "--check-alloc-hook | --list\nworkloads:";
    for (const WorkloadInfo &w : workloadInfos())
        std::cerr << " " << w.name;
    std::cerr << "\n";
    std::exit(2);
}

} // namespace

int
main(int argc, char **argv)
{
    const double mainStart = now();
    setLogLevel(LogLevel::Silent);
    // Timed rounds are single-threaded: runAbTest-style fan-out must
    // not add threads behind the benchmark's back.
    ThreadPool::setWorkers(1);

    Options opt;
    std::string mode;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage("missing value for " + arg);
            return argv[++i];
        };
        if (arg == "--workload")
            opt.workload = value();
        else if (arg == "--seed")
            opt.seed = std::strtoull(value().c_str(), nullptr, 10);
        else if (arg == "--seconds")
            opt.seconds = std::atof(value().c_str());
        else if (arg == "--rounds")
            opt.rounds = std::atoi(value().c_str());
        else if (arg == "--trace")
            opt.tracePath = value();
        else if (arg == "--json")
            opt.jsonPath = value();
        else if (arg == "--smoke" || arg == "--update-golden" ||
                 arg == "--check-alloc-hook" || arg == "--list")
            mode = arg;
        else
            usage("unknown argument '" + arg + "'");
    }

    if (!allocationHookCounts()) {
        std::cerr << "perf_ladder: the allocation hook does not count\n";
        return 1;
    }
    if (mode == "--check-alloc-hook") {
        std::cout << "allocation hook counts one new as one allocation\n";
        return 0;
    }
    if (mode == "--list") {
        for (const WorkloadInfo &w : workloadInfos())
            std::cout << w.name << "\n";
        return 0;
    }
    if (mode == "--smoke")
        return smoke();
    if (mode == "--update-golden")
        return updateGolden();

    std::unique_ptr<Workload> workload = makeWorkload(opt.workload, opt.seed);
    if (!workload)
        usage("unknown or missing --workload '" + opt.workload + "'");
    if (opt.seconds <= 0 || opt.rounds < 0)
        usage("--seconds and --rounds must be positive");

    Runner runner(opt, std::move(workload), mainStart);
    bool ok = false;
    try {
        ok = runner.run();
    } catch (const std::exception &e) {
        // Set-up failed: there is no result to report.
        std::cerr << "perf_ladder: " << e.what() << "\n";
        return 1;
    }
    runner.print(std::cout);
    if (!opt.jsonPath.empty()) {
        std::ofstream out(opt.jsonPath);
        out << runner.reportJson();
        if (!out) {
            std::cerr << "perf_ladder: cannot write " << opt.jsonPath << "\n";
            return 1;
        }
    }
    std::cout << runner.contractJson() << std::endl;
    return ok ? 0 : 1;
}
