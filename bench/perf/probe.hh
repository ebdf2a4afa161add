/**
 * @file
 * Host-cost probe around the public calls the perf ladder makes.
 *
 * Every call into a layer is wrapped in a Probe::Scope naming its
 * Site. The scope always accumulates wall time and heap allocations
 * per site (two counter reads, so untraced rounds stay honest), and in
 * a traced round it also records a span — name, start, end, parent,
 * round id, plus an optional event count — kept in memory and written
 * at exit as Chrome trace-event JSON, which Perfetto opens offline.
 */

#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace accel::perf {

/** Every public call the ladder times; one span name each. */
enum class Site : std::uint8_t
{
    Round,         //!< one whole replay of a workload's input
    SpecBuild,     //!< ServiceSpec / EdgeConfig / profile assembly
    SpecValidate,  //!< ServiceSpec::validate
    ServiceCtor,   //!< ServiceSim(spec, eq, nullptr, false)
    BeginWindow,   //!< ServiceSim::beginWindow
    RunUntil,      //!< EventQueue::runUntil (64 slices when traced)
    Collect,       //!< ServiceSim::collectMetrics
    SummaryJson,   //!< ServiceMetrics / GraphMetrics::summaryJson
    GraphAssemble, //!< ServiceGraph construction + addService/addEdge
    GraphValidate, //!< ServiceGraph::validate
    GraphRun,      //!< ServiceGraph::run
    SamplerCtor,   //!< TraceSampler construction (IPF fit), in set-up
    SampleMany,    //!< TraceSampler::sampleMany, one 4096-trace batch
    AddAll,        //!< Aggregator::addAll, one batch
    Breakdown,     //!< Aggregator breakdown maps
    RunnerProbe,   //!< the ThreadPool scaling probe
    Count
};

const char *siteName(Site site);

/** Host cost accumulated at one site. */
struct Cost
{
    double seconds = 0.0;
    std::uint64_t allocs = 0;
    std::uint64_t calls = 0;
};

class Probe
{
  public:
    Probe();

    /**
     * Restart the per-site costs. When @p traced, the scopes that
     * follow also record spans tagged with @p roundId.
     */
    void begin(bool traced, std::uint32_t roundId);

    bool traced() const { return traced_; }

    /** RAII span/cost around one call. */
    class Scope
    {
      public:
        Scope(Probe &probe, Site site);
        ~Scope();
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

        /** Attach an event count to the span (traced rounds only). */
        void setEvents(std::uint64_t events);

      private:
        Probe &probe_;
        Site site_;
        double start_;
        std::uint64_t allocsAtStart_;
        std::int32_t span_ = -1;
    };

    const Cost &cost(Site site) const
    {
        return costs_[static_cast<size_t>(site)];
    }

    /**
     * Write every span recorded so far as Chrome trace-event JSON.
     * @return false when @p path cannot be written.
     */
    bool writeChromeTrace(const std::string &path,
                          const std::string &label) const;

  private:
    struct Span
    {
        Site site;
        double start;
        double end;
        std::int32_t parent;
        std::uint32_t round;
        std::int64_t events; //!< -1 = no event count
    };

    double epoch_;
    bool traced_ = false;
    std::uint32_t round_ = 0;
    Cost costs_[static_cast<size_t>(Site::Count)];
    std::vector<Span> spans_;
    std::vector<std::int32_t> open_;
};

} // namespace accel::perf
