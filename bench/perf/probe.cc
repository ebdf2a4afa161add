#include "probe.hh"

#include <cstdio>
#include <fstream>
#include <iterator>

#include "alloc_hook.hh"
#include "util/wall_timer.hh"

namespace accel::perf {

namespace {

double
now()
{
    return steadyWallTimer().seconds();
}

} // namespace

const char *
siteName(Site site)
{
    // Indexed by Site; keep in declaration order.
    static const char *const kNames[] = {
        "round",
        "spec.build",
        "spec.validate",
        "service.ctor",
        "service.begin_window",
        "sim.run_until",
        "service.collect_metrics",
        "summary_json",
        "graph.assemble",
        "graph.validate",
        "graph.run",
        "profiling.sampler_ctor",
        "profiling.sample_many",
        "profiling.add_all",
        "profiling.breakdown",
        "runner.probe",
    };
    static_assert(std::size(kNames) == static_cast<size_t>(Site::Count));
    return kNames[static_cast<size_t>(site)];
}

Probe::Probe() : epoch_(now())
{
    // Span pushes must not allocate inside the measured calls.
    spans_.reserve(1 << 14);
    open_.reserve(64);
}

void
Probe::begin(bool traced, std::uint32_t roundId)
{
    traced_ = traced;
    round_ = roundId;
    for (Cost &c : costs_)
        c = Cost{};
}

Probe::Scope::Scope(Probe &probe, Site site)
    : probe_(probe), site_(site), start_(now()),
      allocsAtStart_(allocationCount())
{
    if (!probe_.traced_)
        return;
    span_ = static_cast<std::int32_t>(probe_.spans_.size());
    probe_.spans_.push_back(Span{site_, start_ - probe_.epoch_, 0.0,
                                 probe_.open_.empty() ? -1
                                                      : probe_.open_.back(),
                                 probe_.round_, -1});
    probe_.open_.push_back(span_);
}

Probe::Scope::~Scope()
{
    const double end = now();
    Cost &c = probe_.costs_[static_cast<size_t>(site_)];
    c.seconds += end - start_;
    c.allocs += allocationCount() - allocsAtStart_;
    ++c.calls;
    if (span_ >= 0) {
        probe_.spans_[static_cast<size_t>(span_)].end = end - probe_.epoch_;
        probe_.open_.pop_back();
    }
}

void
Probe::Scope::setEvents(std::uint64_t events)
{
    if (span_ >= 0)
        probe_.spans_[static_cast<size_t>(span_)].events =
            static_cast<std::int64_t>(events);
}

bool
Probe::writeChromeTrace(const std::string &path,
                        const std::string &label) const
{
    std::ofstream out(path);
    if (!out)
        return false;
    out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n"
        << "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, "
           "\"tid\": 1, \"args\": {\"name\": \""
        << label << "\"}}";
    char buf[96];
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        out << ",\n{\"name\": \"" << siteName(s.site)
            << "\", \"cat\": \"perf\", \"ph\": \"X\", \"pid\": 1, "
               "\"tid\": 1, ";
        std::snprintf(buf, sizeof buf, "\"ts\": %.3f, \"dur\": %.3f",
                      s.start * 1e6, (s.end - s.start) * 1e6);
        out << buf << ", \"args\": {\"id\": " << i
            << ", \"parent\": " << s.parent << ", \"round\": " << s.round;
        if (s.events >= 0)
            out << ", \"events\": " << s.events;
        out << "}}";
    }
    out << "\n]}\n";
    return static_cast<bool>(out);
}

} // namespace accel::perf
