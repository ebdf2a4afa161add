#include "microsim/request_gen.hh"

#include <cmath>

#include "util/logging.hh"

namespace accel::microsim {

double
Request::nonKernelCycles() const
{
    double total = 0;
    for (const WorkSegment &seg : segments)
        total += seg.cycles;
    return total;
}

double
Request::totalHostCycles() const
{
    double total = nonKernelCycles();
    for (const auto &k : kernels)
        total += k.hostCycles;
    return total;
}

void
WorkloadSpec::validate() const
{
    require(nonKernelCyclesMean >= 0,
            "WorkloadSpec: negative non-kernel cycles");
    require(nonKernelCv >= 0, "WorkloadSpec: negative CV");
    require(beta > 0, "WorkloadSpec: beta must be positive");
    if (kernelsPerRequest > 0) {
        require(granularity != nullptr,
                "WorkloadSpec: kernel work needs a granularity dist");
        require(cyclesPerByte > 0,
                "WorkloadSpec: kernel work needs positive Cb");
    }
    require(nonKernelCyclesMean > 0 || kernelsPerRequest > 0,
            "WorkloadSpec: request must contain some work");
    for (const WorkSegment &seg : segmentTemplate) {
        require(seg.cycles > 0,
                "WorkloadSpec: segment shares must be positive");
    }
    if (!segmentTemplate.empty()) {
        require(nonKernelCyclesMean > 0,
                "WorkloadSpec: segments need non-kernel cycles");
    }
}

double
WorkloadSpec::meanKernelCycles() const
{
    if (kernelsPerRequest == 0)
        return 0.0;
    ensure(granularity != nullptr, "WorkloadSpec: missing granularity");
    // Exact for beta == 1; a midpoint approximation otherwise.
    return static_cast<double>(kernelsPerRequest) * cyclesPerByte *
           std::pow(granularity->mean(), beta);
}

double
WorkloadSpec::impliedAlpha() const
{
    double kernel = meanKernelCycles();
    double total = kernel + nonKernelCyclesMean;
    return total > 0 ? kernel / total : 0.0;
}

RequestSource::RequestSource(const WorkloadSpec &spec, std::uint64_t seed)
    : spec_(spec), rng_(seed, /*stream=*/0x9e3779b97f4a7c15ULL)
{
    spec_.validate();
    if (spec_.nonKernelCv > 0 && spec_.nonKernelCyclesMean > 0) {
        // Log-normal with the requested mean and CV: if X ~ LN(mu, s),
        // E[X] = exp(mu + s^2/2) and CV^2 = exp(s^2) - 1.
        double s2 = std::log(1.0 + spec_.nonKernelCv * spec_.nonKernelCv);
        logSigma_ = std::sqrt(s2);
        logMu_ = std::log(spec_.nonKernelCyclesMean) - 0.5 * s2;
    }
}

void
RequestSource::fill(Request &req)
{
    req.segments.clear();
    req.kernels.clear();
    double non_kernel = 0.0;
    if (spec_.nonKernelCyclesMean > 0) {
        non_kernel = spec_.nonKernelCv > 0
            ? rng_.logNormal(logMu_, logSigma_)
            : spec_.nonKernelCyclesMean;
    }

    req.kernels.reserve(spec_.kernelsPerRequest);
    for (std::uint32_t i = 0; i < spec_.kernelsPerRequest; ++i) {
        double bytes = spec_.granularity->sample(rng_);
        double cycles = spec_.cyclesPerByte * std::pow(bytes, spec_.beta);
        req.kernels.push_back(
            KernelInvocation{bytes, cycles, spec_.kernelTag, 0});
    }

    if (spec_.segmentTemplate.empty()) {
        // Default: slice the work evenly around the kernels; kernel i
        // runs after slice i.
        std::uint32_t slices = spec_.kernelsPerRequest + 1;
        for (std::uint32_t s = 0; s < slices; ++s) {
            req.segments.push_back(
                {non_kernel / static_cast<double>(slices), kUntagged});
        }
        for (std::uint32_t i = 0; i < req.kernels.size(); ++i)
            req.kernels[i].afterSegment = i;
    } else {
        // Tagged composition: scale the template to this request's
        // non-kernel cycles; kernels run after the first segment.
        double share_total = 0;
        for (const WorkSegment &seg : spec_.segmentTemplate)
            share_total += seg.cycles;
        for (const WorkSegment &seg : spec_.segmentTemplate) {
            req.segments.push_back(
                {non_kernel * seg.cycles / share_total, seg.tag});
        }
        for (auto &k : req.kernels)
            k.afterSegment = 0;
    }
}

} // namespace accel::microsim
