/** @file Tests for workload specs and request sampling. */

#include "microsim/request_gen.hh"

#include <gtest/gtest.h>

#include "util/logging.hh"

namespace accel::microsim {
namespace {

std::shared_ptr<const BucketDist>
sizes()
{
    return std::make_shared<const BucketDist>(
        std::vector<DistBucket>{{100, 200, 1.0}});
}

WorkloadSpec
spec()
{
    WorkloadSpec s;
    s.nonKernelCyclesMean = 5000;
    s.nonKernelCv = 0.0;
    s.kernelsPerRequest = 2;
    s.granularity = sizes();
    s.cyclesPerByte = 4.0;
    return s;
}

/** The next request from @p src, drawn into a fresh Request. */
Request
draw(RequestSource &src)
{
    Request r;
    src.fill(r);
    return r;
}

void
expectSameRequest(const Request &got, const Request &want)
{
    ASSERT_EQ(got.segments.size(), want.segments.size());
    for (size_t i = 0; i < want.segments.size(); ++i) {
        EXPECT_EQ(got.segments[i].cycles, want.segments[i].cycles);
        EXPECT_EQ(got.segments[i].tag, want.segments[i].tag);
    }
    ASSERT_EQ(got.kernels.size(), want.kernels.size());
    for (size_t k = 0; k < want.kernels.size(); ++k) {
        EXPECT_EQ(got.kernels[k].bytes, want.kernels[k].bytes);
        EXPECT_EQ(got.kernels[k].hostCycles, want.kernels[k].hostCycles);
        EXPECT_EQ(got.kernels[k].tag, want.kernels[k].tag);
        EXPECT_EQ(got.kernels[k].afterSegment,
                  want.kernels[k].afterSegment);
    }
}

TEST(WorkloadSpec, ValidationRules)
{
    EXPECT_NO_THROW(spec().validate());

    WorkloadSpec s = spec();
    s.kernelsPerRequest = 1;
    s.granularity = nullptr;
    EXPECT_THROW(s.validate(), FatalError);

    s = spec();
    s.cyclesPerByte = 0;
    EXPECT_THROW(s.validate(), FatalError);

    s = spec();
    s.nonKernelCyclesMean = 0;
    s.kernelsPerRequest = 0;
    EXPECT_THROW(s.validate(), FatalError);

    s = spec();
    s.beta = 0;
    EXPECT_THROW(s.validate(), FatalError);
}

TEST(WorkloadSpec, ImpliedAlpha)
{
    WorkloadSpec s = spec();
    // Mean granularity 150, Cb 4, 2 kernels: 1200 kernel cycles.
    EXPECT_NEAR(s.meanKernelCycles(), 1200, 1e-9);
    EXPECT_NEAR(s.impliedAlpha(), 1200.0 / 6200.0, 1e-9);
}

TEST(RequestSource, DeterministicRequests)
{
    RequestSource a(spec(), 42), b(spec(), 42);
    for (int i = 0; i < 20; ++i) {
        Request ra = draw(a), rb = draw(b);
        EXPECT_DOUBLE_EQ(ra.nonKernelCycles(), rb.nonKernelCycles());
        ASSERT_EQ(ra.kernels.size(), rb.kernels.size());
        for (size_t k = 0; k < ra.kernels.size(); ++k)
            EXPECT_DOUBLE_EQ(ra.kernels[k].bytes, rb.kernels[k].bytes);
    }
}

TEST(RequestSource, KernelCyclesFollowGranularity)
{
    RequestSource src(spec(), 7);
    for (int i = 0; i < 100; ++i) {
        Request r = draw(src);
        ASSERT_EQ(r.kernels.size(), 2u);
        for (const auto &k : r.kernels) {
            EXPECT_GE(k.bytes, 100);
            EXPECT_LT(k.bytes, 200);
            EXPECT_DOUBLE_EQ(k.hostCycles, 4.0 * k.bytes);
        }
    }
}

TEST(RequestSource, ZeroCvMakesDeterministicNonKernel)
{
    RequestSource src(spec(), 7);
    for (int i = 0; i < 10; ++i)
        EXPECT_DOUBLE_EQ(draw(src).nonKernelCycles(), 5000);
}

TEST(RequestSource, LogNormalPreservesMean)
{
    WorkloadSpec s = spec();
    s.nonKernelCv = 0.5;
    RequestSource src(s, 8);
    double sum = 0;
    const int n = 50000;
    for (int i = 0; i < n; ++i)
        sum += draw(src).nonKernelCycles();
    EXPECT_NEAR(sum / n, 5000, 50);
}

TEST(RequestSource, TotalHostCycles)
{
    RequestSource src(spec(), 9);
    Request r = draw(src);
    double expected = r.nonKernelCycles();
    for (const auto &k : r.kernels)
        expected += k.hostCycles;
    EXPECT_DOUBLE_EQ(r.totalHostCycles(), expected);
}

TEST(RequestSource, SuperLinearKernelCycles)
{
    WorkloadSpec s = spec();
    s.beta = 2.0;
    RequestSource src(s, 10);
    Request r = draw(src);
    for (const auto &k : r.kernels)
        EXPECT_DOUBLE_EQ(k.hostCycles, 4.0 * k.bytes * k.bytes);
}

TEST(RequestSource, FillMatchesFreshDraws)
{
    // A tagged template (three segments, kernels after the first) and
    // the default slicing (kernelsPerRequest + 1 even slices), both
    // with log-normal non-kernel work, so every draw kind is covered.
    WorkloadSpec tagged = spec();
    tagged.nonKernelCv = 0.5;
    tagged.kernelsPerRequest = 1;
    tagged.kernelTag = 7;
    tagged.segmentTemplate = {{1.0, 1}, {2.0, 2}, {3.0, 3}};
    WorkloadSpec sliced = spec();
    sliced.nonKernelCv = 0.5;
    sliced.kernelsPerRequest = 3;

    // One Request reused across both specs: each fill must replace
    // what the previous one left, whatever its shape.
    Request reused;
    for (const WorkloadSpec &s : {tagged, sliced, tagged}) {
        RequestSource refilled(s, 11), fresh(s, 11);
        for (int i = 0; i < 50; ++i) {
            refilled.fill(reused);
            expectSameRequest(reused, draw(fresh));
        }
    }
}

} // namespace
} // namespace accel::microsim
