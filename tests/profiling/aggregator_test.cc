/** @file Tests for trace aggregation. */

#include "profiling/aggregator.hh"

#include <gtest/gtest.h>

#include "profiling/sampler.hh"

namespace accel::profiling {
namespace {

using workload::CopyOrigin;
using workload::Functionality;
using workload::LeafCategory;
using workload::MemoryLeaf;

CallTrace
trace(const std::vector<std::string> &frames, double cycles,
      double ipc = 1.0)
{
    CallTrace t;
    for (const std::string &frame : frames)
        t.frames.push_back(intern(frame));
    t.cycles = cycles;
    t.instructions = cycles * ipc;
    return t;
}

TEST(Aggregator, LeafBreakdownPercentages)
{
    Aggregator agg;
    agg.add(trace({"svc::app::handleRequest", "__memcpy_avx_unaligned"},
                  300));
    agg.add(trace({"svc::app::handleRequest", "std::map::find"}, 100));
    auto leaf = agg.leafBreakdown();
    EXPECT_NEAR(leaf[LeafCategory::Memory], 75.0, 1e-9);
    EXPECT_NEAR(leaf[LeafCategory::CLibraries], 25.0, 1e-9);
    EXPECT_DOUBLE_EQ(agg.totalCycles(), 400);
    EXPECT_EQ(agg.traceCount(), 2u);
}

TEST(Aggregator, FunctionalityBreakdown)
{
    Aggregator agg;
    agg.add(trace({"svc::log::appendLogEntry", "memcpy"}, 600));
    agg.add(trace({"svc::app::handleRequest", "memcpy"}, 400));
    auto func = agg.functionalityBreakdown();
    EXPECT_NEAR(func[Functionality::Logging], 60.0, 1e-9);
    EXPECT_NEAR(func[Functionality::ApplicationLogic], 40.0, 1e-9);
}

TEST(Aggregator, MemorySubBreakdownAndCopyOrigins)
{
    Aggregator agg;
    agg.add(trace({"folly::AsyncSSLSocket::performWrite",
                   "__memcpy_avx_unaligned"},
                  100));
    agg.add(trace({"svc::io::prepareBuffers", "__memcpy_avx_unaligned"},
                  300));
    agg.add(trace({"svc::app::handleRequest", "tc_malloc"}, 600));
    auto mem = agg.memoryBreakdown();
    EXPECT_NEAR(mem[MemoryLeaf::Copy], 40.0, 1e-9);
    EXPECT_NEAR(mem[MemoryLeaf::Allocation], 60.0, 1e-9);
    auto origins = agg.copyOriginBreakdown();
    EXPECT_NEAR(origins[CopyOrigin::SecureInsecureIO], 25.0, 1e-9);
    EXPECT_NEAR(origins[CopyOrigin::IOPrePostProcessing], 75.0, 1e-9);
}

TEST(Aggregator, IpcPerCategory)
{
    Aggregator agg;
    agg.add(trace({"svc::app::handleRequest", "memcpy"}, 100, 0.9));
    agg.add(trace({"svc::app::handleRequest", "memcpy"}, 300, 0.5));
    const auto &totals = agg.leafTotals();
    // Aggregate IPC = (90 + 150) / 400 = 0.6.
    EXPECT_NEAR(totals.at(LeafCategory::Memory).ipc(), 0.6, 1e-9);
}

TEST(Aggregator, KernelSyncClibSubBreakdowns)
{
    Aggregator agg;
    agg.add(trace({"svc::app::handleRequest", "finish_task_switch"},
                  100));
    agg.add(trace({"svc::app::handleRequest", "tcp_sendmsg"}, 300));
    agg.add(trace({"svc::app::handleRequest", "pthread_mutex_lock"},
                  50));
    agg.add(trace({"svc::app::handleRequest", "std::vector<int>::x"},
                  70));
    EXPECT_NEAR(agg.kernelBreakdown()[workload::KernelLeaf::Network],
                75.0, 1e-9);
    EXPECT_NEAR(agg.syncBreakdown()[workload::SyncLeaf::Mutex], 100.0,
                1e-9);
    EXPECT_NEAR(agg.clibBreakdown()[workload::ClibLeaf::Vectors], 100.0,
                1e-9);
}

TEST(Aggregator, EmptyBreakdownsAreEmpty)
{
    Aggregator agg;
    EXPECT_TRUE(agg.leafBreakdown().empty());
    EXPECT_TRUE(agg.memoryBreakdown().empty());
    EXPECT_TRUE(agg.copyOriginBreakdown().empty());
}

TEST(Aggregator, AddAllMatchesIndividualAdds)
{
    std::vector<CallTrace> traces = {
        trace({"svc::app::handleRequest", "memcpy"}, 10),
        trace({"svc::app::handleRequest", "std::sort"}, 20),
    };
    Aggregator a, b;
    a.addAll(traces);
    for (const auto &t : traces)
        b.add(t);
    EXPECT_DOUBLE_EQ(a.totalCycles(), b.totalCycles());
    EXPECT_EQ(a.leafBreakdown(), b.leafBreakdown());
}

/**
 * The string path the verdict cache stands in for: every trace's frame
 * names are resolved and run through the taggers.
 */
class StringPathAggregator
{
  public:
    void
    add(const CallTrace &trace)
    {
        const std::string &leafName = symbolName(trace.leafFrame());
        const LeafCategory leaf = leafTagger_.tag(leafName);
        const Functionality func = functionalityTagger_.tag(trace);
        leaf_[leaf].cycles += trace.cycles;
        leaf_[leaf].instructions += trace.instructions;
        functionality_[func] += trace.cycles;
        if (auto m = leafTagger_.memoryLeaf(leafName)) {
            memory_[*m] += trace.cycles;
            if (*m == MemoryLeaf::Copy)
                copyOrigin_[originOf(func)] += trace.cycles;
        }
        if (auto k = leafTagger_.kernelLeaf(leafName))
            kernel_[*k] += trace.cycles;
        if (auto sy = leafTagger_.syncLeaf(leafName))
            sync_[*sy] += trace.cycles;
        if (auto c = leafTagger_.clibLeaf(leafName))
            clib_[*c] += trace.cycles;
    }

    void
    expectSameAs(const Aggregator &agg) const
    {
        std::map<LeafCategory, double> leafCycles;
        for (const auto &[cat, totals] : leaf_)
            leafCycles[cat] = totals.cycles;
        EXPECT_EQ(agg.leafBreakdown(), percent(leafCycles));
        EXPECT_EQ(agg.functionalityBreakdown(), percent(functionality_));
        EXPECT_EQ(agg.memoryBreakdown(), percent(memory_));
        EXPECT_EQ(agg.kernelBreakdown(), percent(kernel_));
        EXPECT_EQ(agg.syncBreakdown(), percent(sync_));
        EXPECT_EQ(agg.clibBreakdown(), percent(clib_));
        EXPECT_EQ(agg.copyOriginBreakdown(), percent(copyOrigin_));
        ASSERT_EQ(agg.leafTotals().size(), leaf_.size());
        for (const auto &[cat, totals] : leaf_) {
            const CategoryTotals &got = agg.leafTotals().at(cat);
            EXPECT_EQ(got.cycles, totals.cycles) << toString(cat);
            EXPECT_EQ(got.instructions, totals.instructions)
                << toString(cat);
        }
    }

  private:
    static CopyOrigin
    originOf(Functionality f)
    {
        switch (f) {
          case Functionality::SecureInsecureIO:
            return CopyOrigin::SecureInsecureIO;
          case Functionality::IOPrePostProcessing:
            return CopyOrigin::IOPrePostProcessing;
          case Functionality::Serialization:
            return CopyOrigin::Serialization;
          default:
            return CopyOrigin::ApplicationLogic;
        }
    }

    template <typename Category>
    static std::map<Category, double>
    percent(const std::map<Category, double> &cycles)
    {
        double total = 0;
        for (const auto &[cat, c] : cycles)
            total += c;
        std::map<Category, double> out;
        if (total <= 0)
            return out;
        for (const auto &[cat, c] : cycles)
            out[cat] = 100.0 * c / total;
        return out;
    }

    LeafTagger leafTagger_;
    FunctionalityTagger functionalityTagger_;
    std::map<LeafCategory, CategoryTotals> leaf_;
    std::map<Functionality, double> functionality_;
    std::map<MemoryLeaf, double> memory_;
    std::map<workload::KernelLeaf, double> kernel_;
    std::map<workload::SyncLeaf, double> sync_;
    std::map<workload::ClibLeaf, double> clib_;
    std::map<CopyOrigin, double> copyOrigin_;
};

/** A trace whose names are new to the process: the cache must grow. */
CallTrace
freshTrace(const std::string &tag, size_t k)
{
    static const char *const kFrames[] = {
        "svc::log::appendFresh", "folly::AsyncSSLSocket::fresh",
        "svc::io::prepareFresh", "thrift::fresh", "fresh_no_marker"};
    static const char *const kLeaves[] = {
        "__memcpy_fresh", "tcp_fresh", "std::vector<fresh>::at",
        "FRESH_MUTEX_LOCK", "fresh_opaque_leaf", "tc_free_fresh"};
    const std::string suffix = "#" + tag + "#" + std::to_string(k);
    CallTrace t;
    t.frames = {intern("start_thread"), intern(kFrames[k % 5] + suffix),
                intern(kLeaves[k % 6] + suffix)};
    t.cycles = 100.0 + static_cast<double>(k % 7);
    t.instructions = t.cycles * 0.75;
    return t;
}

TEST(Aggregator, VerdictCacheMatchesStringPath)
{
    for (workload::ServiceId id : workload::characterizedServices()) {
        SCOPED_TRACE(toString(id));
        TraceSampler sampler(workload::profile(id), workload::CpuGen::GenC,
                             17);
        const std::string tag = "verdict-cache/" + toString(id);
        Aggregator agg;
        StringPathAggregator reference;
        size_t fresh = 0;
        for (size_t i = 0; i < 20000; ++i) {
            if (i % 1000 == 0) {
                const CallTrace t = freshTrace(tag, fresh++);
                agg.add(t);
                reference.add(t);
            }
            const CallTrace t = sampler.sample();
            agg.add(t);
            reference.add(t);
        }
        reference.expectSameAs(agg);
    }
}

} // namespace
} // namespace accel::profiling
