/** @file Tests for folded-stack (flame graph) output. */

#include "profiling/folded_stacks.hh"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <sstream>

#include "profiling/sampler.hh"
#include "util/string_utils.hh"

namespace accel::profiling {
namespace {

CallTrace
trace(const std::vector<std::string> &frames, double cycles)
{
    CallTrace t;
    for (const std::string &frame : frames)
        t.frames.push_back(intern(frame));
    t.cycles = cycles;
    t.instructions = cycles;
    return t;
}

/** foldedStacksText as a fold over joined frame names. */
std::string
stringFoldText(const std::vector<CallTrace> &traces)
{
    std::map<std::string, double> folded;
    for (const CallTrace &t : traces) {
        std::vector<std::string> names;
        for (SymbolId frame : t.frames)
            names.push_back(symbolName(frame));
        folded[join(names, ";")] += t.cycles;
    }
    std::vector<std::pair<std::string, double>> stacks(folded.begin(),
                                                       folded.end());
    std::sort(stacks.begin(), stacks.end(),
              [](const auto &a, const auto &b) {
                  if (a.second != b.second)
                      return a.second > b.second;
                  return a.first < b.first;
              });
    std::ostringstream os;
    for (const auto &[stack, cycles] : stacks)
        os << stack << " " << std::llround(cycles) << "\n";
    return os.str();
}

TEST(FoldedStacks, MergesIdenticalStacks)
{
    std::vector<CallTrace> traces = {
        trace({"main", "a", "leaf"}, 100),
        trace({"main", "a", "leaf"}, 50),
        trace({"main", "b", "leaf"}, 70),
    };
    auto folded = foldStacks(traces);
    ASSERT_EQ(folded.size(), 2u);
    EXPECT_EQ(folded[0].stack, "main;a;leaf");
    EXPECT_DOUBLE_EQ(folded[0].cycles, 150);
    EXPECT_EQ(folded[1].stack, "main;b;leaf");
}

TEST(FoldedStacks, SortedByCyclesThenName)
{
    std::vector<CallTrace> traces = {
        trace({"z"}, 10), trace({"a"}, 10), trace({"m"}, 20)};
    auto folded = foldStacks(traces);
    EXPECT_EQ(folded[0].stack, "m");
    EXPECT_EQ(folded[1].stack, "a"); // ties break alphabetically
    EXPECT_EQ(folded[2].stack, "z");
}

TEST(FoldedStacks, OrderIgnoresSymbolIds)
{
    // Interned in reverse alphabetical order: ids run against names.
    const SymbolId c = intern("fold-order/c");
    const SymbolId b = intern("fold-order/b");
    const SymbolId a = intern("fold-order/a");
    ASSERT_LT(c, b);
    ASSERT_LT(b, a);
    std::vector<CallTrace> traces = {
        trace({"fold-order/c"}, 10),
        trace({"fold-order/a", "fold-order/c"}, 20),
        trace({"fold-order/b"}, 10),
        trace({"fold-order/a", "fold-order/b"}, 20),
        trace({"fold-order/a"}, 10),
    };
    auto folded = foldStacks(traces);
    ASSERT_EQ(folded.size(), 5u);
    EXPECT_EQ(folded[0].stack, "fold-order/a;fold-order/b");
    EXPECT_EQ(folded[1].stack, "fold-order/a;fold-order/c");
    EXPECT_EQ(folded[2].stack, "fold-order/a");
    EXPECT_EQ(folded[3].stack, "fold-order/b");
    EXPECT_EQ(folded[4].stack, "fold-order/c");

    // Mixed into a sampled stream, the text is the string fold's.
    TraceSampler sampler(workload::profile(workload::ServiceId::Feed1),
                         workload::CpuGen::GenC, 11);
    for (CallTrace &t : sampler.sampleMany(20000))
        traces.push_back(std::move(t));
    EXPECT_EQ(foldedStacksText(traces), stringFoldText(traces));
}

TEST(FoldedStacks, TextFormatIsFlamegraphInput)
{
    std::vector<CallTrace> traces = {trace({"main", "leaf"}, 42.4)};
    EXPECT_EQ(foldedStacksText(traces), "main;leaf 42\n");
}

TEST(FoldedStacks, MaxStacksTruncates)
{
    std::vector<CallTrace> traces = {
        trace({"a"}, 30), trace({"b"}, 20), trace({"c"}, 10)};
    std::string text = foldedStacksText(traces, 2);
    EXPECT_NE(text.find("a 30"), std::string::npos);
    EXPECT_NE(text.find("b 20"), std::string::npos);
    EXPECT_EQ(text.find("c 10"), std::string::npos);
}

TEST(FoldedStacks, EmptyInput)
{
    EXPECT_TRUE(foldStacks({}).empty());
    EXPECT_EQ(foldedStacksText({}), "");
}

TEST(FoldedStacks, SampledServiceProducesPlausibleGraph)
{
    TraceSampler sampler(
        workload::profile(workload::ServiceId::Cache1),
        workload::CpuGen::GenC, 31);
    auto folded = foldStacks(sampler.sampleMany(20000));
    ASSERT_GT(folded.size(), 10u);
    // Every stack roots at the thread entry.
    for (const auto &f : folded)
        EXPECT_EQ(f.stack.rfind("start_thread;", 0), 0u);
    // The heaviest stacks carry a sane share of total cycles.
    double total = 0, top = folded[0].cycles;
    for (const auto &f : folded)
        total += f.cycles;
    EXPECT_GT(top / total, 0.02);
    EXPECT_LT(top / total, 0.6);
}

} // namespace
} // namespace accel::profiling
