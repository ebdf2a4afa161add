/** @file Tests for the process-wide frame-name interner. */

#include "profiling/symbol_table.hh"

#include <gtest/gtest.h>

#include <limits>
#include <map>
#include <set>
#include <vector>

#include "util/logging.hh"
#include "util/thread_pool.hh"

namespace accel::profiling {
namespace {

TEST(SymbolTable, InternRoundTrips)
{
    const SymbolId id = intern("symbol-table/round-trip");
    EXPECT_EQ(intern("symbol-table/round-trip"), id);
    EXPECT_EQ(symbolName(id), "symbol-table/round-trip");
    EXPECT_NE(intern("symbol-table/other"), id);
    EXPECT_EQ(symbolName(intern("")), "");
}

TEST(SymbolTable, NamesStayPutAsTheTableGrows)
{
    const std::string &name = symbolName(intern("symbol-table/stable"));
    for (int i = 0; i < 5000; ++i)
        intern("symbol-table/filler-" + std::to_string(i));
    EXPECT_EQ(&symbolName(intern("symbol-table/stable")), &name);
    EXPECT_EQ(name, "symbol-table/stable");
}

TEST(SymbolTable, UnknownIdThrows)
{
    EXPECT_THROW(symbolName(std::numeric_limits<SymbolId>::max()),
                 FatalError);
}

TEST(SymbolTable, ConcurrentInternIsConsistent)
{
    // Each task interns its own rotation of one shared name set, so
    // every name is raced for by several threads.
    constexpr size_t kTasks = 32, kNames = 600, kPerTask = 300;
    auto nameIndex = [](size_t task, size_t j) {
        return (task * 17 + j * 7) % kNames;
    };
    auto nameOf = [](size_t k) {
        return "symbol-table/concurrent-" + std::to_string(k);
    };
    std::vector<std::vector<SymbolId>> ids(
        kTasks, std::vector<SymbolId>(kPerTask));
    ThreadPool pool(8);
    pool.parallelFor(kTasks, [&](size_t task) {
        for (size_t j = 0; j < kPerTask; ++j)
            ids[task][j] = intern(nameOf(nameIndex(task, j)));
    });

    std::map<size_t, SymbolId> idOf;
    for (size_t task = 0; task < kTasks; ++task) {
        for (size_t j = 0; j < kPerTask; ++j) {
            const size_t k = nameIndex(task, j);
            const auto it = idOf.emplace(k, ids[task][j]).first;
            EXPECT_EQ(it->second, ids[task][j]) << nameOf(k);
        }
    }
    EXPECT_EQ(idOf.size(), kNames);
    std::set<SymbolId> distinct;
    for (const auto &[k, id] : idOf) {
        distinct.insert(id);
        EXPECT_EQ(symbolName(id), nameOf(k));
        EXPECT_EQ(intern(nameOf(k)), id);
    }
    EXPECT_EQ(distinct.size(), idOf.size());
}

} // namespace
} // namespace accel::profiling
