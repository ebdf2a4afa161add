/**
 * @file
 * Aggregation of tagged traces into the paper's breakdowns.
 *
 * Mirrors the second half of the paper's methodology: cycles and
 * instructions are pooled per category, yielding percentage breakdowns
 * (Figs. 1-7, 9) and per-category IPC (Figs. 8, 10).
 */

#pragma once

#include <map>
#include <optional>
#include <vector>

#include "profiling/call_trace.hh"
#include "profiling/taggers.hh"
#include "workload/categories.hh"

namespace accel::profiling {

/** Cycles + instructions accumulated for one category. */
struct CategoryTotals
{
    double cycles = 0.0;
    double instructions = 0.0;

    /** Aggregate IPC = Σ instructions / Σ cycles. */
    double ipc() const { return cycles > 0 ? instructions / cycles : 0.0; }
};

/** Aggregated view of a trace stream. */
class Aggregator
{
  public:
    Aggregator() = default;

    /** Tag and accumulate one trace. */
    void add(const CallTrace &trace);

    /** Tag and accumulate a batch. */
    void addAll(const std::vector<CallTrace> &traces);

    /** Total cycles observed. */
    double totalCycles() const { return totalCycles_; }

    /** Number of traces observed. */
    std::uint64_t traceCount() const { return traces_; }

    /** % of total cycles per leaf category (Fig. 2). */
    std::map<workload::LeafCategory, double> leafBreakdown() const;

    /** % of total cycles per functionality (Fig. 9). */
    std::map<workload::Functionality, double>
    functionalityBreakdown() const;

    /** % of memory-leaf cycles per memory sub-leaf (Fig. 3). */
    std::map<workload::MemoryLeaf, double> memoryBreakdown() const;

    /** % of kernel-leaf cycles per kernel sub-leaf (Fig. 5). */
    std::map<workload::KernelLeaf, double> kernelBreakdown() const;

    /** % of sync-leaf cycles per sync sub-leaf (Fig. 6). */
    std::map<workload::SyncLeaf, double> syncBreakdown() const;

    /** % of C-library cycles per C-library sub-leaf (Fig. 7). */
    std::map<workload::ClibLeaf, double> clibBreakdown() const;

    /** % of memory-copy cycles per originating functionality (Fig. 4). */
    std::map<workload::CopyOrigin, double> copyOriginBreakdown() const;

    /** Per-leaf-category totals (IPC for Fig. 8). */
    const std::map<workload::LeafCategory, CategoryTotals> &
    leafTotals() const
    {
        return leaf_;
    }

  private:
    /** What the taggers say about one symbol. */
    struct SymbolVerdict
    {
        workload::LeafCategory leaf = workload::LeafCategory::Miscellaneous;
        std::optional<workload::MemoryLeaf> memory;
        std::optional<workload::KernelLeaf> kernel;
        std::optional<workload::SyncLeaf> sync;
        std::optional<workload::ClibLeaf> clib;
        /** The functionality marker the symbol carries as a frame. */
        std::optional<workload::Functionality> marker;
    };

    /**
     * The taggers' verdict on @p id, run through their string rules on
     * the id's first sight. Returned by value: a later lookup may grow
     * the cache.
     */
    SymbolVerdict verdict(SymbolId id);

    LeafTagger leafTagger_;
    FunctionalityTagger functionalityTagger_;
    /** Indexed by SymbolId; empty until that symbol is first seen. */
    std::vector<std::optional<SymbolVerdict>> verdicts_;

    double totalCycles_ = 0.0;
    std::uint64_t traces_ = 0;
    std::map<workload::LeafCategory, CategoryTotals> leaf_;
    std::map<workload::Functionality, CategoryTotals> functionality_;
    std::map<workload::MemoryLeaf, double> memory_;
    std::map<workload::KernelLeaf, double> kernel_;
    std::map<workload::SyncLeaf, double> sync_;
    std::map<workload::ClibLeaf, double> clib_;
    std::map<workload::CopyOrigin, double> copyOrigin_;

    template <typename Category>
    static std::map<Category, double>
    toPercent(const std::map<Category, double> &cycles);
};

} // namespace accel::profiling
