/**
 * @file
 * Folded-stack output (Brendan Gregg's flame-graph input format).
 *
 * Production profilers like Strobelight emit "frame;frame;leaf count"
 * lines that flamegraph.pl turns into flame graphs. This module folds a
 * trace stream into that format so sampled workloads can be inspected
 * with standard tooling.
 */

#pragma once

#include <string>
#include <vector>

#include "profiling/call_trace.hh"

namespace accel::profiling {

/** One folded stack with its aggregate cycle weight. */
struct FoldedStack
{
    std::string stack; //!< "frame;frame;leaf"
    double cycles;
};

/**
 * Aggregate traces by their full stack, descending by cycles, ties by
 * stack name. Identical stacks merge; frame names keep their order,
 * joined by ';'.
 */
std::vector<FoldedStack>
foldStacks(const std::vector<CallTrace> &traces);

/**
 * Render folded stacks as flamegraph.pl input: one
 * "stack cycle-count\n" line per unique stack (counts rounded).
 *
 * @param maxStacks keep only the heaviest stacks (0 = all)
 */
std::string foldedStacksText(const std::vector<CallTrace> &traces,
                             size_t maxStacks = 0);

} // namespace accel::profiling
