/**
 * @file
 * Call traces: the unit of profiling data.
 *
 * Mirrors what Strobelight gives the paper's authors: a stack of frames
 * from thread entry down to a leaf function, annotated with the cycles
 * and instructions attributed to it. Frames are interned symbol ids;
 * symbolName() gives their names.
 */

#pragma once

#include <vector>

#include "profiling/symbol_table.hh"

namespace accel::profiling {

/** One sampled call trace. */
struct CallTrace
{
    /** Frames ordered outermost (thread entry) to innermost (leaf). */
    std::vector<SymbolId> frames;

    /** Cycles attributed to this trace. */
    double cycles = 0.0;

    /** Retired instructions attributed to this trace. */
    double instructions = 0.0;

    /** The leaf (innermost) frame. @throws FatalError when empty. */
    SymbolId leafFrame() const;

    /** IPC of this trace; 0 when no cycles were recorded. */
    double ipc() const;
};

} // namespace accel::profiling
