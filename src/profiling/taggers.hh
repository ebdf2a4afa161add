/**
 * @file
 * Category taggers: the "internal tool" of the paper's methodology.
 *
 * The paper feeds Strobelight traces to a tool that (a) tags each leaf
 * function with a leaf category (e.g. memcpy -> Memory) and (b) buckets
 * each full call trace into a microservice functionality (e.g. a trace
 * through AsyncSSLSocket -> Secure I/O). These taggers implement both
 * steps with ordered substring rules over function names.
 */

#pragma once

#include <optional>
#include <string>

#include "profiling/call_trace.hh"
#include "workload/categories.hh"

namespace accel::profiling {

/** Tags a leaf function name with its leaf category (Table 2). */
class LeafTagger
{
  public:
    /** Category for a leaf function name; Miscellaneous when unknown. */
    workload::LeafCategory tag(const std::string &leafName) const;

    /** Memory sub-category (Fig. 3), when the leaf is a memory leaf. */
    std::optional<workload::MemoryLeaf>
    memoryLeaf(const std::string &leafName) const;

    /** Kernel sub-category (Fig. 5), when the leaf is a kernel leaf. */
    std::optional<workload::KernelLeaf>
    kernelLeaf(const std::string &leafName) const;

    /** Synchronization sub-category (Fig. 6). */
    std::optional<workload::SyncLeaf>
    syncLeaf(const std::string &leafName) const;

    /** C-library sub-category (Fig. 7). */
    std::optional<workload::ClibLeaf>
    clibLeaf(const std::string &leafName) const;
};

/** Buckets full call traces into functionalities (Table 3). */
class FunctionalityTagger
{
  public:
    /**
     * Functionality of a trace: frames are scanned from the thread
     * entry inward; the first frame carrying a functionality marker
     * decides. Miscellaneous when no frame matches.
     */
    workload::Functionality tag(const CallTrace &trace) const;

    /** The functionality marker one frame name carries, if any. */
    std::optional<workload::Functionality>
    marker(const std::string &frameName) const;
};

} // namespace accel::profiling
