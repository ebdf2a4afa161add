/**
 * @file
 * Process-wide heap-allocation counter for the perf ladder.
 *
 * alloc_hook.cc replaces every flavour of global operator new with a
 * counting version (the hook bench/simcore_throughput uses, made per
 * thread), so allocations per unit of work can be read as the
 * difference of two allocationCount() calls on the working thread.
 */

#pragma once

#include <cstdint>

namespace accel::perf {

/** Global operator-new calls made by the calling thread so far. */
std::uint64_t allocationCount();

/** True when one known `new` raises allocationCount() by exactly one. */
bool allocationHookCounts();

} // namespace accel::perf
