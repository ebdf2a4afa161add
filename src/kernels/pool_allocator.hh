/**
 * @file
 * Size-class pool allocator.
 *
 * The paper highlights allocation and free as expensive leaves: free()
 * takes no size parameter, so TCMalloc-style allocators perform a lookup
 * to recover the size class, which caches poorly. This allocator models
 * both designs: free() recovers the size class from a page map (the
 * expensive path the paper describes) while sizedFree() takes the block
 * size directly (the C++14 sized-deallocation optimization). The
 * allocation calibration micro-benchmark contrasts the two to justify
 * Table 7's A = 1.5 for on-chip allocation acceleration (Mallacc-style).
 */

#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace accel::kernels {

/** Statistics the allocator maintains for tests and benches. */
struct PoolStats
{
    std::uint64_t allocations = 0;
    std::uint64_t frees = 0;
    std::uint64_t sizedFrees = 0;
    std::uint64_t chunkRefills = 0;
    std::uint64_t bytesRequested = 0;
    std::uint64_t liveBlocks = 0;

    /** Every counter above as one JSON object (report surface). */
    std::string summaryJson() const;
};

/**
 * A segregated free-list allocator with power-of-two-ish size classes.
 *
 * Blocks are carved from fixed-size chunks obtained from ::operator new;
 * a page map (chunk base -> size class) supports unsized free(). All
 * memory is returned when the allocator is destroyed; outstanding blocks
 * become invalid at that point.
 */
class PoolAllocator
{
  public:
    /** Largest serviceable request; bigger requests throw FatalError. */
    static constexpr size_t kMaxBlockSize = 64 * 1024;

    PoolAllocator();
    ~PoolAllocator();

    PoolAllocator(const PoolAllocator &) = delete;
    PoolAllocator &operator=(const PoolAllocator &) = delete;

    /**
     * Allocate at least @p bytes (1..kMaxBlockSize).
     * @throws FatalError for zero or oversized requests.
     */
    void *allocate(size_t bytes);

    /**
     * Free without a size: recovers the size class via the page map, the
     * expensive path the paper describes.
     * @throws FatalError when @p ptr was not allocated by this pool.
     */
    void free(void *ptr);

    /**
     * Free with the original request size: skips the page-map lookup
     * (C++ sized deallocation).
     */
    void sizedFree(void *ptr, size_t bytes);

    /** Size class index for a request. @throws FatalError when oversized. */
    size_t sizeClassFor(size_t bytes) const;

    /** Block size of a size class. */
    size_t classBlockSize(size_t cls) const;

    /** Counters. */
    const PoolStats &stats() const { return stats_; }

  private:
    struct FreeNode
    {
        FreeNode *next;
    };

    struct Chunk
    {
        std::uint8_t *base;
        size_t sizeClass;
    };

    static constexpr size_t kChunkSize = 256 * 1024;
    static constexpr size_t kPageSize = 4 * 1024;

    std::vector<size_t> classSizes_;
    std::vector<FreeNode *> freeLists_;
    std::vector<Chunk> chunks_;
    /**
     * Page map: page base address -> size class, consulted by unsized
     * free(). This is the lookup the paper calls out as cache-hostile
     * ("TCMalloc performs a hash lookup to get the size class").
     */
    std::map<std::uintptr_t, size_t> pageMap_;
    PoolStats stats_;

    void refill(size_t cls);
    size_t pageMapClassOf(const void *ptr) const;
};

} // namespace accel::kernels
