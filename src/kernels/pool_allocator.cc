#include "kernels/pool_allocator.hh"

#include <bit>
#include <new>
#include <sstream>

#include "util/logging.hh"

namespace accel::kernels {

std::string
PoolStats::summaryJson() const
{
    std::ostringstream os;
    os << "{\"allocations\": " << allocations << ", \"frees\": "
       << frees << ", \"sized_frees\": " << sizedFrees
       << ", \"chunk_refills\": " << chunkRefills
       << ", \"bytes_requested\": " << bytesRequested
       << ", \"live_blocks\": " << liveBlocks << "}";
    return os.str();
}

PoolAllocator::PoolAllocator()
{
    // Size classes: 16, 32, 48, 64, then doubling to kMaxBlockSize.
    for (size_t s = 16; s <= 64; s += 16)
        classSizes_.push_back(s);
    for (size_t s = 128; s <= kMaxBlockSize; s *= 2)
        classSizes_.push_back(s);
    freeLists_.assign(classSizes_.size(), nullptr);
}

PoolAllocator::~PoolAllocator()
{
    for (const Chunk &chunk : chunks_)
        ::operator delete(chunk.base);
}

size_t
PoolAllocator::sizeClassFor(size_t bytes) const
{
    require(bytes > 0, "PoolAllocator: zero-byte allocation");
    require(bytes <= kMaxBlockSize, "PoolAllocator: request too large");
    // O(1): classes 0..3 cover 16/32/48/64 in 16-byte steps; beyond
    // that they double, so the index follows the bit width.
    if (bytes <= 64)
        return (bytes - 1) / 16;
    return 4 + static_cast<size_t>(std::bit_width(bytes - 1)) - 7;
}

size_t
PoolAllocator::classBlockSize(size_t cls) const
{
    ensure(cls < classSizes_.size(), "PoolAllocator: bad size class");
    return classSizes_[cls];
}

void
PoolAllocator::refill(size_t cls)
{
    size_t block = classSizes_[cls];
    auto *base = static_cast<std::uint8_t *>(::operator new(kChunkSize));
    chunks_.push_back({base, cls});
    auto addr = reinterpret_cast<std::uintptr_t>(base);
    for (size_t page = 0; page < kChunkSize / kPageSize; ++page)
        pageMap_[addr + page * kPageSize] = cls;
    size_t count = kChunkSize / block;
    ensure(count > 0, "PoolAllocator: chunk smaller than block");
    for (size_t i = 0; i < count; ++i) {
        auto *node = reinterpret_cast<FreeNode *>(base + i * block);
        node->next = freeLists_[cls];
        freeLists_[cls] = node;
    }
    ++stats_.chunkRefills;
}

void *
PoolAllocator::allocate(size_t bytes)
{
    size_t cls = sizeClassFor(bytes);
    if (freeLists_[cls] == nullptr)
        refill(cls);
    FreeNode *node = freeLists_[cls];
    freeLists_[cls] = node->next;
    ++stats_.allocations;
    stats_.bytesRequested += bytes;
    ++stats_.liveBlocks;
    return node;
}

size_t
PoolAllocator::pageMapClassOf(const void *ptr) const
{
    // The size-class recovery the paper calls out as cache-hostile:
    // unsized free() must look the page up in a map. Blocks never span
    // pages (the largest block is below kPageSize * 16 and chunks are
    // page-aligned by class), so the page covering ptr decides — but a
    // block may *start* mid-page only within its own chunk, so round
    // down to the page and accept a hit on the owning chunk's range.
    auto addr = reinterpret_cast<std::uintptr_t>(ptr);
    auto it = pageMap_.upper_bound(addr);
    if (it == pageMap_.begin())
        fatal("PoolAllocator: pointer not owned by this pool");
    --it;
    if (addr - it->first >= kPageSize)
        fatal("PoolAllocator: pointer not owned by this pool");
    return it->second;
}

void
PoolAllocator::free(void *ptr)
{
    require(ptr != nullptr, "PoolAllocator: freeing null");
    size_t cls = pageMapClassOf(ptr);
    auto *node = static_cast<FreeNode *>(ptr);
    node->next = freeLists_[cls];
    freeLists_[cls] = node;
    ++stats_.frees;
    ensure(stats_.liveBlocks > 0, "PoolAllocator: free without allocate");
    --stats_.liveBlocks;
}

void
PoolAllocator::sizedFree(void *ptr, size_t bytes)
{
    require(ptr != nullptr, "PoolAllocator: freeing null");
    size_t cls = sizeClassFor(bytes);
    auto *node = static_cast<FreeNode *>(ptr);
    node->next = freeLists_[cls];
    freeLists_[cls] = node;
    ++stats_.sizedFrees;
    ensure(stats_.liveBlocks > 0, "PoolAllocator: free without allocate");
    --stats_.liveBlocks;
}

} // namespace accel::kernels
