/**
 * @file
 * Generational slot pool: stable 64-bit handles over a reused slab.
 *
 * The simulator keeps one record per in-flight request, RPC call and
 * edge-call chain. Allocating each record on the heap (a shared_ptr,
 * an unordered_map node) made allocation the largest cost left on the
 * request path. A SlotPool stores the records in one vector and keeps
 * released indices on a free list, so once the slab has grown to the
 * peak live count, acquire and release allocate nothing.
 *
 * A handle is `(generation << 32) | (index + 1)`, so 0 never names a
 * slot and stays free to mean "none". Each slot's 32-bit generation
 * is odd while the slot is live and even while it is free; acquire
 * and release each bump it. A released handle is therefore stale for
 * good, even after its slot is reused: find() returns null for it and
 * at() throws FatalError, never undefined behaviour. (The generation
 * wraps only after 2^31 reuses of one slot.)
 *
 * References and pointers into the pool are invalidated when the slab
 * grows. Never hold one across a call that can acquire from the same
 * pool; hold the handle and look the record up again instead.
 */

#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "util/logging.hh"

namespace accel {

template <typename T>
class SlotPool
{
  public:
    /** Opaque slot handle; 0 is never issued. */
    using Handle = std::uint64_t;

    /** Store @p value in a free slot (growing the slab if none). */
    Handle
    acquire(T value)
    {
        std::uint32_t index = 0;
        if (free_.empty()) {
            require(slots_.size() < kMaxSlots, "SlotPool: slab is full");
            index = static_cast<std::uint32_t>(slots_.size());
            slots_.emplace_back();
        } else {
            index = free_.back();
            free_.pop_back();
        }
        Slot &s = slots_[index];
        ++s.generation; // even (free) -> odd (live)
        s.value = std::move(value);
        return (static_cast<Handle>(s.generation) << 32) | (index + 1ULL);
    }

    /** The live record @p h names, or null when @p h is 0 or stale. */
    T *
    find(Handle h)
    {
        const std::uint64_t slot = h & 0xffffffffULL;
        if (slot == 0 || slot > slots_.size())
            return nullptr;
        Slot &s = slots_[slot - 1];
        if (s.generation != static_cast<std::uint32_t>(h >> 32) ||
            (s.generation & 1U) == 0)
            return nullptr;
        return &s.value;
    }

    /** The live record @p h names. @throws FatalError when stale. */
    T &
    at(Handle h)
    {
        T *value = find(h);
        require(value != nullptr, "SlotPool: stale or unknown handle");
        return *value;
    }

    /** Free @p h's slot for reuse. @throws FatalError when stale. */
    void
    release(Handle h)
    {
        at(h);
        const auto index = static_cast<std::uint32_t>((h & 0xffffffffULL) - 1);
        ++slots_[index].generation; // odd (live) -> even (free)
        free_.push_back(index);
    }

    /** Records currently acquired and not yet released. */
    std::size_t live() const { return slots_.size() - free_.size(); }

  private:
    /** Index + 1 must fit the handle's low 32 bits. */
    static constexpr std::size_t kMaxSlots = 0xfffffffeULL;

    struct Slot
    {
        T value{};
        std::uint32_t generation = 0;
    };

    std::vector<Slot> slots_;
    std::vector<std::uint32_t> free_;
};

} // namespace accel
