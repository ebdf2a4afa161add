/**
 * @file
 * Open-addressing hash set of non-zero 64-bit keys.
 *
 * EventQueue tracks live timer ids in one set that is hit on every
 * timer schedule/cancel/fire. `std::unordered_set` pays one
 * node allocation per insert, which would break the sim-core goal of
 * zero steady-state heap traffic; FlatSet64 stores keys directly in a
 * flat power-of-two table (linear probing, backward-shift deletion, no
 * tombstones), so the only allocations are occasional table growths and
 * capacity is retained across clear().
 *
 * Key 0 is reserved as the empty-slot sentinel — a natural fit for the
 * queue, whose sequence numbers and timer ids start at 1
 * (sim::kInvalidTimer == 0).
 *
 * The set is deliberately not iterable: hash order must never reach
 * simulation results (determinism), so the API exposes only membership
 * operations.
 */

#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/logging.hh"

namespace accel::sim {

class FlatSet64
{
  public:
    /** Insert @p key; returns true if it was not already present. */
    bool
    insert(std::uint64_t key)
    {
        require(key != 0, "FlatSet64: key 0 is reserved");
        if ((size_ + 1) * 4 >= slots_.size() * 3) {
            grow();
        }
        const std::size_t mask = slots_.size() - 1;
        std::size_t i = hash(key) & mask;
        while (slots_[i] != 0) {
            if (slots_[i] == key) {
                return false;
            }
            i = (i + 1) & mask;
        }
        slots_[i] = key;
        ++size_;
        return true;
    }

    /** Remove @p key; returns the number of keys removed (0 or 1). */
    std::size_t
    erase(std::uint64_t key)
    {
        if (size_ == 0 || key == 0) {
            return 0;
        }
        const std::size_t mask = slots_.size() - 1;
        std::size_t i = hash(key) & mask;
        while (slots_[i] != key) {
            if (slots_[i] == 0) {
                return 0;
            }
            i = (i + 1) & mask;
        }
        // Backward-shift deletion: slide displaced keys of the probe
        // chain into the hole so lookups never need tombstones.
        std::size_t hole = i;
        std::size_t j = i;
        for (;;) {
            j = (j + 1) & mask;
            const std::uint64_t k = slots_[j];
            if (k == 0) {
                break;
            }
            const std::size_t home = hash(k) & mask;
            // k may fill the hole iff its home slot is cyclically at or
            // before the hole (i.e. not strictly inside (hole, j]).
            if (((j - home) & mask) >= ((j - hole) & mask)) {
                slots_[hole] = k;
                hole = j;
            }
        }
        slots_[hole] = 0;
        --size_;
        return 1;
    }

    bool
    contains(std::uint64_t key) const
    {
        if (size_ == 0 || key == 0) {
            return false;
        }
        const std::size_t mask = slots_.size() - 1;
        std::size_t i = hash(key) & mask;
        while (slots_[i] != 0) {
            if (slots_[i] == key) {
                return true;
            }
            i = (i + 1) & mask;
        }
        return false;
    }

    std::size_t size() const { return size_; }

    bool empty() const { return size_ == 0; }

    /** Drop all keys; table capacity is retained. */
    void
    clear()
    {
        std::fill(slots_.begin(), slots_.end(), 0);
        size_ = 0;
    }

  private:
    static constexpr std::size_t kMinCapacity = 16;

    /** splitmix64 finalizer: strong enough to scatter sequential ids. */
    static std::uint64_t
    hash(std::uint64_t x)
    {
        x ^= x >> 30;
        x *= 0xbf58476d1ce4e5b9ULL;
        x ^= x >> 27;
        x *= 0x94d049bb133111ebULL;
        x ^= x >> 31;
        return x;
    }

    void
    grow()
    {
        const std::size_t cap =
            slots_.empty() ? kMinCapacity : slots_.size() * 2;
        std::vector<std::uint64_t> old(std::move(slots_));
        slots_.assign(cap, 0);
        const std::size_t mask = cap - 1;
        for (std::uint64_t key : old) {
            if (key == 0) {
                continue;
            }
            std::size_t i = hash(key) & mask;
            while (slots_[i] != 0) {
                i = (i + 1) & mask;
            }
            slots_[i] = key;
        }
    }

    std::vector<std::uint64_t> slots_; // 0 marks an empty slot
    std::size_t size_ = 0;
};

} // namespace accel::sim
