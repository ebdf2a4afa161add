/** @file Tests for the generational slot pool. */

#include "util/slot_pool.hh"

#include <vector>

#include <gtest/gtest.h>

#include "util/logging.hh"

namespace accel {
namespace {

using Pool = SlotPool<int>;

std::uint64_t
slotBits(Pool::Handle h)
{
    return h & 0xffffffffULL;
}

TEST(SlotPool, NoHandleIsZero)
{
    Pool pool;
    std::vector<Pool::Handle> handles;
    for (int i = 0; i < 100; ++i)
        handles.push_back(pool.acquire(i));
    // Release and reacquire so reused slots are covered as well.
    for (size_t i = 0; i < handles.size(); i += 2)
        pool.release(handles[i]);
    for (int i = 0; i < 50; ++i)
        handles.push_back(pool.acquire(i));
    for (Pool::Handle h : handles)
        EXPECT_NE(h, 0u);
    EXPECT_EQ(pool.find(0), nullptr);
    EXPECT_THROW(pool.at(0), FatalError);
}

TEST(SlotPool, ReleasedHandleIsStaleEvenAfterReuse)
{
    Pool pool;
    Pool::Handle h = pool.acquire(7);
    ASSERT_NE(pool.find(h), nullptr);
    EXPECT_EQ(pool.at(h), 7);

    pool.release(h);
    EXPECT_EQ(pool.find(h), nullptr);
    EXPECT_THROW(pool.at(h), FatalError);
    EXPECT_THROW(pool.release(h), FatalError);

    Pool::Handle reused = pool.acquire(8);
    ASSERT_EQ(slotBits(reused), slotBits(h)); // the same slot
    EXPECT_EQ(pool.find(h), nullptr);
    EXPECT_THROW(pool.at(h), FatalError);
    EXPECT_EQ(pool.at(reused), 8);
}

TEST(SlotPool, ReusedSlotGetsNewGeneration)
{
    Pool pool;
    Pool::Handle first = pool.acquire(1);
    std::vector<Pool::Handle> seen{first};
    for (int round = 0; round < 4; ++round) {
        pool.release(seen.back());
        Pool::Handle next = pool.acquire(round);
        EXPECT_EQ(slotBits(next), slotBits(first));
        for (Pool::Handle old : seen) {
            EXPECT_NE(next >> 32, old >> 32);
            EXPECT_EQ(pool.find(old), nullptr);
        }
        seen.push_back(next);
    }
}

TEST(SlotPool, HandlesAndValuesSurviveGrowth)
{
    Pool pool;
    std::vector<Pool::Handle> handles;
    for (int i = 0; i < 1000; ++i) {
        handles.push_back(pool.acquire(i));
        // Every earlier handle still reaches its value as the slab grows.
        if ((i & (i - 1)) == 0) {
            for (int j = 0; j <= i; ++j)
                ASSERT_EQ(pool.at(handles[j]), j);
        }
    }
    for (int i = 0; i < 1000; i += 3)
        pool.release(handles[i]);
    for (int i = 0; i < 1000; ++i) {
        if (i % 3 == 0)
            EXPECT_EQ(pool.find(handles[i]), nullptr);
        else
            EXPECT_EQ(pool.at(handles[i]), i);
    }
}

TEST(SlotPool, LiveCountsAcquireAndRelease)
{
    Pool pool;
    EXPECT_EQ(pool.live(), 0u);
    Pool::Handle a = pool.acquire(1);
    Pool::Handle b = pool.acquire(2);
    EXPECT_EQ(pool.live(), 2u);
    pool.release(a);
    EXPECT_EQ(pool.live(), 1u);
    Pool::Handle c = pool.acquire(3);
    EXPECT_EQ(pool.live(), 2u);
    pool.release(b);
    pool.release(c);
    EXPECT_EQ(pool.live(), 0u);
}

} // namespace
} // namespace accel
