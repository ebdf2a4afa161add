#include "alloc_hook.hh"

#include <algorithm>
#include <cstdlib>
#include <new>

// Unlike simcore_throughput's process-wide atomic, the count is per
// thread: measurements take deltas on the thread doing the work, and
// the runner probe's workers would otherwise contend on one cache line
// and distort the scaling they are there to measure. The counter is
// trivially constructible, so it is safe to touch at any point of a
// thread's life.

namespace {
thread_local std::uint64_t t_allocs = 0;
} // namespace

void *
operator new(std::size_t n)
{
    ++t_allocs;
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t n)
{
    return ::operator new(n);
}

void *
operator new(std::size_t n, std::align_val_t align)
{
    ++t_allocs;
    const std::size_t a = static_cast<std::size_t>(align);
    const std::size_t rounded = (std::max<std::size_t>(n, 1) + a - 1) /
                                a * a; // aligned_alloc contract
    if (void *p = std::aligned_alloc(a, rounded))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t n, std::align_val_t align)
{
    return ::operator new(n, align);
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

namespace accel::perf {

std::uint64_t
allocationCount()
{
    return t_allocs;
}

bool
allocationHookCounts()
{
    const std::uint64_t before = allocationCount();
    // The volatile pointer keeps the compiler from eliding the pair.
    int *volatile p = new int(7);
    const std::uint64_t after = allocationCount();
    delete p;
    return after - before == 1;
}

} // namespace accel::perf
