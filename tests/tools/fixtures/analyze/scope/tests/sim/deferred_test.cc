// Fixture: default scope. With no path arguments the token rules check
// tests/, so the push_back below fires parfor-pushback once, while the
// structural rules skip tests/: the [&] schedule in a frame that does
// not drive the loop is not reported, and its allow() is not stale.
// Naming tests/ explicitly reports the schedule, suppressed.
#include <cstddef>
#include <vector>

namespace sim {
struct InlineCallback {
};
} // namespace sim

namespace accel {
template <typename F> void parallelFor(std::size_t n, F &&f);
} // namespace accel

struct EventQueue {
    void scheduleIn(int delay, sim::InlineCallback &&cb);
};

void
scheduleWithoutDriving(EventQueue &eq)
{
    int done = 0;
    // accel-lint: allow(dangling-capture) -- fixture: structural rules
    // check tests/ only when it is named
    eq.scheduleIn(3, [&] { ++done; });
}

void
collect(std::vector<std::size_t> &out)
{
    accel::parallelFor(4, [&](std::size_t i) { out.push_back(i); });
}
