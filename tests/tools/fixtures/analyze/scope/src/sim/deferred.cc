// Fixture: default scope. With no path arguments the structural rules
// check src/, so the schedule below fires dangling-capture. Its two
// by-reference captures fire twice on one line; the (file, line, rule)
// dedupe keeps one finding.
#include <cstdint>

namespace sim {
struct InlineCallback {
};
} // namespace sim

struct EventQueue {
    void scheduleIn(int delay, sim::InlineCallback &&cb);
    void runAll();
};

void
scheduleAndReturn(EventQueue &eq)
{
    std::uint64_t done = 0;
    std::uint64_t total = 0;
    eq.scheduleIn(3, [&done, &total] { total += ++done; });
}
