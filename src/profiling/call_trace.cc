#include "profiling/call_trace.hh"

#include "util/logging.hh"

namespace accel::profiling {

SymbolId
CallTrace::leafFrame() const
{
    require(!frames.empty(), "CallTrace: no frames");
    return frames.back();
}

double
CallTrace::ipc() const
{
    if (cycles <= 0)
        return 0.0;
    return instructions / cycles;
}

} // namespace accel::profiling
