#include "profiling/folded_stacks.hh"

#include <algorithm>
#include <cmath>
#include <map>
#include <sstream>

#include "util/string_utils.hh"

namespace accel::profiling {

namespace {

/** "frame;frame;leaf" for an id sequence. */
std::string
stackName(const std::vector<SymbolId> &frames)
{
    std::vector<std::string> names;
    names.reserve(frames.size());
    for (SymbolId frame : frames)
        names.push_back(symbolName(frame));
    return join(names, ";");
}

} // namespace

std::vector<FoldedStack>
foldStacks(const std::vector<CallTrace> &traces)
{
    // Fold by id sequence, then resolve each unique stack's name once.
    std::map<std::vector<SymbolId>, double> byIds;
    for (const CallTrace &trace : traces)
        byIds[trace.frames] += trace.cycles;
    std::map<std::string, double> folded;
    for (const auto &[frames, cycles] : byIds)
        folded[stackName(frames)] += cycles;

    std::vector<FoldedStack> out;
    out.reserve(folded.size());
    for (auto &[stack, cycles] : folded)
        out.push_back({stack, cycles});
    std::sort(out.begin(), out.end(),
              [](const FoldedStack &a, const FoldedStack &b) {
                  if (a.cycles != b.cycles)
                      return a.cycles > b.cycles;
                  return a.stack < b.stack;
              });
    return out;
}

std::string
foldedStacksText(const std::vector<CallTrace> &traces, size_t maxStacks)
{
    auto folded = foldStacks(traces);
    if (maxStacks > 0 && folded.size() > maxStacks)
        folded.resize(maxStacks);
    std::ostringstream os;
    for (const FoldedStack &f : folded) {
        os << f.stack << " "
           << static_cast<long long>(std::llround(f.cycles)) << "\n";
    }
    return os.str();
}

} // namespace accel::profiling
