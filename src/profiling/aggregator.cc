#include "profiling/aggregator.hh"

namespace accel::profiling {

using workload::ClibLeaf;
using workload::CopyOrigin;
using workload::Functionality;
using workload::KernelLeaf;
using workload::LeafCategory;
using workload::MemoryLeaf;
using workload::SyncLeaf;

namespace {

/** Map a trace's functionality to a Fig. 4 copy origin. */
CopyOrigin
originOf(Functionality f)
{
    switch (f) {
      case Functionality::SecureInsecureIO:
        return CopyOrigin::SecureInsecureIO;
      case Functionality::IOPrePostProcessing:
        return CopyOrigin::IOPrePostProcessing;
      case Functionality::Serialization:
        return CopyOrigin::Serialization;
      default:
        // The paper attributes all remaining copy sources to
        // application-logic execution.
        return CopyOrigin::ApplicationLogic;
    }
}

} // namespace

Aggregator::SymbolVerdict
Aggregator::verdict(SymbolId id)
{
    if (id >= verdicts_.size())
        verdicts_.resize(static_cast<size_t>(id) + 1);
    std::optional<SymbolVerdict> &cached = verdicts_[id];
    if (!cached) {
        const std::string &name = symbolName(id);
        cached = SymbolVerdict{leafTagger_.tag(name),
                               leafTagger_.memoryLeaf(name),
                               leafTagger_.kernelLeaf(name),
                               leafTagger_.syncLeaf(name),
                               leafTagger_.clibLeaf(name),
                               functionalityTagger_.marker(name)};
    }
    return *cached;
}

void
Aggregator::add(const CallTrace &trace)
{
    // FunctionalityTagger::tag's rule: the outermost marker decides.
    Functionality func = Functionality::Miscellaneous;
    for (SymbolId frame : trace.frames) {
        if (const auto marker = verdict(frame).marker) {
            func = *marker;
            break;
        }
    }
    const SymbolVerdict leaf = verdict(trace.leafFrame());

    ++traces_;
    totalCycles_ += trace.cycles;
    leaf_[leaf.leaf].cycles += trace.cycles;
    leaf_[leaf.leaf].instructions += trace.instructions;
    functionality_[func].cycles += trace.cycles;
    functionality_[func].instructions += trace.instructions;

    if (leaf.memory) {
        memory_[*leaf.memory] += trace.cycles;
        if (*leaf.memory == MemoryLeaf::Copy)
            copyOrigin_[originOf(func)] += trace.cycles;
    }
    if (leaf.kernel)
        kernel_[*leaf.kernel] += trace.cycles;
    if (leaf.sync)
        sync_[*leaf.sync] += trace.cycles;
    if (leaf.clib)
        clib_[*leaf.clib] += trace.cycles;
}

void
Aggregator::addAll(const std::vector<CallTrace> &traces)
{
    for (const CallTrace &t : traces)
        add(t);
}

template <typename Category>
std::map<Category, double>
Aggregator::toPercent(const std::map<Category, double> &cycles)
{
    double total = 0;
    for (const auto &[cat, c] : cycles)
        total += c;
    std::map<Category, double> out;
    if (total <= 0)
        return out;
    for (const auto &[cat, c] : cycles)
        out[cat] = 100.0 * c / total;
    return out;
}

std::map<LeafCategory, double>
Aggregator::leafBreakdown() const
{
    std::map<LeafCategory, double> cycles;
    for (const auto &[cat, totals] : leaf_)
        cycles[cat] = totals.cycles;
    return toPercent(cycles);
}

std::map<Functionality, double>
Aggregator::functionalityBreakdown() const
{
    std::map<Functionality, double> cycles;
    for (const auto &[cat, totals] : functionality_)
        cycles[cat] = totals.cycles;
    return toPercent(cycles);
}

std::map<MemoryLeaf, double>
Aggregator::memoryBreakdown() const
{
    return toPercent(memory_);
}

std::map<KernelLeaf, double>
Aggregator::kernelBreakdown() const
{
    return toPercent(kernel_);
}

std::map<SyncLeaf, double>
Aggregator::syncBreakdown() const
{
    return toPercent(sync_);
}

std::map<ClibLeaf, double>
Aggregator::clibBreakdown() const
{
    return toPercent(clib_);
}

std::map<CopyOrigin, double>
Aggregator::copyOriginBreakdown() const
{
    return toPercent(copyOrigin_);
}

} // namespace accel::profiling
