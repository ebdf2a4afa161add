#include "profiling/taggers.hh"

#include <string_view>

namespace accel::profiling {

using workload::ClibLeaf;
using workload::Functionality;
using workload::KernelLeaf;
using workload::LeafCategory;
using workload::MemoryLeaf;
using workload::SyncLeaf;

namespace {

/**
 * Case-insensitive substring test. @p needle must be lower-case; only
 * ASCII letters in @p haystack fold, and nothing is copied. Kept out of
 * line: the rules call it about 80 times but run only on a verdict-cache
 * miss, and inlined copies would add ~20 KB of code at -O3.
 */
[[gnu::noinline]] bool
contains(std::string_view haystack, std::string_view needle)
{
    for (size_t at = 0; at + needle.size() <= haystack.size(); ++at) {
        size_t i = 0;
        for (; i < needle.size(); ++i) {
            const char c = haystack[at + i];
            if ((c >= 'A' && c <= 'Z' ? c - 'A' + 'a' : c) != needle[i])
                break;
        }
        if (i == needle.size())
            return true;
    }
    return false;
}

} // namespace

LeafCategory
LeafTagger::tag(const std::string &leaf) const
{
    // Order matters: kernel symbols first (futex_wait must not match the
    // mutex rule), then domain-specific libraries, then generic C++.
    if (contains(leaf, "finish_task_switch") || contains(leaf, "ep_poll") ||
        contains(leaf, "tcp_") || contains(leaf, "futex") ||
        contains(leaf, "clear_page") || contains(leaf, "do_syscall") ||
        contains(leaf, "__schedule") || contains(leaf, "net_rx")) {
        return LeafCategory::Kernel;
    }
    if (contains(leaf, "zstd"))
        return LeafCategory::Zstd;
    if (contains(leaf, "aes") || contains(leaf, "evp_") ||
        contains(leaf, "ssl_") || contains(leaf, "chacha")) {
        return LeafCategory::Ssl;
    }
    if (contains(leaf, "sha") || contains(leaf, "fnv") ||
        contains(leaf, "siphash") || contains(leaf, "crc32")) {
        return LeafCategory::Hashing;
    }
    if (contains(leaf, "mkl") || contains(leaf, "_mm") ||
        contains(leaf, "blas") || contains(leaf, "fmadd")) {
        return LeafCategory::Math;
    }
    if (contains(leaf, "memcpy") || contains(leaf, "memmove") ||
        contains(leaf, "memset") || contains(leaf, "memcmp") ||
        contains(leaf, "malloc") || contains(leaf, "calloc") ||
        contains(leaf, "tc_free") || contains(leaf, "cfree") ||
        contains(leaf, "operator new") ||
        contains(leaf, "operator delete") || leaf == "free") {
        return LeafCategory::Memory;
    }
    if (contains(leaf, "atomic") || contains(leaf, "mutex") ||
        contains(leaf, "spin") || contains(leaf, "compare_exchange")) {
        return LeafCategory::Synchronization;
    }
    if (contains(leaf, "std::") || contains(leaf, "operator") ||
        contains(leaf, "__gnu_cxx")) {
        return LeafCategory::CLibraries;
    }
    return LeafCategory::Miscellaneous;
}

std::optional<MemoryLeaf>
LeafTagger::memoryLeaf(const std::string &leaf) const
{
    if (contains(leaf, "memcpy"))
        return MemoryLeaf::Copy;
    if (contains(leaf, "memmove"))
        return MemoryLeaf::Move;
    if (contains(leaf, "memset"))
        return MemoryLeaf::Set;
    if (contains(leaf, "memcmp"))
        return MemoryLeaf::Compare;
    if (contains(leaf, "tc_free") || contains(leaf, "cfree") ||
        contains(leaf, "operator delete") || leaf == "free") {
        return MemoryLeaf::Free;
    }
    if (contains(leaf, "malloc") || contains(leaf, "calloc") ||
        contains(leaf, "operator new")) {
        return MemoryLeaf::Allocation;
    }
    return std::nullopt;
}

std::optional<KernelLeaf>
LeafTagger::kernelLeaf(const std::string &leaf) const
{
    if (contains(leaf, "finish_task_switch") ||
        contains(leaf, "__schedule")) {
        return KernelLeaf::Scheduler;
    }
    if (contains(leaf, "ep_poll"))
        return KernelLeaf::EventHandling;
    if (contains(leaf, "tcp_") || contains(leaf, "net_rx"))
        return KernelLeaf::Network;
    if (contains(leaf, "futex"))
        return KernelLeaf::Synchronization;
    if (contains(leaf, "clear_page"))
        return KernelLeaf::MemoryManagement;
    if (contains(leaf, "do_syscall"))
        return KernelLeaf::Miscellaneous;
    return std::nullopt;
}

std::optional<SyncLeaf>
LeafTagger::syncLeaf(const std::string &leaf) const
{
    if (contains(leaf, "compare_exchange"))
        return SyncLeaf::CompareExchangeSwap;
    if (contains(leaf, "atomic"))
        return SyncLeaf::CppAtomics;
    if (contains(leaf, "mutex"))
        return SyncLeaf::Mutex;
    if (contains(leaf, "spin"))
        return SyncLeaf::SpinLock;
    return std::nullopt;
}

std::optional<ClibLeaf>
LeafTagger::clibLeaf(const std::string &leaf) const
{
    if (contains(leaf, "std::sort") || contains(leaf, "std::find") ||
        contains(leaf, "std::accumulate")) {
        return ClibLeaf::StdAlgorithms;
    }
    if (contains(leaf, "::~") || contains(leaf, "construct"))
        return ClibLeaf::ConstructorsDestructors;
    if (contains(leaf, "std::string") || contains(leaf, "basic_string"))
        return ClibLeaf::Strings;
    if (contains(leaf, "unordered_map") || contains(leaf, "hashtable"))
        return ClibLeaf::HashTables;
    if (contains(leaf, "std::vector"))
        return ClibLeaf::Vectors;
    if (contains(leaf, "std::map") || contains(leaf, "_rb_tree"))
        return ClibLeaf::Trees;
    if (contains(leaf, "operator=") || contains(leaf, "operator<") ||
        contains(leaf, "operator==")) {
        return ClibLeaf::OperatorOverride;
    }
    if (contains(leaf, "std::") || contains(leaf, "__gnu_cxx"))
        return ClibLeaf::Miscellaneous;
    return std::nullopt;
}

std::optional<Functionality>
FunctionalityTagger::marker(const std::string &frame) const
{
    if (contains(frame, "threadpoolexecutor") ||
        contains(frame, "thread_pool")) {
        return Functionality::ThreadPoolManagement;
    }
    if (contains(frame, "sslsocket") || contains(frame, "asyncsocket"))
        return Functionality::SecureInsecureIO;
    if (contains(frame, "io::prepare") ||
        contains(frame, "io::postprocess")) {
        return Functionality::IOPrePostProcessing;
    }
    if (contains(frame, "thrift::"))
        return Functionality::Serialization;
    if (contains(frame, "features::extract"))
        return Functionality::FeatureExtraction;
    if (contains(frame, "inference::") || contains(frame, "ranking::"))
        return Functionality::PredictionRanking;
    if (contains(frame, "log::append") || contains(frame, "log::read") ||
        contains(frame, "log::update")) {
        return Functionality::Logging;
    }
    if (contains(frame, "compress::"))
        return Functionality::Compression;
    if (contains(frame, "app::"))
        return Functionality::ApplicationLogic;
    if (contains(frame, "misc::"))
        return Functionality::Miscellaneous;
    return std::nullopt;
}

Functionality
FunctionalityTagger::tag(const CallTrace &trace) const
{
    for (SymbolId frame : trace.frames) {
        if (auto f = marker(symbolName(frame)))
            return *f;
    }
    return Functionality::Miscellaneous;
}

} // namespace accel::profiling
