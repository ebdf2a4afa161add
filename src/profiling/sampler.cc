#include "profiling/sampler.hh"

#include <algorithm>
#include <array>
#include <cmath>

#include "util/logging.hh"

namespace accel::profiling {

using workload::ClibLeaf;
using workload::Functionality;
using workload::KernelLeaf;
using workload::LeafCategory;
using workload::MemoryLeaf;
using workload::SyncLeaf;

namespace {

constexpr size_t kNumF = 10; // functionalities
constexpr size_t kNumL = 9;  // leaf categories

/**
 * Affinity mask: how plausible a leaf category is under a
 * functionality. A small floor keeps every cell reachable so IPF can
 * always satisfy both marginals.
 */
double
affinity(Functionality f, LeafCategory l)
{
    constexpr double floor = 0.02;
    switch (f) {
      case Functionality::SecureInsecureIO:
        if (l == LeafCategory::Kernel)
            return 3.0;
        if (l == LeafCategory::Ssl)
            return 5.0;
        if (l == LeafCategory::Memory)
            return 1.0;
        if (l == LeafCategory::Synchronization)
            return 0.5;
        if (l == LeafCategory::Hashing)
            return 0.5;
        break;
      case Functionality::IOPrePostProcessing:
        if (l == LeafCategory::Memory)
            return 4.0;
        if (l == LeafCategory::CLibraries)
            return 1.0;
        if (l == LeafCategory::Kernel)
            return 1.0;
        break;
      case Functionality::Compression:
        if (l == LeafCategory::Zstd)
            return 6.0;
        if (l == LeafCategory::Memory)
            return 0.5;
        break;
      case Functionality::Serialization:
        if (l == LeafCategory::Memory)
            return 2.0;
        if (l == LeafCategory::CLibraries)
            return 2.0;
        if (l == LeafCategory::Hashing)
            return 0.3;
        break;
      case Functionality::FeatureExtraction:
        if (l == LeafCategory::CLibraries)
            return 3.0;
        if (l == LeafCategory::Memory)
            return 2.0;
        if (l == LeafCategory::Math)
            return 1.0;
        break;
      case Functionality::PredictionRanking:
        if (l == LeafCategory::Math)
            return 6.0;
        if (l == LeafCategory::CLibraries)
            return 2.0;
        if (l == LeafCategory::Memory)
            return 1.0;
        break;
      case Functionality::ApplicationLogic:
        if (l == LeafCategory::Memory)
            return 2.0;
        if (l == LeafCategory::CLibraries)
            return 2.0;
        if (l == LeafCategory::Hashing)
            return 1.0;
        if (l == LeafCategory::Synchronization)
            return 1.0;
        if (l == LeafCategory::Miscellaneous)
            return 1.0;
        break;
      case Functionality::Logging:
        if (l == LeafCategory::Memory)
            return 1.0;
        if (l == LeafCategory::CLibraries)
            return 1.5;
        if (l == LeafCategory::Zstd)
            return 0.5;
        break;
      case Functionality::ThreadPoolManagement:
        if (l == LeafCategory::Synchronization)
            return 4.0;
        if (l == LeafCategory::Kernel)
            return 2.0;
        break;
      case Functionality::Miscellaneous:
        return 0.5;
    }
    return floor;
}

} // namespace

size_t
JointDistribution::index(Functionality f, LeafCategory l)
{
    return static_cast<size_t>(f) * kNumL + static_cast<size_t>(l);
}

JointDistribution::JointDistribution(
    const workload::ServiceProfile &profile, int iterations)
{
    const auto &fs = workload::allFunctionalities();
    const auto &ls = workload::allLeafCategories();
    ensure(fs.size() == kNumF && ls.size() == kNumL,
           "JointDistribution: category count drift");

    cells_.assign(kNumF * kNumL, 0.0);
    for (Functionality f : fs)
        for (LeafCategory l : ls)
            cells_[index(f, l)] = affinity(f, l);

    std::vector<double> row_target(kNumF), col_target(kNumL);
    for (Functionality f : fs) {
        row_target[static_cast<size_t>(f)] =
            profile.functionalityShare.at(f) / 100.0;
    }
    for (LeafCategory l : ls) {
        col_target[static_cast<size_t>(l)] =
            profile.leafShare.at(l) / 100.0;
    }

    // Iterative proportional fitting: alternately scale rows and
    // columns to their targets. Zero-target rows/columns collapse to 0.
    for (int it = 0; it < iterations; ++it) {
        for (size_t r = 0; r < kNumF; ++r) {
            double sum = 0;
            for (size_t c = 0; c < kNumL; ++c)
                sum += cells_[r * kNumL + c];
            double scale = sum > 0 ? row_target[r] / sum : 0.0;
            for (size_t c = 0; c < kNumL; ++c)
                cells_[r * kNumL + c] *= scale;
        }
        for (size_t c = 0; c < kNumL; ++c) {
            double sum = 0;
            for (size_t r = 0; r < kNumF; ++r)
                sum += cells_[r * kNumL + c];
            double scale = sum > 0 ? col_target[c] / sum : 0.0;
            for (size_t r = 0; r < kNumF; ++r)
                cells_[r * kNumL + c] *= scale;
        }
    }

    double total = 0;
    for (double v : cells_)
        total += v;
    ensure(total > 0, "JointDistribution: IPF collapsed to zero");
    for (double &v : cells_)
        v /= total;

    cumulative_.resize(cells_.size());
    double cum = 0;
    for (size_t i = 0; i < cells_.size(); ++i) {
        cum += cells_[i];
        cumulative_[i] = cum;
    }
    cumulative_.back() = 1.0;
}

double
JointDistribution::mass(Functionality f, LeafCategory l) const
{
    return cells_[index(f, l)];
}

double
JointDistribution::functionalityMass(Functionality f) const
{
    double sum = 0;
    for (LeafCategory l : workload::allLeafCategories())
        sum += mass(f, l);
    return sum;
}

double
JointDistribution::leafMass(LeafCategory l) const
{
    double sum = 0;
    for (Functionality f : workload::allFunctionalities())
        sum += mass(f, l);
    return sum;
}

std::pair<Functionality, LeafCategory>
JointDistribution::sample(Rng &rng) const
{
    double u = rng.uniform();
    auto it = std::upper_bound(cumulative_.begin(), cumulative_.end(), u);
    size_t i = std::min(static_cast<size_t>(it - cumulative_.begin()),
                        cells_.size() - 1);
    return {static_cast<Functionality>(i / kNumL),
            static_cast<LeafCategory>(i % kNumL)};
}

namespace {

/** Draw a key from a percentage share map. */
template <typename Category>
Category
drawShare(const workload::ShareMap<Category> &shares, Rng &rng)
{
    double u = rng.uniform(0.0, 100.0);
    double cum = 0;
    Category last{};
    for (const auto &[cat, pct] : shares) {
        cum += pct;
        last = cat;
        if (u < cum)
            return cat;
    }
    return last;
}

const char *
memoryLeafName(MemoryLeaf m)
{
    switch (m) {
      case MemoryLeaf::Copy:
        return "__memcpy_avx_unaligned";
      case MemoryLeaf::Free:
        return "tc_free";
      case MemoryLeaf::Allocation:
        return "tc_malloc";
      case MemoryLeaf::Move:
        return "__memmove_avx_unaligned";
      case MemoryLeaf::Set:
        return "__memset_avx2";
      case MemoryLeaf::Compare:
        return "__memcmp_sse4_1";
    }
    return "tc_malloc";
}

const char *
kernelLeafName(KernelLeaf k)
{
    switch (k) {
      case KernelLeaf::Scheduler:
        return "finish_task_switch";
      case KernelLeaf::EventHandling:
        return "ep_poll";
      case KernelLeaf::Network:
        return "tcp_sendmsg";
      case KernelLeaf::Synchronization:
        return "futex_wait_queue_me";
      case KernelLeaf::MemoryManagement:
        return "clear_page_erms";
      case KernelLeaf::Miscellaneous:
        return "do_syscall_64";
    }
    return "do_syscall_64";
}

const char *
syncLeafName(SyncLeaf s)
{
    switch (s) {
      case SyncLeaf::CppAtomics:
        return "std::atomic<long>::fetch_add";
      case SyncLeaf::Mutex:
        return "pthread_mutex_lock";
      case SyncLeaf::CompareExchangeSwap:
        return "__atomic_compare_exchange_16";
      case SyncLeaf::SpinLock:
        return "folly::MicroSpinLock::lock";
    }
    return "pthread_mutex_lock";
}

const char *
clibLeafName(ClibLeaf c)
{
    switch (c) {
      case ClibLeaf::StdAlgorithms:
        return "std::sort";
      case ClibLeaf::ConstructorsDestructors:
        return "std::vector<float>::~vector";
      case ClibLeaf::Strings:
        return "std::string::append";
      case ClibLeaf::HashTables:
        return "std::unordered_map::find";
      case ClibLeaf::Vectors:
        return "std::vector<float>::push_back";
      case ClibLeaf::Trees:
        return "std::map::find";
      case ClibLeaf::OperatorOverride:
        return "operator==";
      case ClibLeaf::Miscellaneous:
        return "std::accumulate";
    }
    return "std::accumulate";
}

const char *
functionalityFrame(Functionality f)
{
    switch (f) {
      case Functionality::SecureInsecureIO:
        return "folly::AsyncSSLSocket::performWrite";
      case Functionality::IOPrePostProcessing:
        return "svc::io::prepareBuffers";
      case Functionality::Compression:
        return "svc::compress::compressPayload";
      case Functionality::Serialization:
        return "apache::thrift::BinaryProtocol::serialize";
      case Functionality::FeatureExtraction:
        return "ml::features::extractFeatures";
      case Functionality::PredictionRanking:
        return "ml::inference::predictRelevance";
      case Functionality::ApplicationLogic:
        return "svc::app::handleRequest";
      case Functionality::Logging:
        return "svc::log::appendLogEntry";
      case Functionality::ThreadPoolManagement:
        return "folly::ThreadPoolExecutor::runTask";
      case Functionality::Miscellaneous:
        return "svc::misc::housekeeping";
    }
    return "svc::misc::housekeeping";
}

/** Intern @p name(c) for every category c, indexed by category. */
template <typename Category>
std::vector<SymbolId>
internAll(const std::vector<Category> &categories,
          const char *(*name)(Category))
{
    std::vector<SymbolId> ids(categories.size());
    for (Category c : categories)
        ids.at(static_cast<size_t>(c)) = intern(name(c));
    return ids;
}

} // namespace

/** Ids of the fixed frame names the sampler emits. */
struct TraceSampler::FrameIds
{
    SymbolId threadEntry = intern("start_thread");
    SymbolId server = intern("svc::server::serve");
    std::vector<SymbolId> functionality =
        internAll(workload::allFunctionalities(), functionalityFrame);
    std::vector<SymbolId> memory =
        internAll(workload::allMemoryLeaves(), memoryLeafName);
    std::vector<SymbolId> kernel =
        internAll(workload::allKernelLeaves(), kernelLeafName);
    std::vector<SymbolId> sync =
        internAll(workload::allSyncLeaves(), syncLeafName);
    std::vector<SymbolId> clib =
        internAll(workload::allClibLeaves(), clibLeafName);
    // Two-leaf categories: [0] on the category's chance, else [1].
    std::array<SymbolId, 2> hashing = {intern("SHA256_Update"),
                                       intern("folly::hash::fnv64")};
    std::array<SymbolId, 2> zstd = {intern("ZSTD_compressBlock_fast"),
                                    intern("ZSTD_decompressSequences")};
    std::array<SymbolId, 2> math = {intern("mkl_blas_avx512_sgemm"),
                                    intern("_mm512_fmadd_ps_loop")};
    std::array<SymbolId, 2> ssl = {intern("aes_ctr_encrypt_blocks"),
                                   intern("EVP_EncryptUpdate")};
    SymbolId opaque = intern("svc_opaque_leaf");
};

const TraceSampler::FrameIds &
TraceSampler::frameIds()
{
    // Interned once per process, not per sampler.
    static const FrameIds ids;
    return ids;
}

TraceSampler::TraceSampler(const workload::ServiceProfile &profile,
                           workload::CpuGen gen, std::uint64_t seed)
    : ids_(frameIds()), profile_(profile), gen_(gen), joint_(profile),
      rng_(seed, 0xa02bdbf7bb3c0a7ULL)
{
}

SymbolId
TraceSampler::sampleLeaf(LeafCategory category)
{
    switch (category) {
      case LeafCategory::Memory:
        return ids_.memory[static_cast<size_t>(
            drawShare(profile_.memoryShare, rng_))];
      case LeafCategory::Kernel:
        return ids_.kernel[static_cast<size_t>(
            drawShare(profile_.kernelShare, rng_))];
      case LeafCategory::Synchronization:
        return ids_.sync[static_cast<size_t>(
            drawShare(profile_.syncShare, rng_))];
      case LeafCategory::CLibraries:
        return ids_.clib[static_cast<size_t>(
            drawShare(profile_.clibShare, rng_))];
      case LeafCategory::Hashing:
        return ids_.hashing[rng_.chance(0.6) ? 0 : 1];
      case LeafCategory::Zstd:
        return ids_.zstd[rng_.chance(0.7) ? 0 : 1];
      case LeafCategory::Math:
        return ids_.math[rng_.chance(0.5) ? 0 : 1];
      case LeafCategory::Ssl:
        return ids_.ssl[rng_.chance(0.5) ? 0 : 1];
      case LeafCategory::Miscellaneous:
        return ids_.opaque;
    }
    return ids_.opaque;
}

CallTrace
TraceSampler::sample()
{
    auto [f, l] = joint_.sample(rng_);
    const SymbolId leaf = sampleLeaf(l);
    CallTrace trace{{ids_.threadEntry, ids_.server,
                     ids_.functionality[static_cast<size_t>(f)], leaf}};
    trace.cycles = rng_.exponential(2000.0);
    trace.instructions = trace.cycles * workload::leafIpc(gen_, l);
    return trace;
}

std::vector<CallTrace>
TraceSampler::sampleMany(size_t count)
{
    std::vector<CallTrace> traces;
    traces.reserve(count);
    for (size_t i = 0; i < count; ++i)
        traces.push_back(sample());
    return traces;
}

} // namespace accel::profiling
