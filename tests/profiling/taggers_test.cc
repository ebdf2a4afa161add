/** @file Tests for the leaf and functionality taggers. */

#include "profiling/taggers.hh"

#include <gtest/gtest.h>

namespace accel::profiling {
namespace {

using workload::ClibLeaf;
using workload::Functionality;
using workload::KernelLeaf;
using workload::LeafCategory;
using workload::MemoryLeaf;
using workload::SyncLeaf;

TEST(LeafTagger, MemoryFamily)
{
    LeafTagger t;
    EXPECT_EQ(t.tag("__memcpy_avx_unaligned"), LeafCategory::Memory);
    EXPECT_EQ(t.tag("tc_malloc"), LeafCategory::Memory);
    EXPECT_EQ(t.tag("tc_free"), LeafCategory::Memory);
    EXPECT_EQ(t.tag("free"), LeafCategory::Memory);
    EXPECT_EQ(t.tag("operator new"), LeafCategory::Memory);
    EXPECT_EQ(t.tag("__memset_avx2"), LeafCategory::Memory);
}

TEST(LeafTagger, KernelBeatsLookalikes)
{
    LeafTagger t;
    // futex must tag Kernel, not Synchronization's mutex rule.
    EXPECT_EQ(t.tag("futex_wait_queue_me"), LeafCategory::Kernel);
    EXPECT_EQ(t.tag("tcp_sendmsg"), LeafCategory::Kernel);
    EXPECT_EQ(t.tag("finish_task_switch"), LeafCategory::Kernel);
    EXPECT_EQ(t.tag("ep_poll"), LeafCategory::Kernel);
    EXPECT_EQ(t.tag("clear_page_erms"), LeafCategory::Kernel);
    EXPECT_EQ(t.tag("do_syscall_64"), LeafCategory::Kernel);
}

TEST(LeafTagger, DomainLibraries)
{
    LeafTagger t;
    EXPECT_EQ(t.tag("ZSTD_compressBlock_fast"), LeafCategory::Zstd);
    EXPECT_EQ(t.tag("aes_ctr_encrypt_blocks"), LeafCategory::Ssl);
    EXPECT_EQ(t.tag("EVP_EncryptUpdate"), LeafCategory::Ssl);
    EXPECT_EQ(t.tag("SHA256_Update"), LeafCategory::Hashing);
    EXPECT_EQ(t.tag("folly::hash::fnv64"), LeafCategory::Hashing);
    EXPECT_EQ(t.tag("mkl_blas_avx512_sgemm"), LeafCategory::Math);
    EXPECT_EQ(t.tag("_mm512_fmadd_ps_loop"), LeafCategory::Math);
}

TEST(LeafTagger, SynchronizationBeforeClib)
{
    LeafTagger t;
    // std::atomic contains "std::" but must tag Synchronization.
    EXPECT_EQ(t.tag("std::atomic<long>::fetch_add"),
              LeafCategory::Synchronization);
    EXPECT_EQ(t.tag("pthread_mutex_lock"),
              LeafCategory::Synchronization);
    EXPECT_EQ(t.tag("folly::MicroSpinLock::lock"),
              LeafCategory::Synchronization);
}

TEST(LeafTagger, ClibAndFallback)
{
    LeafTagger t;
    EXPECT_EQ(t.tag("std::vector<float>::push_back"),
              LeafCategory::CLibraries);
    EXPECT_EQ(t.tag("std::unordered_map::find"),
              LeafCategory::CLibraries);
    EXPECT_EQ(t.tag("operator=="), LeafCategory::CLibraries);
    EXPECT_EQ(t.tag("svc_opaque_leaf"), LeafCategory::Miscellaneous);
}

TEST(LeafTagger, MatchBoundaries)
{
    LeafTagger t;
    // A needle that ends the name, and a name that is all needle.
    EXPECT_EQ(t.tag("sys_futex"), LeafCategory::Kernel);
    EXPECT_EQ(*t.kernelLeaf("net_rx"), KernelLeaf::Network);
    // Names shorter than every needle they start.
    EXPECT_EQ(t.tag("memcp"), LeafCategory::Miscellaneous);
    EXPECT_EQ(t.tag("tcp"), LeafCategory::Miscellaneous);
    EXPECT_FALSE(t.memoryLeaf("memc").has_value());
    EXPECT_EQ(t.tag(""), LeafCategory::Miscellaneous);
    // Upper case folds for the substring rules...
    EXPECT_EQ(t.tag("PTHREAD_MUTEX_LOCK"), LeafCategory::Synchronization);
    EXPECT_EQ(*t.syncLeaf("PTHREAD_MUTEX_LOCK"), SyncLeaf::Mutex);
    EXPECT_EQ(*t.memoryLeaf("__MEMCPY_AVX_UNALIGNED"), MemoryLeaf::Copy);
    // ...but the bare "free" rule is an exact, case-sensitive match.
    EXPECT_EQ(t.tag("FREE"), LeafCategory::Miscellaneous);
    EXPECT_FALSE(t.memoryLeaf("free_list").has_value());
}

TEST(LeafTagger, MemorySubLeaves)
{
    LeafTagger t;
    EXPECT_EQ(*t.memoryLeaf("__memcpy_avx_unaligned"), MemoryLeaf::Copy);
    EXPECT_EQ(*t.memoryLeaf("__memmove_avx_unaligned"),
              MemoryLeaf::Move);
    EXPECT_EQ(*t.memoryLeaf("__memset_avx2"), MemoryLeaf::Set);
    EXPECT_EQ(*t.memoryLeaf("__memcmp_sse4_1"), MemoryLeaf::Compare);
    EXPECT_EQ(*t.memoryLeaf("tc_malloc"), MemoryLeaf::Allocation);
    EXPECT_EQ(*t.memoryLeaf("tc_free"), MemoryLeaf::Free);
    EXPECT_FALSE(t.memoryLeaf("std::sort").has_value());
}

TEST(LeafTagger, KernelSubLeaves)
{
    LeafTagger t;
    EXPECT_EQ(*t.kernelLeaf("finish_task_switch"),
              KernelLeaf::Scheduler);
    EXPECT_EQ(*t.kernelLeaf("ep_poll"), KernelLeaf::EventHandling);
    EXPECT_EQ(*t.kernelLeaf("tcp_sendmsg"), KernelLeaf::Network);
    EXPECT_EQ(*t.kernelLeaf("futex_wait_queue_me"),
              KernelLeaf::Synchronization);
    EXPECT_EQ(*t.kernelLeaf("clear_page_erms"),
              KernelLeaf::MemoryManagement);
    EXPECT_FALSE(t.kernelLeaf("memcpy").has_value());
}

TEST(LeafTagger, SyncSubLeaves)
{
    LeafTagger t;
    EXPECT_EQ(*t.syncLeaf("std::atomic<long>::fetch_add"),
              SyncLeaf::CppAtomics);
    EXPECT_EQ(*t.syncLeaf("pthread_mutex_lock"), SyncLeaf::Mutex);
    EXPECT_EQ(*t.syncLeaf("__atomic_compare_exchange_16"),
              SyncLeaf::CompareExchangeSwap);
    EXPECT_EQ(*t.syncLeaf("folly::MicroSpinLock::lock"),
              SyncLeaf::SpinLock);
}

TEST(LeafTagger, ClibSubLeaves)
{
    LeafTagger t;
    EXPECT_EQ(*t.clibLeaf("std::sort"), ClibLeaf::StdAlgorithms);
    EXPECT_EQ(*t.clibLeaf("std::vector<float>::~vector"),
              ClibLeaf::ConstructorsDestructors);
    EXPECT_EQ(*t.clibLeaf("std::string::append"), ClibLeaf::Strings);
    EXPECT_EQ(*t.clibLeaf("std::unordered_map::find"),
              ClibLeaf::HashTables);
    EXPECT_EQ(*t.clibLeaf("std::vector<float>::push_back"),
              ClibLeaf::Vectors);
    EXPECT_EQ(*t.clibLeaf("std::map::find"), ClibLeaf::Trees);
    EXPECT_EQ(*t.clibLeaf("operator=="), ClibLeaf::OperatorOverride);
}

CallTrace
trace(const std::vector<std::string> &frames)
{
    CallTrace t;
    for (const std::string &frame : frames)
        t.frames.push_back(intern(frame));
    t.cycles = 100;
    t.instructions = 80;
    return t;
}

TEST(FunctionalityTagger, MarkersResolve)
{
    FunctionalityTagger t;
    EXPECT_EQ(t.tag(trace({"start_thread",
                           "folly::AsyncSSLSocket::performWrite",
                           "aes_ctr_encrypt_blocks"})),
              Functionality::SecureInsecureIO);
    EXPECT_EQ(t.tag(trace({"svc::io::prepareBuffers", "memcpy"})),
              Functionality::IOPrePostProcessing);
    EXPECT_EQ(t.tag(trace({"apache::thrift::BinaryProtocol::serialize",
                           "memcpy"})),
              Functionality::Serialization);
    EXPECT_EQ(t.tag(trace({"ml::features::extractFeatures",
                           "std::vector<float>::push_back"})),
              Functionality::FeatureExtraction);
    EXPECT_EQ(t.tag(trace({"ml::inference::predictRelevance",
                           "mkl_blas_avx512_sgemm"})),
              Functionality::PredictionRanking);
    EXPECT_EQ(t.tag(trace({"svc::log::appendLogEntry", "memcpy"})),
              Functionality::Logging);
    EXPECT_EQ(t.tag(trace({"svc::compress::compressPayload",
                           "ZSTD_compressBlock_fast"})),
              Functionality::Compression);
    EXPECT_EQ(t.tag(trace({"svc::app::handleRequest", "std::map::find"})),
              Functionality::ApplicationLogic);
    EXPECT_EQ(t.tag(trace({"folly::ThreadPoolExecutor::runTask",
                           "pthread_mutex_lock"})),
              Functionality::ThreadPoolManagement);
}

TEST(FunctionalityTagger, OutermostMarkerWins)
{
    // A logging path that compresses its payload is still Logging.
    FunctionalityTagger t;
    EXPECT_EQ(t.tag(trace({"svc::log::appendLogEntry",
                           "svc::compress::compressPayload",
                           "ZSTD_compressBlock_fast"})),
              Functionality::Logging);
}

TEST(FunctionalityTagger, UnknownFallsToMiscellaneous)
{
    FunctionalityTagger t;
    EXPECT_EQ(t.tag(trace({"start_thread", "mystery_function"})),
              Functionality::Miscellaneous);
}

TEST(CallTrace, LeafAndIpc)
{
    CallTrace t = trace({"a", "b", "leaf_fn"});
    EXPECT_EQ(symbolName(t.leafFrame()), "leaf_fn");
    EXPECT_NEAR(t.ipc(), 0.8, 1e-12);
}

} // namespace
} // namespace accel::profiling
