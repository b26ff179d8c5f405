#include <cstring>
#include <numeric>

#include "common/units.h"
#include "fault/fault_injector.h"
#include "gtest/gtest.h"
#include "hw/system_profile.h"
#include "memory/unified.h"
#include "transfer/executor.h"
#include "transfer/method.h"
#include "transfer/pipeline.h"
#include "transfer/transfer_model.h"

namespace pump::transfer {
namespace {

using hw::kCpu0;
using hw::kGpu0;
using memory::Buffer;
using memory::Extent;
using memory::MemoryKind;

TEST(MethodTraitsTest, Table1Semantics) {
  // Table 1, "Semantics" column.
  EXPECT_EQ(TraitsOf(TransferMethod::kPageableCopy).semantics,
            Semantics::kPush);
  EXPECT_EQ(TraitsOf(TransferMethod::kStagedCopy).semantics, Semantics::kPush);
  EXPECT_EQ(TraitsOf(TransferMethod::kDynamicPinning).semantics,
            Semantics::kPush);
  EXPECT_EQ(TraitsOf(TransferMethod::kPinnedCopy).semantics, Semantics::kPush);
  EXPECT_EQ(TraitsOf(TransferMethod::kUmPrefetch).semantics, Semantics::kPush);
  EXPECT_EQ(TraitsOf(TransferMethod::kUmMigration).semantics,
            Semantics::kPull);
  EXPECT_EQ(TraitsOf(TransferMethod::kZeroCopy).semantics, Semantics::kPull);
  EXPECT_EQ(TraitsOf(TransferMethod::kCoherence).semantics, Semantics::kPull);
}

TEST(MethodTraitsTest, Table1Granularity) {
  EXPECT_EQ(TraitsOf(TransferMethod::kUmMigration).granularity,
            Granularity::kPage);
  EXPECT_EQ(TraitsOf(TransferMethod::kZeroCopy).granularity,
            Granularity::kByte);
  EXPECT_EQ(TraitsOf(TransferMethod::kCoherence).granularity,
            Granularity::kByte);
  EXPECT_EQ(TraitsOf(TransferMethod::kPinnedCopy).granularity,
            Granularity::kChunk);
}

TEST(MethodTraitsTest, Table1MemoryKinds) {
  EXPECT_EQ(TraitsOf(TransferMethod::kPageableCopy).required_memory,
            MemoryKind::kPageable);
  EXPECT_EQ(TraitsOf(TransferMethod::kPinnedCopy).required_memory,
            MemoryKind::kPinned);
  EXPECT_EQ(TraitsOf(TransferMethod::kZeroCopy).required_memory,
            MemoryKind::kPinned);
  EXPECT_EQ(TraitsOf(TransferMethod::kUmPrefetch).required_memory,
            MemoryKind::kUnified);
  EXPECT_EQ(TraitsOf(TransferMethod::kCoherence).required_memory,
            MemoryKind::kPageable);
}

TEST(MethodTraitsTest, OnlyPullMethodsSupportDataDependence) {
  // Sec. 4.2: push-based methods cannot satisfy data-dependent accesses.
  EXPECT_FALSE(
      TransferModel::SupportsDataDependentAccess(TransferMethod::kStagedCopy));
  EXPECT_FALSE(
      TransferModel::SupportsDataDependentAccess(TransferMethod::kPinnedCopy));
  EXPECT_TRUE(
      TransferModel::SupportsDataDependentAccess(TransferMethod::kZeroCopy));
  EXPECT_TRUE(
      TransferModel::SupportsDataDependentAccess(TransferMethod::kCoherence));
  EXPECT_TRUE(TransferModel::SupportsDataDependentAccess(
      TransferMethod::kUmMigration));
}

TEST(PipelineTest, MakespanSingleStage) {
  std::vector<PipelineStage> stages = {
      {"copy", BytesPerSecond(100.0), Seconds(0.0)}};
  // 10 chunks of 10 bytes at 100 B/s: 0.1 s fill + 9 * 0.1 s.
  EXPECT_NEAR(PipelineMakespan(stages, Bytes(100.0), Bytes(10.0)).seconds(),
              1.0, 1e-9);
}

TEST(PipelineTest, MakespanTwoStagesOverlaps) {
  std::vector<PipelineStage> stages = {
      {"a", BytesPerSecond(100.0), Seconds(0.0)},
      {"b", BytesPerSecond(100.0), Seconds(0.0)}};
  // Perfect two-stage pipeline: fill 0.2 s + 9 * 0.1 s = 1.1 s, well under
  // the 2.0 s serial time.
  EXPECT_NEAR(PipelineMakespan(stages, Bytes(100.0), Bytes(10.0)).seconds(),
              1.1, 1e-9);
}

TEST(PipelineTest, BottleneckStagePaces) {
  std::vector<PipelineStage> stages = {
      {"fast", BytesPerSecond(1000.0), Seconds(0.0)},
      {"slow", BytesPerSecond(10.0), Seconds(0.0)}};
  EXPECT_NEAR(
      PipelineSteadyStateRate(stages, Bytes(10.0)).bytes_per_second(),
      10.0, 1e-9);
}

TEST(PipelineTest, PerChunkLatencyFavorsLargerChunks) {
  std::vector<PipelineStage> stages = {
      {"dma", BytesPerSecond(1e9), Seconds::Micros(10.0)}};
  const BytesPerSecond small = PipelineSteadyStateRate(stages, Bytes::KiB(64));
  const BytesPerSecond large = PipelineSteadyStateRate(stages, Bytes::MiB(8));
  EXPECT_GT(large.bytes_per_second(), small.bytes_per_second());
}

TEST(PipelineTest, EmptyInputs) {
  EXPECT_DOUBLE_EQ(
      PipelineMakespan({}, Bytes(100.0), Bytes(10.0)).seconds(), 0.0);
  EXPECT_DOUBLE_EQ(
      PipelineMakespan({{"a", BytesPerSecond(1.0), Seconds(0.0)}},
                       Bytes(0.0), Bytes(10.0))
          .seconds(),
      0.0);
  EXPECT_DOUBLE_EQ(
      PipelineSteadyStateRate({}, Bytes(10.0)).bytes_per_second(), 0.0);
}

class TransferModelIbmTest : public ::testing::Test {
 protected:
  hw::SystemProfile profile_ = hw::Ac922Profile();
  TransferModel model_{&profile_};
};

class TransferModelIntelTest : public ::testing::Test {
 protected:
  hw::SystemProfile profile_ = hw::XeonProfile();
  TransferModel model_{&profile_};
};

TEST_F(TransferModelIbmTest, PullMethodIsCoherenceOnNvlink) {
  const Result<TransferMethod> method =
      PullMethodFor(profile_.topology, kGpu0, kCpu0);
  ASSERT_TRUE(method.ok()) << method.status();
  EXPECT_EQ(method.value(), TransferMethod::kCoherence);
}

TEST_F(TransferModelIntelTest, PullMethodIsZeroCopyOnPcie) {
  const Result<TransferMethod> method =
      PullMethodFor(profile_.topology, kGpu0, kCpu0);
  ASSERT_TRUE(method.ok()) << method.status();
  EXPECT_EQ(method.value(), TransferMethod::kZeroCopy);
}

TEST_F(TransferModelIntelTest, CoherenceUnsupportedOnPcie) {
  // Fig. 12: the Coherence method does not exist on PCI-e 3.0.
  Status status = model_.Validate(TransferMethod::kCoherence, kGpu0, kCpu0,
                                  MemoryKind::kPageable);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kUnsupported);
}

TEST_F(TransferModelIbmTest, CoherenceSupportedOnNvlink) {
  EXPECT_TRUE(model_
                  .Validate(TransferMethod::kCoherence, kGpu0, kCpu0,
                            MemoryKind::kPageable)
                  .ok());
  // Coherence also reaches pinned memory (any CPU memory, Sec. 4.2).
  EXPECT_TRUE(model_
                  .Validate(TransferMethod::kCoherence, kGpu0, kCpu0,
                            MemoryKind::kPinned)
                  .ok());
}

TEST_F(TransferModelIbmTest, MemoryKindMismatchRejected) {
  EXPECT_FALSE(model_
                   .Validate(TransferMethod::kZeroCopy, kGpu0, kCpu0,
                             MemoryKind::kPageable)
                   .ok());
  EXPECT_FALSE(model_
                   .Validate(TransferMethod::kPinnedCopy, kGpu0, kCpu0,
                             MemoryKind::kPageable)
                   .ok());
  EXPECT_FALSE(model_
                   .Validate(TransferMethod::kUmPrefetch, kGpu0, kCpu0,
                             MemoryKind::kPageable)
                   .ok());
}

TEST_F(TransferModelIbmTest, NvlinkIngestOrdering) {
  // Fig. 12, NVLink column: Coherence ~ Zero-Copy > Pinned Copy > Dynamic
  // Pinning > Staged Copy > Pageable Copy > UM methods.
  auto bw = [&](TransferMethod m) {
    return model_.IngestBandwidth(m, kGpu0, kCpu0).value();
  };
  const BytesPerSecond coherence = bw(TransferMethod::kCoherence);
  const BytesPerSecond zero_copy = bw(TransferMethod::kZeroCopy);
  const BytesPerSecond pinned = bw(TransferMethod::kPinnedCopy);
  const BytesPerSecond dynamic = bw(TransferMethod::kDynamicPinning);
  const BytesPerSecond staged = bw(TransferMethod::kStagedCopy);
  const BytesPerSecond pageable = bw(TransferMethod::kPageableCopy);
  const BytesPerSecond um_prefetch = bw(TransferMethod::kUmPrefetch);
  const BytesPerSecond um_migration = bw(TransferMethod::kUmMigration);

  EXPECT_NEAR(coherence / zero_copy, 1.0, 0.02);
  EXPECT_GT(zero_copy.bytes_per_second(), pinned.bytes_per_second());
  EXPECT_GT(pinned.bytes_per_second(), dynamic.bytes_per_second());
  EXPECT_GT(dynamic.bytes_per_second(), staged.bytes_per_second());
  EXPECT_GT(staged.bytes_per_second(), pageable.bytes_per_second());
  EXPECT_GT(pageable.bytes_per_second(), um_prefetch.bytes_per_second());
  EXPECT_GT(um_prefetch.bytes_per_second(), um_migration.bytes_per_second());
  // Coherence saturates the link: 63 GiB/s measured (Fig. 3a).
  EXPECT_NEAR(ToGiBPerSecond(coherence), 63.0, 2.0);
}

TEST_F(TransferModelIntelTest, PcieIngestOrdering) {
  // Fig. 12, PCI-e column: Zero-Copy ~ Pinned ~ Staged > UM Prefetch >
  // Pageable ~ Dynamic Pinning ~ UM Migration.
  auto bw = [&](TransferMethod m) {
    return model_.IngestBandwidth(m, kGpu0, kCpu0).value();
  };
  const BytesPerSecond zero_copy = bw(TransferMethod::kZeroCopy);
  const BytesPerSecond pinned = bw(TransferMethod::kPinnedCopy);
  const BytesPerSecond staged = bw(TransferMethod::kStagedCopy);
  const BytesPerSecond um_prefetch = bw(TransferMethod::kUmPrefetch);
  const BytesPerSecond pageable = bw(TransferMethod::kPageableCopy);
  const BytesPerSecond dynamic = bw(TransferMethod::kDynamicPinning);
  const BytesPerSecond um_migration = bw(TransferMethod::kUmMigration);

  EXPECT_NEAR(ToGiBPerSecond(zero_copy), 12.0, 0.5);
  EXPECT_NEAR(pinned / zero_copy, 1.0, 0.05);
  // Sec. 7.2.1: Staged Copy is within 5% of Zero Copy on PCI-e.
  EXPECT_GT(staged / zero_copy, 0.93);
  EXPECT_LT(um_prefetch.bytes_per_second(),
            0.8 * zero_copy.bytes_per_second());
  EXPECT_LT(pageable.bytes_per_second(), 0.5 * zero_copy.bytes_per_second());
  EXPECT_LT(dynamic.bytes_per_second(), 0.5 * zero_copy.bytes_per_second());
  EXPECT_LT(um_migration.bytes_per_second(),
            0.5 * zero_copy.bytes_per_second());
}

TEST_F(TransferModelIbmTest, NvlinkBeatsPcieForEveryCommonMethod) {
  hw::SystemProfile intel = hw::XeonProfile();
  TransferModel pcie_model(&intel);
  for (TransferMethod method : kAllTransferMethods) {
    if (method == TransferMethod::kCoherence) continue;
    if (method == TransferMethod::kUmPrefetch ||
        method == TransferMethod::kUmMigration) {
      // Fig. 12 footnote: the POWER9 UM driver path underperforms x86-64;
      // these are the only two methods where NVLink loses.
      continue;
    }
    const BytesPerSecond nvlink =
        model_.IngestBandwidth(method, kGpu0, kCpu0).value();
    const BytesPerSecond pcie =
        pcie_model.IngestBandwidth(method, kGpu0, kCpu0).value();
    EXPECT_GT(nvlink.bytes_per_second(), pcie.bytes_per_second())
        << TransferMethodToString(method);
  }
}

TEST_F(TransferModelIbmTest, TransferTimeScalesWithBytes) {
  const Seconds t1 = model_
                         .TransferTime(TransferMethod::kCoherence, kGpu0,
                                       kCpu0, Bytes::GiB(1))
                         .value();
  const Seconds t2 = model_
                         .TransferTime(TransferMethod::kCoherence, kGpu0,
                                       kCpu0, Bytes::GiB(2))
                         .value();
  EXPECT_NEAR(t2 / t1, 2.0, 0.05);
}

// ---------------------------------------------------------------------------
// Functional executor.

class ExecutorTest : public ::testing::TestWithParam<TransferMethod> {
 protected:
  static constexpr std::uint64_t kBytes = 256 * 1024;
  static constexpr std::uint64_t kChunk = 64 * 1024;
  static constexpr std::uint64_t kPage = 4 * 1024;

  Buffer MakeSource() {
    Buffer src(kBytes, TraitsOf(GetParam()).required_memory,
               {Extent{kCpu0, kBytes}});
    for (std::uint64_t i = 0; i < kBytes; ++i) {
      src.data()[i] = static_cast<std::byte>(i * 31 + 7);
    }
    return src;
  }
};

TEST_P(ExecutorTest, MovesOrExposesAllBytes) {
  const TransferMethod method = GetParam();
  Buffer src = MakeSource();
  Buffer dst(kBytes, MemoryKind::kDevice, {Extent{kGpu0, kBytes}});
  memory::UnifiedRegion region(kBytes, kPage, kCpu0);

  std::uint64_t chunk_bytes_seen = 0;
  Result<TransferStats> stats = ExecuteTransfer(
      method, src, &dst, kGpu0, kChunk, kPage, &region,
      [&](std::uint64_t, std::uint64_t len) { chunk_bytes_seen += len; });
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_EQ(chunk_bytes_seen, kBytes);
  EXPECT_EQ(stats.value().chunks, kBytes / kChunk);

  if (TraitsOf(method).semantics == Semantics::kPush) {
    EXPECT_EQ(stats.value().bytes_copied, kBytes);
    EXPECT_EQ(std::memcmp(src.data(), dst.data(), kBytes), 0);
  } else {
    EXPECT_TRUE(stats.value().direct_access);
  }
}

INSTANTIATE_TEST_SUITE_P(AllMethods, ExecutorTest,
                         ::testing::ValuesIn(kAllTransferMethods),
                         [](const auto& info) {
                           std::string name =
                               TransferMethodToString(info.param);
                           for (char& c : name) {
                             if (!std::isalnum(static_cast<unsigned char>(c)))
                               c = '_';
                           }
                           return name;
                         });

TEST(ExecutorDetailTest, StagedCopyCountsStagingBytes) {
  Buffer src(8192, MemoryKind::kPageable, {Extent{kCpu0, 8192}});
  Buffer dst(8192, MemoryKind::kDevice, {Extent{kGpu0, 8192}});
  auto stats = ExecuteTransfer(TransferMethod::kStagedCopy, src, &dst, kGpu0,
                               4096, 4096);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.value().staged_bytes, 8192u);
}

TEST(ExecutorDetailTest, DynamicPinningCountsPages) {
  Buffer src(64 * 1024, MemoryKind::kPageable, {Extent{kCpu0, 64 * 1024}});
  Buffer dst(64 * 1024, MemoryKind::kDevice, {Extent{kGpu0, 64 * 1024}});
  auto stats = ExecuteTransfer(TransferMethod::kDynamicPinning, src, &dst,
                               kGpu0, 16 * 1024, 4 * 1024);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.value().pages_pinned, 16u);
}

TEST(ExecutorDetailTest, UmMigrationMovesResidency) {
  Buffer src(64 * 1024, MemoryKind::kUnified, {Extent{kCpu0, 64 * 1024}});
  memory::UnifiedRegion region(64 * 1024, 4 * 1024, kCpu0);
  auto stats = ExecuteTransfer(TransferMethod::kUmMigration, src, nullptr,
                               kGpu0, 16 * 1024, 4 * 1024, &region);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.value().pages_migrated, 16u);
  EXPECT_EQ(region.PagesOn(kGpu0), 16u);
}

TEST(ExecutorDetailTest, UmMethodsRequireRegion) {
  Buffer src(4096, MemoryKind::kUnified, {Extent{kCpu0, 4096}});
  Buffer dst(4096, MemoryKind::kDevice, {Extent{kGpu0, 4096}});
  EXPECT_FALSE(ExecuteTransfer(TransferMethod::kUmPrefetch, src, &dst, kGpu0,
                               4096, 4096, nullptr)
                   .ok());
}

TEST(ExecutorDetailTest, PushNeedsDestination) {
  Buffer src(4096, MemoryKind::kPinned, {Extent{kCpu0, 4096}});
  EXPECT_FALSE(ExecuteTransfer(TransferMethod::kPinnedCopy, src, nullptr,
                               kGpu0, 4096, 4096)
                   .ok());
  Buffer small(1024, MemoryKind::kDevice, {Extent{kGpu0, 1024}});
  EXPECT_FALSE(ExecuteTransfer(TransferMethod::kPinnedCopy, src, &small,
                               kGpu0, 4096, 4096)
                   .ok());
}

TEST(ExecutorDetailTest, PullReadsInPlaceChunkByChunk) {
  // A ragged byte count: the last chunk is partial.
  constexpr std::uint64_t kBytes = 100 * 1000 + 7;
  constexpr std::uint64_t kChunk = 4096;
  for (const TransferMethod method :
       {TransferMethod::kZeroCopy, TransferMethod::kCoherence}) {
    SCOPED_TRACE(TransferMethodToString(method));
    std::uint64_t landed = 0;
    auto stats = ExecutePull(method, kBytes, kGpu0, kChunk, {},
                             [&](std::uint64_t offset, std::uint64_t len) {
                               EXPECT_EQ(offset, landed);
                               landed += len;
                             });
    ASSERT_TRUE(stats.ok()) << stats.status();
    EXPECT_EQ(stats.value().bytes_copied, 0u);
    EXPECT_TRUE(stats.value().direct_access);
    EXPECT_EQ(stats.value().chunks, (kBytes + kChunk - 1) / kChunk);
    EXPECT_EQ(landed, kBytes);
  }
}

TEST(ExecutorDetailTest, PullRetriesTransientChunkFaults) {
  fault::FaultInjector injector(/*seed=*/5);
  fault::FaultSpec transient;
  transient.probability = 0.3;
  injector.Arm(fault::kTransferChunk, transient);
  TransferFaultOptions faults{&injector, {}};
  faults.retry.max_attempts = 30;
  auto stats = ExecutePull(TransferMethod::kCoherence, 64 * 4096, kGpu0,
                           4096, faults);
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_EQ(stats.value().chunks, 64u);
  EXPECT_GT(stats.value().retries, 0u);
  EXPECT_EQ(stats.value().retries, stats.value().faults_injected);
}

TEST(ExecutorDetailTest, PullRejectsPushMethodsAndZeroChunk) {
  EXPECT_FALSE(
      ExecutePull(TransferMethod::kPinnedCopy, 4096, kGpu0, 4096).ok());
  EXPECT_FALSE(
      ExecutePull(TransferMethod::kUmMigration, 4096, kGpu0, 4096).ok());
  EXPECT_FALSE(ExecutePull(TransferMethod::kCoherence, 4096, kGpu0, 0).ok());
}

TEST(ExecutorDetailTest, RejectsZeroChunk) {
  Buffer src(4096, MemoryKind::kPinned, {Extent{kCpu0, 4096}});
  Buffer dst(4096, MemoryKind::kDevice, {Extent{kGpu0, 4096}});
  EXPECT_FALSE(ExecuteTransfer(TransferMethod::kPinnedCopy, src, &dst, kGpu0,
                               0, 4096)
                   .ok());
}

}  // namespace
}  // namespace pump::transfer
