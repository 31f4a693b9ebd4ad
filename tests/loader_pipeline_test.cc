// Tests for the staged LoaderPipeline: stage-stats accounting, Status
// propagation from the I/O and decode stages, shutdown with full and empty
// queues, end-of-stream epoch semantics, and shuffle determinism (every
// record delivered exactly once per epoch regardless of thread count). The
// LoaderExecutor cases run several streams on one shared executor: mixed
// decoded and compressed streams, an idle consumer, stalled storage, and a
// source call blocked across Stop().
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>

#include "core/pcr_dataset.h"
#include "core/sharded_record_source.h"
#include "image/image.h"
#include "jpeg/codec.h"
#include "loader/decode_cache.h"
#include "loader/pipeline.h"
#include "storage/fault_env.h"
#include "storage/sim_env.h"
#include "util/logging.h"

namespace pcr {
namespace {

std::string MakeTestJpeg() {
  Image img(32, 24, 3);
  for (int y = 0; y < img.height(); ++y) {
    for (int x = 0; x < img.width(); ++x) {
      img.set(x, y, 0, static_cast<uint8_t>(x * 8));
      img.set(x, y, 1, static_cast<uint8_t>(y * 10));
      img.set(x, y, 2, 128);
    }
  }
  jpeg::EncodeOptions options;
  options.quality = 85;
  return jpeg::Encode(img, options).MoveValue();
}

/// RecordSource over a private in-memory SimEnv, with injectable failures
/// and I/O latency. Fetches flow through the real plan/submit/complete path
/// (SimEnv's IoScheduler against a RAM-speed device on the real clock), so
/// these tests exercise the pipeline's actual async machinery.
class FakeSource : public RecordSource {
 public:
  FakeSource(int num_records, int images_per_record)
      : num_records_(num_records), images_per_record_(images_per_record),
        env_(std::make_unique<SimEnv>(DeviceProfile::Ram(),
                                      RealClock::Get())),
        jpeg_(MakeTestJpeg()) {
    for (int r = 0; r < num_records_; ++r) {
      const std::string payload(
          RecordReadBytes(r, num_scan_groups()), 'x');
      PCR_CHECK(
          env_->WriteStringToFile(RecordPath(r), Slice(payload)).ok());
    }
  }

  int num_records() const override { return num_records_; }
  int num_images() const override {
    return num_records_ * images_per_record_;
  }
  int num_scan_groups() const override { return 4; }
  uint64_t RecordReadBytes(int, int scan_group) const override {
    return 256 * static_cast<uint64_t>(std::clamp(scan_group, 1, 4));
  }
  int RecordImages(int) const override { return images_per_record_; }
  std::string format_name() const override { return "fake"; }
  uint64_t total_bytes() const override {
    return num_records_ * RecordReadBytes(0, 4);
  }

  using RecordSource::PlanFetch;
  Result<FetchPlan> PlanFetch(int record, int scan_group,
                              const FetchResident* resident) const override {
    if (fetch_delay_.count() > 0) std::this_thread::sleep_for(fetch_delay_);
    if (record == fail_fetch_at_) {
      return fetch_failure_;
    }
    FetchPlan plan;
    plan.record = record;
    plan.scan_group = std::clamp(scan_group, 1, num_scan_groups());
    plan.env = env_.get();
    const uint64_t want = RecordReadBytes(record, plan.scan_group);
    // Mirror PcrDataset's residency contract: a usable in-memory prefix
    // (groups are byte prefixes of deeper groups here too) shrinks the
    // fetch to the delta bytes.
    uint64_t covered = 0;
    if (resident != nullptr && resident->bytes != nullptr &&
        resident->scan_group >= 1) {
      const uint64_t have = RecordReadBytes(
          record, std::min(resident->scan_group, num_scan_groups()));
      if (resident->bytes->size() >= have) covered = std::min(have, want);
    }
    if (covered > 0) {
      plan.resident_bytes = resident->bytes;
      plan.segments.push_back(
          FetchSegment{RecordPath(record), 0, covered, /*resident=*/true});
      if (covered < want) {
        plan.segments.push_back(FetchSegment{RecordPath(record), covered,
                                             want - covered,
                                             /*resident=*/false});
      }
    } else {
      plan.segments.push_back(FetchSegment{RecordPath(record), 0, want});
    }
    return plan;
  }

  Result<RecordBatch> AssembleRecord(RawRecord raw) const override {
    if (raw.record == fail_assemble_at_) {
      return Status::Corruption("injected assemble failure");
    }
    RecordBatch batch;
    batch.bytes_read = raw.bytes_read;
    batch.backing = raw.record == corrupt_jpeg_at_ ? "not a jpeg" : jpeg_;
    for (int i = 0; i < images_per_record_; ++i) {
      batch.labels.push_back(raw.record);
      // Every image of the record shares the one backing stream.
      batch.spans.push_back(ByteSpan{0, batch.backing.size()});
    }
    return batch;
  }

  void set_fail_fetch_at(int record) { fail_fetch_at_ = record; }
  void set_fetch_failure(Status status) {
    fetch_failure_ = std::move(status);
  }
  void set_fail_assemble_at(int record) { fail_assemble_at_ = record; }
  void set_corrupt_jpeg_at(int record) { corrupt_jpeg_at_ = record; }
  void set_fetch_delay(std::chrono::milliseconds delay) {
    fetch_delay_ = delay;
  }

 private:
  static std::string RecordPath(int record) {
    return "fake/record-" + std::to_string(record);
  }

  int num_records_;
  int images_per_record_;
  std::unique_ptr<SimEnv> env_;
  std::string jpeg_;
  int fail_fetch_at_ = -1;
  Status fetch_failure_ = Status::IOError("injected fetch failure");
  int fail_assemble_at_ = -1;
  int corrupt_jpeg_at_ = -1;
  std::chrono::milliseconds fetch_delay_{0};
};

TEST(LoaderPipelineTest, DeliversEveryRecordExactlyOncePerEpoch) {
  FakeSource source(48, 2);
  LoaderPipelineOptions options;
  options.io_threads = 8;
  options.decode_threads = 8;
  options.output_queue_depth = 4;
  options.shuffle = true;
  options.max_epochs = 2;
  LoaderPipeline pipeline(&source, options);

  std::map<int, int> deliveries;
  for (;;) {
    auto batch = pipeline.Next();
    if (!batch.ok()) {
      EXPECT_EQ(batch.status().code(), StatusCode::kOutOfRange)
          << batch.status();
      break;
    }
    EXPECT_EQ(batch->size(), 2);
    EXPECT_EQ(static_cast<int>(batch->images.size()), 2);
    ++deliveries[batch->record_index];
  }
  ASSERT_EQ(deliveries.size(), 48u);
  for (const auto& [record, count] : deliveries) {
    EXPECT_EQ(count, 2) << "record " << record;
  }
  EXPECT_EQ(pipeline.batches_delivered(), 96);
  EXPECT_TRUE(pipeline.status().ok());
}

TEST(LoaderPipelineTest, StageStatsAccountForEveryItemAndByte) {
  FakeSource source(24, 2);
  LoaderPipelineOptions options;
  options.io_threads = 3;
  options.decode_threads = 2;
  options.max_epochs = 1;
  options.shuffle = false;
  options.scan_policy = std::make_shared<FixedScanPolicy>(2);
  LoaderPipeline pipeline(&source, options);

  uint64_t consumed_bytes = 0;
  int batches = 0;
  for (;;) {
    auto batch = pipeline.Next();
    if (!batch.ok()) break;
    consumed_bytes += batch->bytes_read;
    ++batches;
  }
  EXPECT_EQ(batches, 24);

  const StageStatsSnapshot io = pipeline.io_stats();
  const StageStatsSnapshot decode = pipeline.decode_stats();
  EXPECT_EQ(io.name, "io");
  EXPECT_EQ(io.threads, 3);
  EXPECT_EQ(io.items, 24);
  EXPECT_EQ(io.bytes, consumed_bytes);
  EXPECT_EQ(io.bytes, 24u * source.RecordReadBytes(0, 2));
  EXPECT_EQ(decode.name, "decode");
  EXPECT_EQ(decode.threads, 2);
  EXPECT_EQ(decode.items, 24);
  EXPECT_EQ(decode.bytes, consumed_bytes);
  EXPECT_GT(decode.busy_seconds, 0.0);  // 48 real JPEG decodes.
  EXPECT_GE(io.busy_seconds, 0.0);
  EXPECT_GT(io.queue_capacity, 0u);
  EXPECT_GT(decode.queue_capacity, 0u);
  // All stall time is attributed to exactly one of the two stages.
  EXPECT_DOUBLE_EQ(
      pipeline.stall_seconds(),
      pipeline.io_stall_seconds() + pipeline.decode_stall_seconds());
}

TEST(LoaderPipelineTest, FetchFailureSurfacesFromNext) {
  FakeSource source(16, 1);
  source.set_fail_fetch_at(5);
  LoaderPipelineOptions options;
  options.io_threads = 2;
  options.decode_threads = 2;
  options.shuffle = false;
  LoaderPipeline pipeline(&source, options);

  Status failure = Status::OK();
  for (int i = 0; i < 64; ++i) {
    auto batch = pipeline.Next();
    if (!batch.ok()) {
      failure = batch.status();
      break;
    }
  }
  ASSERT_FALSE(failure.ok()) << "fetch failure never surfaced";
  EXPECT_TRUE(failure.IsIOError()) << failure;
  EXPECT_NE(failure.message().find("injected fetch failure"),
            std::string::npos)
      << failure;
  EXPECT_NE(failure.message().find("I/O stage"), std::string::npos) << failure;
  EXPECT_EQ(pipeline.status(), failure);
}

TEST(LoaderPipelineTest, AssembleFailureSurfacesFromNext) {
  FakeSource source(16, 1);
  source.set_fail_assemble_at(3);
  LoaderPipelineOptions options;
  options.shuffle = false;
  LoaderPipeline pipeline(&source, options);

  Status failure = Status::OK();
  for (int i = 0; i < 64; ++i) {
    auto batch = pipeline.Next();
    if (!batch.ok()) {
      failure = batch.status();
      break;
    }
  }
  ASSERT_FALSE(failure.ok()) << "assemble failure never surfaced";
  EXPECT_TRUE(failure.IsCorruption()) << failure;
  EXPECT_NE(failure.message().find("decode stage"), std::string::npos)
      << failure;
}

TEST(LoaderPipelineTest, JpegDecodeFailureSurfacesFromNext) {
  FakeSource source(16, 1);
  source.set_corrupt_jpeg_at(2);
  LoaderPipelineOptions options;
  options.shuffle = false;
  LoaderPipeline pipeline(&source, options);

  Status failure = Status::OK();
  for (int i = 0; i < 64; ++i) {
    auto batch = pipeline.Next();
    if (!batch.ok()) {
      failure = batch.status();
      break;
    }
  }
  ASSERT_FALSE(failure.ok()) << "decode failure never surfaced";
  EXPECT_NE(failure.message().find("decode stage"), std::string::npos)
      << failure;
}

TEST(LoaderPipelineTest, StopWithFullQueuesDoesNotHang) {
  FakeSource source(64, 1);
  LoaderPipelineOptions options;
  options.io_threads = 4;
  options.decode_threads = 4;
  options.output_queue_depth = 1;
  LoaderPipeline pipeline(&source, options);
  // Consume nothing: the stream's credit runs out and every worker parks.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  pipeline.Stop();
  auto batch = pipeline.Next();
  // Queued batches may drain first; a stopped pipeline ends in Aborted.
  while (batch.ok()) batch = pipeline.Next();
  EXPECT_EQ(batch.status().code(), StatusCode::kAborted) << batch.status();
}

TEST(LoaderPipelineTest, StopWithEmptyQueuesDoesNotHang) {
  FakeSource source(64, 1);
  source.set_fetch_delay(std::chrono::milliseconds(20));
  LoaderPipelineOptions options;
  options.io_threads = 1;
  LoaderPipeline pipeline(&source, options);
  // Stop before the slow fetches deliver anything.
  pipeline.Stop();
  auto batch = pipeline.Next();
  while (batch.ok()) batch = pipeline.Next();
  EXPECT_EQ(batch.status().code(), StatusCode::kAborted) << batch.status();
}

TEST(LoaderPipelineTest, SlowStorageAttributesStallsToIo) {
  FakeSource source(8, 1);
  source.set_fetch_delay(std::chrono::milliseconds(5));
  LoaderPipelineOptions options;
  options.io_threads = 1;
  options.decode_threads = 2;
  options.max_epochs = 1;
  LoaderPipeline pipeline(&source, options);
  for (;;) {
    auto batch = pipeline.Next();
    if (!batch.ok()) break;
  }
  EXPECT_GT(pipeline.io_stall_seconds(), 0.0);
  EXPECT_GT(pipeline.stall_seconds(), 0.0);
}

TEST(LoaderPipelineTest, DecodeOffDeliversAssembledJpegs) {
  FakeSource source(6, 3);
  LoaderPipelineOptions options;
  options.decode = false;
  options.max_epochs = 1;
  LoaderPipeline pipeline(&source, options);
  int batches = 0;
  for (;;) {
    auto batch = pipeline.Next();
    if (!batch.ok()) break;
    EXPECT_EQ(batch->num_jpegs(), 3);
    EXPECT_GT(batch->jpeg(0).size(), 0u);
    EXPECT_TRUE(batch->images.empty());
    ++batches;
  }
  EXPECT_EQ(batches, 6);
}

TEST(LoaderPipelineTest, StopEndsTheStreamAbortedWithAHealthyStatus) {
  FakeSource source(32, 2);
  LoaderPipelineOptions options;
  options.io_threads = 2;
  options.decode_threads = 2;
  options.output_queue_depth = 4;
  options.scan_policy = std::make_shared<FixedScanPolicy>(1);
  LoaderPipeline pipeline(&source, options);
  for (int i = 0; i < 12; ++i) {
    auto batch = pipeline.Next();
    ASSERT_TRUE(batch.ok()) << batch.status();
    EXPECT_EQ(batch->scan_group, 1);
    EXPECT_GT(batch->size(), 0);
  }
  pipeline.Stop();
  auto stopped = pipeline.Next();
  while (stopped.ok()) stopped = pipeline.Next();
  // Stop() is the only Aborted end that leaves the pipeline's status OK.
  EXPECT_EQ(stopped.status().code(), StatusCode::kAborted) << stopped.status();
  EXPECT_TRUE(pipeline.status().ok()) << pipeline.status();
  EXPECT_GE(pipeline.batches_delivered(), 12);
  EXPECT_GE(pipeline.io_stats().items, 12);
  EXPECT_GE(pipeline.decode_stats().items, 12);
  EXPECT_DOUBLE_EQ(pipeline.stall_seconds(), pipeline.io_stall_seconds() +
                                                 pipeline.decode_stall_seconds());
}

TEST(LoaderPipelineTest, PrefetchPassesThroughAbortedStageFailures) {
  // An Aborted-coded *storage* failure keeps its own message and becomes the
  // pipeline's status, which tells it apart from a Stop().
  FakeSource source(16, 1);
  source.set_fail_fetch_at(0);
  source.set_fetch_failure(Status::Aborted("lease lost on shard"));
  LoaderPipelineOptions options;
  options.shuffle = false;
  LoaderPipeline pipeline(&source, options);
  auto batch = pipeline.Next();
  while (batch.ok()) batch = pipeline.Next();
  EXPECT_NE(batch.status().message().find("lease lost on shard"),
            std::string::npos)
      << batch.status();
  EXPECT_FALSE(pipeline.status().ok());
}

TEST(LoaderPipelineTest, SecondEpochIsServedEntirelyFromTheCache) {
  FakeSource source(12, 2);
  DecodeCacheOptions cache_options;
  cache_options.capacity_bytes = 64ull << 20;
  cache_options.shards = 4;
  auto cache = std::make_shared<DecodeCache>(cache_options);
  const uint64_t dataset_id = cache->RegisterDataset();

  auto run_epoch = [&](std::map<int, LoadedBatch>* batches) {
    LoaderPipelineOptions options;
    options.io_threads = 2;
    options.decode_threads = 2;
    options.max_epochs = 1;
    options.scan_policy = std::make_shared<FixedScanPolicy>(2);
    options.decode_cache = cache;
    options.cache_dataset_id = dataset_id;
    LoaderPipeline pipeline(&source, options);
    for (;;) {
      auto batch = pipeline.Next();
      if (!batch.ok()) {
        EXPECT_EQ(batch.status().code(), StatusCode::kOutOfRange)
            << batch.status();
        break;
      }
      batches->emplace(batch->record_index, std::move(batch).MoveValue());
    }
    return std::make_pair(pipeline.io_stats(), pipeline.decode_stats());
  };

  std::map<int, LoadedBatch> first, second;
  const auto [io1, decode1] = run_epoch(&first);
  EXPECT_EQ(io1.cache_hits, 0);
  EXPECT_EQ(io1.cache_misses, 12);
  EXPECT_EQ(decode1.items, 12);
  EXPECT_GT(io1.cache_bytes, 0u);  // Occupancy reported via the snapshot.

  const auto [io2, decode2] = run_epoch(&second);
  EXPECT_EQ(io2.cache_hits, 12);  // No fetch, no decode in epoch 2.
  EXPECT_EQ(io2.cache_misses, 0);
  EXPECT_EQ(io2.items, 0);
  EXPECT_EQ(decode2.items, 0);

  // Cache-served batches are pixel-identical to decoded ones.
  ASSERT_EQ(first.size(), 12u);
  ASSERT_EQ(second.size(), 12u);
  for (const auto& [record, batch] : first) {
    const LoadedBatch& cached = second.at(record);
    ASSERT_EQ(cached.size(), batch.size());
    EXPECT_EQ(cached.labels, batch.labels);
    for (int i = 0; i < batch.size(); ++i) {
      ASSERT_TRUE(cached.images[i].SameShape(batch.images[i]));
      EXPECT_EQ(std::memcmp(cached.images[i].data(), batch.images[i].data(),
                            batch.images[i].size_bytes()),
                0);
    }
  }
}

TEST(LoaderPipelineTest, CachedMultiEpochStreamKeepsExactlyOnceSemantics) {
  FakeSource source(16, 1);
  LoaderPipelineOptions options;
  options.io_threads = 4;
  options.decode_threads = 4;
  options.max_epochs = 3;
  options.decode_cache_bytes = 64ull << 20;  // Private cache.
  options.scan_policy = std::make_shared<FixedScanPolicy>(1);
  LoaderPipeline pipeline(&source, options);
  ASSERT_NE(pipeline.decode_cache(), nullptr);

  std::map<int, int> deliveries;
  for (;;) {
    auto batch = pipeline.Next();
    if (!batch.ok()) {
      EXPECT_EQ(batch.status().code(), StatusCode::kOutOfRange)
          << batch.status();
      break;
    }
    ++deliveries[batch->record_index];
  }
  // The cache must not duplicate or swallow deliveries: exactly once per
  // epoch per record, ending in OutOfRange.
  ASSERT_EQ(deliveries.size(), 16u);
  for (const auto& [record, count] : deliveries) {
    EXPECT_EQ(count, 3) << "record " << record;
  }
  // How many epoch-2/3 tickets hit depends on how far prefetch races past
  // the first epoch's inserts — any count can lose that race under load, so
  // assert the scheduling-independent accounting instead: every ticket is
  // either a hit or a miss, and exactly the misses get decoded. The
  // hit-dominated steady state is covered deterministically by
  // SecondEpochIsServedEntirelyFromTheCache.
  EXPECT_EQ(pipeline.io_stats().cache_hits + pipeline.io_stats().cache_misses,
            48);
  EXPECT_EQ(pipeline.decode_stats().items, pipeline.io_stats().cache_misses);
  EXPECT_TRUE(pipeline.status().ok());
}

TEST(LoaderPipelineTest, OversizeBatchesStreamWithoutCaching) {
  FakeSource source(6, 2);
  LoaderPipelineOptions options;
  options.max_epochs = 2;
  options.decode_cache_bytes = 1024;  // Every decoded batch exceeds a shard.
  options.decode_cache_shards = 1;
  options.scan_policy = std::make_shared<FixedScanPolicy>(1);
  LoaderPipeline pipeline(&source, options);

  std::map<int, int> deliveries;
  for (;;) {
    auto batch = pipeline.Next();
    if (!batch.ok()) break;
    ++deliveries[batch->record_index];
  }
  ASSERT_EQ(deliveries.size(), 6u);
  for (const auto& [record, count] : deliveries) {
    EXPECT_EQ(count, 2) << "record " << record;
  }
  // Nothing admitted: both epochs decode, the cache stays empty.
  EXPECT_EQ(pipeline.io_stats().cache_hits, 0);
  EXPECT_EQ(pipeline.decode_stats().items, 12);
  EXPECT_EQ(pipeline.decode_cache()->stats().entries, 0);
}

TEST(LoaderPipelineTest, DecodeOffDisablesTheCache) {
  FakeSource source(4, 1);
  LoaderPipelineOptions options;
  options.decode = false;
  options.decode_cache_bytes = 1ull << 20;
  options.max_epochs = 1;
  LoaderPipeline pipeline(&source, options);
  EXPECT_EQ(pipeline.decode_cache(), nullptr);
  for (;;) {
    auto batch = pipeline.Next();
    if (!batch.ok()) break;
    EXPECT_TRUE(batch->images.empty());
  }
}

TEST(LoaderPipelineTest, SetScanPolicySwitchesLiveStream) {
  FakeSource source(64, 1);
  LoaderPipelineOptions options;
  options.io_threads = 1;  // Small pipeline: the swap surfaces quickly.
  options.decode_threads = 1;
  options.output_queue_depth = 1;
  options.max_epochs = 4;
  options.scan_policy = std::make_shared<FixedScanPolicy>(1);
  LoaderPipeline pipeline(&source, options);

  auto first = pipeline.Next();
  ASSERT_TRUE(first.ok()) << first.status();
  EXPECT_EQ(first->scan_group, 1);

  pipeline.set_scan_policy(std::make_shared<FixedScanPolicy>(3));
  bool saw_new_group = false;
  for (;;) {
    auto batch = pipeline.Next();
    if (!batch.ok()) break;
    if (batch->scan_group == 3) {
      saw_new_group = true;
      pipeline.Stop();
      break;
    }
  }
  EXPECT_TRUE(saw_new_group) << "live policy swap never took effect";
}

TEST(LoaderPipelineTest, SharedCacheHitsAcrossPipelinesOnlyAtTheSameGroup) {
  FakeSource source(8, 2);
  DecodeCacheOptions cache_options;
  cache_options.capacity_bytes = 16ull << 20;
  auto cache = std::make_shared<DecodeCache>(cache_options);
  const uint64_t dataset_id = cache->RegisterDataset();

  // One epoch at `group` through a fresh pipeline over the shared cache.
  auto run_epoch = [&](int group, std::map<int, LoadedBatch>* batches) {
    LoaderPipelineOptions options;
    options.max_epochs = 1;
    options.scan_policy = std::make_shared<FixedScanPolicy>(group);
    options.decode_cache = cache;
    options.cache_dataset_id = dataset_id;
    LoaderPipeline pipeline(&source, options);
    for (;;) {
      auto batch = pipeline.Next();
      if (!batch.ok()) {
        EXPECT_EQ(batch.status().code(), StatusCode::kOutOfRange)
            << batch.status();
        break;
      }
      batches->emplace(batch->record_index, std::move(batch).MoveValue());
    }
    return pipeline.io_stats();
  };

  std::map<int, LoadedBatch> first, again, other;
  EXPECT_EQ(run_epoch(2, &first).cache_hits, 0);
  const StageStatsSnapshot hits = run_epoch(2, &again);
  EXPECT_EQ(hits.cache_hits, 8);
  EXPECT_EQ(hits.cache_misses, 0);
  ASSERT_EQ(again.size(), first.size());
  for (const auto& [record, batch] : first) {
    const LoadedBatch& hit = again.at(record);
    ASSERT_EQ(hit.size(), batch.size());
    for (int i = 0; i < batch.size(); ++i) {
      EXPECT_EQ(std::memcmp(hit.images[i].data(), batch.images[i].data(),
                            batch.images[i].size_bytes()),
                0);
    }
  }
  // A different scan group is a different key.
  const StageStatsSnapshot misses = run_epoch(1, &other);
  EXPECT_EQ(misses.cache_hits, 0);
  EXPECT_EQ(misses.cache_misses, 8);
}

TEST(LoaderPipelineTest, AsyncWindowDeliversExactlyOncePerEpoch) {
  // Deep submission windows on many workers must not duplicate or drop
  // tickets: 8 workers x 8 in flight against 64 records over 2 epochs.
  FakeSource source(64, 1);
  LoaderPipelineOptions options;
  options.io_threads = 8;
  options.io_inflight = 8;
  options.decode_threads = 4;
  options.output_queue_depth = 4;
  options.shuffle = true;
  options.max_epochs = 2;
  LoaderPipeline pipeline(&source, options);

  std::map<int, int> deliveries;
  for (;;) {
    auto batch = pipeline.Next();
    if (!batch.ok()) {
      EXPECT_EQ(batch.status().code(), StatusCode::kOutOfRange)
          << batch.status();
      break;
    }
    ++deliveries[batch->record_index];
  }
  ASSERT_EQ(deliveries.size(), 64u);
  for (const auto& [record, count] : deliveries) {
    EXPECT_EQ(count, 2) << "record " << record;
  }
  EXPECT_EQ(pipeline.batches_delivered(), 128);
  EXPECT_TRUE(pipeline.status().ok());
  EXPECT_EQ(pipeline.io_stats().items, 128);
}

TEST(LoaderPipelineTest, SubmissionWindowGaugesAreReported) {
  FakeSource source(32, 1);
  LoaderPipelineOptions options;
  options.io_threads = 1;
  options.io_inflight = 4;
  options.max_epochs = 1;
  LoaderPipeline pipeline(&source, options);
  for (;;) {
    auto batch = pipeline.Next();
    if (!batch.ok()) break;
  }
  const StageStatsSnapshot io = pipeline.io_stats();
  EXPECT_EQ(io.submission_window, 4);
  EXPECT_GT(io.mean_in_flight, 0.0);
  EXPECT_LE(io.mean_in_flight, 4.0);
  EXPECT_GT(io.submission_occupancy(), 0.0);
  EXPECT_LE(io.submission_occupancy(), 1.0);
  // The decode stage has no submission window.
  EXPECT_EQ(pipeline.decode_stats().submission_window, 0);
}

TEST(LoaderPipelineTest, WindowOfOneKeepsTheBlockingShape) {
  FakeSource source(24, 2);
  LoaderPipelineOptions options;
  options.io_threads = 2;
  options.io_inflight = 1;
  options.max_epochs = 1;
  LoaderPipeline pipeline(&source, options);
  int batches = 0;
  for (;;) {
    auto batch = pipeline.Next();
    if (!batch.ok()) break;
    ++batches;
  }
  EXPECT_EQ(batches, 24);
  const StageStatsSnapshot io = pipeline.io_stats();
  EXPECT_EQ(io.submission_window, 1);
  EXPECT_LE(io.mean_in_flight, 1.0);  // Never more than one read open.
}

TEST(LoaderPipelineTest, ShardedSourceStreamsThroughAsyncPipeline) {
  // Two shards (each with its own backend SimEnv inside FakeSource) behind
  // one pipeline: global numbering survives concurrency, and labels (the
  // shard-local record index) prove per-shard routing.
  std::vector<std::unique_ptr<RecordSource>> shards;
  shards.push_back(std::make_unique<FakeSource>(8, 1));
  shards.push_back(std::make_unique<FakeSource>(8, 1));
  auto sharded = ShardedRecordSource::Create(std::move(shards)).MoveValue();

  LoaderPipelineOptions options;
  options.io_threads = 4;
  options.io_inflight = 4;
  options.max_epochs = 2;
  LoaderPipeline pipeline(sharded.get(), options);

  std::map<int, int> deliveries;
  for (;;) {
    auto batch = pipeline.Next();
    if (!batch.ok()) {
      EXPECT_EQ(batch.status().code(), StatusCode::kOutOfRange)
          << batch.status();
      break;
    }
    ASSERT_EQ(batch->size(), 1);
    const int global = batch->record_index;
    const int local = global < 8 ? global : global - 8;
    EXPECT_EQ(batch->labels[0], local) << "record " << global;
    ++deliveries[global];
  }
  ASSERT_EQ(deliveries.size(), 16u);
  for (const auto& [record, count] : deliveries) {
    EXPECT_EQ(count, 2) << "record " << record;
  }
}

TEST(LoaderPipelineTest, ShardFailureSurfacesWithShardContext) {
  std::vector<std::unique_ptr<RecordSource>> shards;
  shards.push_back(std::make_unique<FakeSource>(4, 1));
  auto failing = std::make_unique<FakeSource>(4, 1);
  failing->set_fail_fetch_at(1);
  shards.push_back(std::move(failing));
  auto sharded = ShardedRecordSource::Create(std::move(shards)).MoveValue();

  LoaderPipelineOptions options;
  options.shuffle = false;
  options.io_inflight = 2;
  LoaderPipeline pipeline(sharded.get(), options);
  auto batch = pipeline.Next();
  while (batch.ok()) batch = pipeline.Next();
  EXPECT_TRUE(batch.status().IsIOError()) << batch.status();
  EXPECT_NE(batch.status().message().find("shard 1"), std::string::npos)
      << batch.status();
  EXPECT_NE(batch.status().message().find("injected fetch failure"),
            std::string::npos)
      << batch.status();
}

TEST(LoaderPipelineTest, SecondPassIsServedFromThePrefixCache) {
  FakeSource source(12, 2);
  auto cache = std::make_shared<PrefixCache>(PrefixCacheOptions{});
  const uint64_t dataset_id = cache->RegisterDataset();

  // One pipeline per pass over the shared cache: pass boundaries are then
  // deterministic (no ticket can race ahead of the pass that warms it).
  auto run_pass = [&](int scan_group) {
    LoaderPipelineOptions options;
    options.io_threads = 2;
    options.decode_threads = 2;
    options.max_epochs = 1;
    options.scan_policy = std::make_shared<FixedScanPolicy>(scan_group);
    options.prefix_cache = cache;
    options.prefix_dataset_id = dataset_id;
    LoaderPipeline pipeline(&source, options);
    int batches = 0;
    for (;;) {
      auto batch = pipeline.Next();
      if (!batch.ok()) break;
      EXPECT_EQ(batch->size(), 2);
      ++batches;
    }
    EXPECT_EQ(batches, 12);
    EXPECT_TRUE(pipeline.status().ok());
    return pipeline.io_stats();
  };

  const StageStatsSnapshot first = run_pass(2);
  EXPECT_EQ(first.prefix_hits, 0);
  EXPECT_EQ(first.prefix_misses, 12);
  EXPECT_EQ(first.bytes, 12u * source.RecordReadBytes(0, 2));

  // Same quality again: every plan is fully resident — records still flow
  // to decode, but storage serves zero bytes.
  const StageStatsSnapshot second = run_pass(2);
  EXPECT_EQ(second.prefix_hits, 12);
  EXPECT_EQ(second.prefix_misses, 0);
  EXPECT_EQ(second.items, 12);
  EXPECT_EQ(second.bytes, 0u);

  // A quality upgrade fetches only each record's delta bytes.
  const StageStatsSnapshot upgrade = run_pass(4);
  EXPECT_EQ(upgrade.prefix_hits, 12);
  EXPECT_EQ(upgrade.bytes,
            12u * (source.RecordReadBytes(0, 4) - source.RecordReadBytes(0, 2)));
}

TEST(LoaderPipelineTest, PrivatePrefixCacheTurnsEpochTwoIntoZeroIo) {
  FakeSource source(8, 1);
  LoaderPipelineOptions options;
  options.io_threads = 1;  // Serial I/O: epoch 2 cannot outrun the inserts.
  options.io_inflight = 1;
  options.output_queue_depth = 1;
  options.max_epochs = 2;
  options.shuffle = false;
  options.prefix_cache_bytes = 16ull << 20;  // Private per-pipeline cache.
  options.scan_policy = std::make_shared<FixedScanPolicy>(3);
  LoaderPipeline pipeline(&source, options);
  int batches = 0;
  for (;;) {
    auto batch = pipeline.Next();
    if (!batch.ok()) break;
    ++batches;
  }
  EXPECT_EQ(batches, 16);
  const StageStatsSnapshot io = pipeline.io_stats();
  EXPECT_EQ(io.prefix_hits + io.prefix_misses, 16);
  EXPECT_GE(io.prefix_hits, 8);  // All of epoch 2 at minimum.
  EXPECT_EQ(io.items, 16);
  // Epoch 2 is fully resident: only epoch 1's bytes touch storage.
  EXPECT_EQ(io.bytes, 8u * source.RecordReadBytes(0, 3));
}

TEST(LoaderPipelineTest, IoBackendGaugesAreReported) {
  FakeSource source(24, 1);
  LoaderPipelineOptions options;
  options.io_threads = 2;
  options.io_inflight = 4;
  options.io_submit_batch = 4;
  options.max_epochs = 1;
  LoaderPipeline pipeline(&source, options);
  for (;;) {
    auto batch = pipeline.Next();
    if (!batch.ok()) break;
  }
  const StageStatsSnapshot io = pipeline.io_stats();
  // FakeSource plans against a SimEnv, so its scheduler is the sim backend.
  EXPECT_EQ(io.io_backend, "sim");
  EXPECT_EQ(io.io_requests, 24);
  EXPECT_GE(io.io_segments, io.io_requests);
  EXPECT_GT(io.io_ops, 0);
  EXPECT_GT(io.io_submits, 0);
  EXPECT_GE(io.mean_submit_batch(), 1.0);
  // The simulated device issues no real syscalls.
  EXPECT_EQ(io.io_syscalls, 0);
  EXPECT_EQ(io.syscalls_per_record(), 0.0);
  // The decode stage carries no I/O gauges.
  EXPECT_EQ(pipeline.decode_stats().io_requests, 0);
}

TEST(LoaderPipelineTest, PrefetchErrorReplacesGenericAbort) {
  FakeSource source(16, 1);
  source.set_fail_fetch_at(0);
  LoaderPipelineOptions options;
  options.io_threads = 2;
  options.decode_threads = 2;
  options.shuffle = false;
  LoaderPipeline pipeline(&source, options);
  auto batch = pipeline.Next();
  while (batch.ok()) batch = pipeline.Next();
  EXPECT_TRUE(batch.status().IsIOError()) << batch.status();
  EXPECT_NE(batch.status().message().find("injected fetch failure"),
            std::string::npos)
      << batch.status();
}

// ------------------------------------------------------- LoaderExecutor

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// Drains `pipeline` to its end, counting deliveries per record.
Status DrainCounting(LoaderPipeline* pipeline, std::map<int, int>* deliveries,
                     bool decode) {
  for (;;) {
    auto batch = pipeline->Next();
    if (!batch.ok()) return batch.status();
    EXPECT_EQ(batch->images.empty(), !decode);
    EXPECT_EQ(batch->jpeg_backing.empty(), decode);
    ++(*deliveries)[batch->record_index];
  }
}

TEST(LoaderExecutorTest, DecodedAndCompressedStreamsShareOneExecutor) {
  FakeSource decoded_source(20, 2);
  FakeSource compressed_source(13, 3);
  LoaderPipelineOptions workers;
  workers.io_threads = 2;
  workers.io_inflight = 8;
  workers.decode_threads = 3;
  auto executor = std::make_shared<LoaderExecutor>(workers);

  constexpr int kEpochs = 3;
  LoaderPipelineOptions options;
  options.max_epochs = kEpochs;
  options.seed = 1;
  LoaderPipeline decoded(&decoded_source, options, executor);
  options.decode = false;
  options.seed = 2;
  LoaderPipeline compressed(&compressed_source, options, executor);

  std::map<int, int> decoded_seen;
  std::map<int, int> compressed_seen;
  Status decoded_end;
  std::thread other([&] {
    decoded_end = DrainCounting(&decoded, &decoded_seen, /*decode=*/true);
  });
  const Status compressed_end =
      DrainCounting(&compressed, &compressed_seen, /*decode=*/false);
  other.join();

  EXPECT_EQ(decoded_end.code(), StatusCode::kOutOfRange) << decoded_end;
  EXPECT_EQ(compressed_end.code(), StatusCode::kOutOfRange) << compressed_end;
  ASSERT_EQ(decoded_seen.size(), 20u);
  for (const auto& [record, count] : decoded_seen) {
    EXPECT_EQ(count, kEpochs) << "decoded record " << record;
  }
  ASSERT_EQ(compressed_seen.size(), 13u);
  for (const auto& [record, count] : compressed_seen) {
    EXPECT_EQ(count, kEpochs) << "compressed record " << record;
  }
  // Per-stream counters stay per stream; the workers are the executor's.
  EXPECT_EQ(decoded.io_stats().items, 20 * kEpochs);
  EXPECT_EQ(compressed.io_stats().items, 13 * kEpochs);
  EXPECT_EQ(decoded.decode_stats().items, 20 * kEpochs);
  EXPECT_EQ(compressed.io_stats().threads, 2);
  EXPECT_EQ(compressed.decode_stats().threads, 3);
}

TEST(LoaderExecutorTest, IdleConsumerDoesNotDelayOtherStreams) {
  // One I/O and one decode worker: if the idle stream's batches could block
  // either of them, the busy stream would never finish.
  FakeSource idle_source(64, 1);
  FakeSource busy_source(24, 1);
  LoaderPipelineOptions workers;
  workers.io_threads = 1;
  workers.decode_threads = 1;
  auto executor = std::make_shared<LoaderExecutor>(workers);

  LoaderPipelineOptions idle_options;
  idle_options.output_queue_depth = 2;
  LoaderPipeline idle(&idle_source, idle_options, executor);  // Never read.
  LoaderPipelineOptions busy_options;
  busy_options.max_epochs = 3;
  LoaderPipeline busy(&busy_source, busy_options, executor);

  const auto start = std::chrono::steady_clock::now();
  std::map<int, int> seen;
  const Status end = DrainCounting(&busy, &seen, /*decode=*/true);
  EXPECT_EQ(end.code(), StatusCode::kOutOfRange) << end;
  EXPECT_LT(SecondsSince(start), 10.0);
  ASSERT_EQ(seen.size(), 24u);
  for (const auto& [record, count] : seen) EXPECT_EQ(count, 3);

  // The idle stream took no more tickets than its credit, which its output
  // queue is sized to.
  const StageStatsSnapshot idle_io = idle.io_stats();
  EXPECT_GT(idle_io.items, 0);
  EXPECT_LE(static_cast<size_t>(idle_io.items),
            idle.decode_stats().queue_capacity);
  EXPECT_EQ(idle.batches_delivered(), 0);
}

/// Writes a PCR dataset of `num_images` test JPEGs into env:dir.
void WritePcrDataset(Env* env, const std::string& dir, int num_images) {
  PcrWriterOptions options;
  options.images_per_record = 2;
  auto writer = PcrDatasetWriter::Create(env, dir, options).MoveValue();
  const std::string jpeg = MakeTestJpeg();
  for (int i = 0; i < num_images; ++i) {
    ASSERT_TRUE(writer->AddImage(Slice(jpeg), i).ok());
  }
  ASSERT_TRUE(writer->Finish().ok());
}

TEST(LoaderExecutorTest, StalledStreamStopsPromptlyAndSparesOthers) {
  SimEnv base(DeviceProfile::Ram(), RealClock::Get());
  WritePcrDataset(&base, "stalled", 16);
  WritePcrDataset(&base, "healthy", 16);
  FaultRule stall;  // Every record read of the stalled dataset: 5 s late.
  stall.path_substring = "stalled/record-";
  stall.fail_first_n = 1'000'000;
  stall.code = StatusCode::kOk;
  stall.added_latency_sec = 5.0;
  FaultInjectionEnv faulty(&base, {stall});
  auto stalled_source = PcrDataset::Open(&faulty, "stalled").MoveValue();
  auto healthy_source = PcrDataset::Open(&faulty, "healthy").MoveValue();

  LoaderPipelineOptions workers;
  workers.io_threads = 1;
  workers.io_inflight = 4;
  workers.decode_threads = 2;
  auto executor = std::make_shared<LoaderExecutor>(workers);
  LoaderPipelineOptions options;
  options.io_inflight = 2;  // Half of the one worker's window each.
  options.max_epochs = 2;
  auto stalled = std::make_unique<LoaderPipeline>(stalled_source.get(),
                                                  options, executor);
  auto healthy = std::make_unique<LoaderPipeline>(healthy_source.get(),
                                                  options, executor);

  const auto start = std::chrono::steady_clock::now();
  std::map<int, int> seen;
  const Status end = DrainCounting(healthy.get(), &seen, /*decode=*/true);
  EXPECT_EQ(end.code(), StatusCode::kOutOfRange) << end;
  EXPECT_EQ(seen.size(), 8u);
  EXPECT_LT(SecondsSince(start), 4.0) << "waited out the stalled reads";
  EXPECT_EQ(stalled->batches_delivered(), 0);

  const auto stop_start = std::chrono::steady_clock::now();
  stalled->Stop();
  EXPECT_LT(SecondsSince(stop_start), 1.0);
  auto stopped = stalled->Next();
  EXPECT_EQ(stopped.status().code(), StatusCode::kAborted) << stopped.status();

  const auto teardown_start = std::chrono::steady_clock::now();
  stalled.reset();
  healthy.reset();
  executor.reset();  // Abandons the stalled reads still in flight.
  EXPECT_LT(SecondsSince(teardown_start), 2.0);
}

/// A FakeSource whose first AssembleRecord blocks until Release().
class LatchedSource : public FakeSource {
 public:
  using FakeSource::FakeSource;

  Result<RecordBatch> AssembleRecord(RawRecord raw) const override {
    {
      std::unique_lock<std::mutex> lock(mu_);
      if (entered_++ == 0) {
        cv_.notify_all();
        cv_.wait(lock, [&] { return released_; });
      }
    }
    return FakeSource::AssembleRecord(std::move(raw));
  }

  void AwaitBlocked() const {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return entered_ > 0; });
  }

  void Release() {
    std::lock_guard<std::mutex> lock(mu_);
    released_ = true;
    cv_.notify_all();
  }

 private:
  mutable std::mutex mu_;
  mutable std::condition_variable cv_;
  mutable int entered_ = 0;
  bool released_ = false;
};

TEST(LoaderExecutorTest, StopWaitsOutABlockedSourceCall) {
  LatchedSource latched(16, 1);
  FakeSource other_source(16, 1);
  LoaderPipelineOptions workers;
  workers.io_threads = 1;
  workers.decode_threads = 2;
  auto executor = std::make_shared<LoaderExecutor>(workers);
  LoaderPipeline blocked(&latched, LoaderPipelineOptions(), executor);
  LoaderPipeline other(&other_source, LoaderPipelineOptions(), executor);

  latched.AwaitBlocked();
  std::atomic<bool> released{false};
  std::atomic<bool> stopped{false};
  std::thread stopper([&] {
    blocked.Stop();
    EXPECT_TRUE(released.load()) << "Stop() returned inside a source call";
    stopped.store(true);
  });
  // The other stream keeps delivering on the second decode worker while
  // Stop() waits out the blocked call.
  for (int i = 0; i < 40; ++i) {
    auto batch = other.Next();
    ASSERT_TRUE(batch.ok()) << batch.status();
  }
  EXPECT_FALSE(stopped.load());
  released.store(true);
  latched.Release();
  stopper.join();
  EXPECT_TRUE(stopped.load());
  auto batch = blocked.Next();
  while (batch.ok()) batch = blocked.Next();
  EXPECT_EQ(batch.status().code(), StatusCode::kAborted) << batch.status();
}

}  // namespace
}  // namespace pcr
