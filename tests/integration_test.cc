// End-to-end tests: synthetic dataset -> PCR encoding -> partial reads ->
// loader -> feature cache -> SGD training -> tuners, plus format parity
// against the Record/File-per-Image baselines and the pipeline simulator.
#include <gtest/gtest.h>

#include <filesystem>
#include <set>

#include "core/file_per_image.h"
#include "core/pcr_dataset.h"
#include "core/record_dataset.h"
#include "data/dataset_builder.h"
#include "data/dataset_spec.h"
#include "image/metrics.h"
#include "jpeg/codec.h"
#include "loader/decode_cache.h"
#include "loader/pipeline.h"
#include "sim/pipeline_sim.h"
#include "sim/queueing.h"
#include "storage/sim_env.h"
#include "train/dataset_cache.h"
#include "train/trainer.h"
#include "tune/dynamic_tuner.h"
#include "tune/static_tuner.h"

#include "test_util.h"

namespace pcr {
namespace {

class IntegrationTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    env_ = Env::Default();
    spec_ = new DatasetSpec(DatasetSpec::TestTiny());
    BuildFormats formats;
    formats.pcr = true;
    formats.record = true;
    formats.file_per_image = true;
    auto built = BuildSyntheticDataset(
        env_, PerProcessTempDir("pcr_integration_test_ds"), *spec_, formats);
    ASSERT_TRUE(built.ok()) << built.status();
    built_ = new BuiltDataset(std::move(built).MoveValue());
  }

  static void TearDownTestSuite() {
    if (built_ != nullptr) std::filesystem::remove_all(built_->root);
    delete built_;
    built_ = nullptr;
    delete spec_;
    spec_ = nullptr;
  }

  static Env* env_;
  static DatasetSpec* spec_;
  static BuiltDataset* built_;
};

Env* IntegrationTest::env_ = nullptr;
DatasetSpec* IntegrationTest::spec_ = nullptr;
BuiltDataset* IntegrationTest::built_ = nullptr;

TEST_F(IntegrationTest, PcrDatasetOpensWithExpectedShape) {
  auto ds = PcrDataset::Open(env_, built_->pcr_dir).MoveValue();
  EXPECT_EQ(ds->num_images(), spec_->num_images);
  EXPECT_EQ(ds->num_scan_groups(), 10);
  EXPECT_EQ(ds->num_records(),
            (spec_->num_images + spec_->images_per_record - 1) /
                spec_->images_per_record);
}

TEST_F(IntegrationTest, PrefixBytesAreMonotonic) {
  auto ds = PcrDataset::Open(env_, built_->pcr_dir).MoveValue();
  for (int r = 0; r < ds->num_records(); ++r) {
    uint64_t prev = 0;
    for (int g = 1; g <= 10; ++g) {
      const uint64_t bytes = ds->RecordReadBytes(r, g);
      EXPECT_GT(bytes, prev);
      prev = bytes;
    }
    // Prefix for group 10 equals the file size.
    auto file_size = env_->GetFileSize(ds->record_path(r)).MoveValue();
    EXPECT_EQ(prev, file_size);
  }
}

TEST_F(IntegrationTest, PartialReadDecodesEveryImage) {
  auto ds = PcrDataset::Open(env_, built_->pcr_dir).MoveValue();
  for (int g : {1, 2, 5, 10}) {
    auto batch = ds->ReadRecord(0, g).MoveValue();
    EXPECT_EQ(batch.size(), spec_->images_per_record);
    for (int i = 0; i < batch.size(); ++i) {
      auto decoded = jpeg::DecodeFull(batch.jpeg(i));
      ASSERT_TRUE(decoded.ok()) << "group " << g << ": " << decoded.status();
      EXPECT_EQ(decoded->scans_decoded, g);
      EXPECT_GT(decoded->image.width(), 0);
    }
  }
}

TEST_F(IntegrationTest, ScanGroup10MatchesOriginalJpegQuality) {
  // Reading all scan groups must reproduce the full-quality image exactly
  // (same coefficients as the progressive encode).
  auto ds = PcrDataset::Open(env_, built_->pcr_dir).MoveValue();
  auto full = ds->ReadRecord(0, 10).MoveValue();
  auto record_ds = RecordDataset::Open(env_, built_->record_dir).MoveValue();
  auto baseline = record_ds->ReadRecord(0, 1).MoveValue();
  ASSERT_EQ(full.size(), baseline.size());
  for (int i = 0; i < full.size(); ++i) {
    const Image a = jpeg::Decode(full.jpeg(i)).MoveValue();
    const Image b = jpeg::Decode(baseline.jpeg(i)).MoveValue();
    ASSERT_TRUE(a.SameShape(b));
    EXPECT_EQ(0, memcmp(a.data(), b.data(), a.size_bytes())) << "image " << i;
  }
}

TEST_F(IntegrationTest, LabelsConsistentAcrossFormats) {
  auto pcr_ds = PcrDataset::Open(env_, built_->pcr_dir).MoveValue();
  auto rec_ds = RecordDataset::Open(env_, built_->record_dir).MoveValue();
  auto fpi_ds =
      FilePerImageDataset::Open(env_, built_->file_per_image_dir).MoveValue();
  EXPECT_EQ(fpi_ds->num_images(), spec_->num_images);

  auto a = pcr_ds->ReadRecord(0, 1).MoveValue();
  auto b = rec_ds->ReadRecord(0, 1).MoveValue();
  EXPECT_EQ(a.labels, b.labels);
  for (int i = 0; i < 8; ++i) {
    auto c = fpi_ds->ReadRecord(i, 1).MoveValue();
    EXPECT_EQ(c.labels[0], a.labels[i]);
  }
}

TEST_F(IntegrationTest, NoSpaceOverheadVersusRecordFormat) {
  // Paper §3.1: "There is no space overhead for PCR conversion as the number
  // of bytes occupied by all formats is within 5%."
  auto pcr_ds = PcrDataset::Open(env_, built_->pcr_dir).MoveValue();
  auto rec_ds = RecordDataset::Open(env_, built_->record_dir).MoveValue();
  const double ratio = static_cast<double>(pcr_ds->total_bytes()) /
                       static_cast<double>(rec_ds->total_bytes());
  EXPECT_LT(ratio, 1.05);
  EXPECT_GT(ratio, 0.80);
}

TEST_F(IntegrationTest, LowScanGroupsReduceBytesSubstantially) {
  auto ds = PcrDataset::Open(env_, built_->pcr_dir).MoveValue();
  const double full = ds->MeanImageBytes(10);
  const double g1 = ds->MeanImageBytes(1);
  const double g5 = ds->MeanImageBytes(5);
  // Paper §3.1: scan groups "drop the effective size ... by 2-10x".
  EXPECT_GT(full / g1, 2.0);
  EXPECT_LT(g1, g5);
  EXPECT_LT(g5, full);
}

TEST_F(IntegrationTest, MssimProfileIsMonotonicAndHighAtScan5) {
  auto ds = PcrDataset::Open(env_, built_->pcr_dir).MoveValue();
  StaticTunerOptions options;
  options.sample_images = 8;
  auto profile = ProfileScanGroups(ds.get(), options).MoveValue();
  ASSERT_EQ(profile.size(), 10u);
  for (size_t g = 1; g < profile.size(); ++g) {
    EXPECT_GE(profile[g].mean_mssim, profile[g - 1].mean_mssim - 0.02);
  }
  EXPECT_GT(profile[9].mean_mssim, 0.99);  // Group 10 = identical.
  EXPECT_GT(profile[4].mean_mssim, profile[0].mean_mssim);
}

TEST_F(IntegrationTest, PipelineDeliversEachRecordOnceThenEndsTheEpoch) {
  auto ds = PcrDataset::Open(env_, built_->pcr_dir).MoveValue();
  LoaderPipelineOptions options;
  options.max_epochs = 1;
  options.scan_policy = std::make_shared<FixedScanPolicy>(2);
  LoaderPipeline pipeline(ds.get(), options);
  std::set<int> records_seen;
  for (size_t i = 0; i < pipeline.records_per_epoch(); ++i) {
    auto batch = pipeline.Next();
    ASSERT_TRUE(batch.ok()) << batch.status();
    EXPECT_EQ(batch->scan_group, 2);
    EXPECT_EQ(static_cast<int>(batch->images.size()), batch->size());
    EXPECT_TRUE(records_seen.insert(batch->record_index).second)
        << "record " << batch->record_index << " delivered twice";
  }
  EXPECT_EQ(records_seen.size(), pipeline.records_per_epoch());
  auto end = pipeline.Next();
  EXPECT_EQ(end.status().code(), StatusCode::kOutOfRange) << end.status();
}

TEST_F(IntegrationTest, PipelineDeliversBatchesAndAccountsBothStages) {
  auto ds = PcrDataset::Open(env_, built_->pcr_dir).MoveValue();
  LoaderPipelineOptions options;
  options.io_threads = 2;
  options.decode_threads = 2;
  options.output_queue_depth = 4;
  options.scan_policy = std::make_shared<FixedScanPolicy>(1);
  LoaderPipeline pipeline(ds.get(), options);
  for (int i = 0; i < 12; ++i) {
    auto batch = pipeline.Next();
    ASSERT_TRUE(batch.ok()) << batch.status();
    EXPECT_GT(batch->size(), 0);
  }
  pipeline.Stop();
  EXPECT_GE(pipeline.batches_delivered(), 12);
  EXPECT_GE(pipeline.io_stats().items, 12);
  EXPECT_GE(pipeline.decode_stats().items, 12);
  EXPECT_GT(pipeline.io_stats().bytes, 0u);
  EXPECT_GT(pipeline.decode_stats().busy_seconds, 0.0);
  EXPECT_DOUBLE_EQ(pipeline.stall_seconds(), pipeline.io_stall_seconds() +
                                                 pipeline.decode_stall_seconds());
  EXPECT_TRUE(pipeline.status().ok());
}

TEST_F(IntegrationTest, PipelineSurfacesStorageFailures) {
  // Copy the dataset, open it, then delete a record file out from under the
  // loader: Next() must return the real I/O failure, not a generic abort.
  const std::string broken_dir = PerProcessTempDir("pcr_integration_broken");
  std::filesystem::remove_all(broken_dir);
  std::filesystem::copy(built_->pcr_dir, broken_dir);
  auto ds = PcrDataset::Open(env_, broken_dir).MoveValue();
  for (int r = 0; r < ds->num_records(); ++r) {
    std::filesystem::remove(ds->record_path(r));
  }
  LoaderPipelineOptions options;
  options.io_threads = 2;
  options.decode_threads = 2;
  LoaderPipeline pipeline(ds.get(), options);
  auto batch = pipeline.Next();
  while (batch.ok()) batch = pipeline.Next();
  EXPECT_FALSE(batch.status().message().empty());
  EXPECT_NE(batch.status().message().find("I/O stage"), std::string::npos)
      << batch.status();
  std::filesystem::remove_all(broken_dir);
}

TEST_F(IntegrationTest, TrainingLearnsAndLowScanDegradesOrMatches) {
  auto ds = PcrDataset::Open(env_, built_->pcr_dir).MoveValue();
  CachedDatasetOptions options;
  options.scan_groups = {1, 10};
  options.features.grid = 8;
  options.seed = 3;
  auto cached = CachedDataset::Build(ds.get(), options).MoveValue();
  EXPECT_EQ(cached.num_classes(), spec_->num_classes);

  TrainerOptions trainer_options;
  trainer_options.base_lr = 0.3;
  trainer_options.warmup_epochs = 2;
  trainer_options.decay_epochs = {};
  trainer_options.batch_size = 16;

  SoftmaxClassifier model_full(cached.feature_dim(), cached.num_classes(), 1);
  Trainer trainer_full(&cached, &model_full, trainer_options);
  for (int e = 0; e < 30; ++e) trainer_full.RunEpoch(10);
  const double acc_full = trainer_full.TestAccuracy();
  // 3 balanced classes, blob signal: should be well above chance (33%).
  EXPECT_GT(acc_full, 60.0);
}

TEST_F(IntegrationTest, GradientCosineHigherForHigherScans) {
  auto ds = PcrDataset::Open(env_, built_->pcr_dir).MoveValue();
  CachedDatasetOptions options;
  options.scan_groups = {1, 5, 10};
  options.features.grid = 8;
  auto cached = CachedDataset::Build(ds.get(), options).MoveValue();
  SoftmaxClassifier model(cached.feature_dim(), cached.num_classes(), 2);
  TrainerOptions trainer_options;
  trainer_options.warmup_epochs = 0;
  trainer_options.decay_epochs = {};
  Trainer trainer(&cached, &model, trainer_options);
  for (int e = 0; e < 3; ++e) trainer.RunEpoch(10);

  const double cos1 = trainer.GradientCosine(1);
  const double cos5 = trainer.GradientCosine(5);
  const double cos10 = trainer.GradientCosine(10);
  EXPECT_NEAR(cos10, 1.0, 1e-6);
  EXPECT_GE(cos5, cos1 - 0.05);
  EXPECT_GT(cos1, 0.0);
}

TEST_F(IntegrationTest, PipelineSimSpeedupTracksByteReduction) {
  auto ds = PcrDataset::Open(env_, built_->pcr_dir).MoveValue();
  PipelineSimOptions options;
  options.model_decode_cost = false;  // Pure I/O: Theorem A.5 exactly.
  // Slow storage so the pipeline is data-bound.
  DeviceProfile storage = DeviceProfile::CephCluster();
  storage.read_bandwidth_bytes_per_sec = 2.0 * (1 << 20);
  storage.seek_latency_sec = 0.0;
  storage.per_op_latency_sec = 0.0;
  TrainingPipelineSim sim(ds.get(), storage, ComputeProfile::ResNet18(),
                          DecodeCostModel{}, options);

  FixedScanPolicy full(10), low(2);
  const auto full_result = sim.SimulateEpoch(&full);
  const auto low_result = sim.SimulateEpoch(&low);
  const double measured_speedup =
      full_result.elapsed_seconds / low_result.elapsed_seconds;
  const double predicted =
      DataReductionSpeedup(ds->MeanImageBytes(10), ds->MeanImageBytes(2));
  EXPECT_NEAR(measured_speedup, predicted, 0.15 * predicted);
}

TEST_F(IntegrationTest, PipelineSimComputeBoundCapsThroughput) {
  auto ds = PcrDataset::Open(env_, built_->pcr_dir).MoveValue();
  PipelineSimOptions options;
  options.model_decode_cost = false;
  // Fast storage: compute must bind.
  TrainingPipelineSim sim(ds.get(), DeviceProfile::Ram(),
                          ComputeProfile::ShuffleNetV2(), DecodeCostModel{},
                          options);
  FixedScanPolicy full(10);
  const auto result = sim.SimulateEpoch(&full);
  EXPECT_NEAR(result.images_per_sec,
              ComputeProfile::ShuffleNetV2().ClusterRate(),
              0.05 * ComputeProfile::ShuffleNetV2().ClusterRate());
}

TEST_F(IntegrationTest, PipelineSimAsyncWindowScalesBandwidthBoundThroughput) {
  auto ds = PcrDataset::Open(env_, built_->pcr_dir).MoveValue();
  // Latency-heavy storage (network round trips + seeks dominate the small
  // partial reads): the regime where one-blocking-read-per-thread leaves
  // device bandwidth idle.
  DeviceProfile storage = DeviceProfile::CephCluster();
  storage.read_bandwidth_bytes_per_sec = 64.0 * (1 << 20);

  auto rate_at = [&](int window) {
    PipelineSimOptions options;
    options.model_decode_cost = false;
    options.io_inflight_window = window;
    TrainingPipelineSim sim(ds.get(), storage, ComputeProfile::ResNet18(),
                            DecodeCostModel{}, options);
    FixedScanPolicy full(10);
    return sim.SimulateEpoch(&full).images_per_sec;
  };

  // Window 1 is exactly the pre-async blocking loader (default options).
  PipelineSimOptions blocking_options;
  blocking_options.model_decode_cost = false;
  TrainingPipelineSim blocking(ds.get(), storage, ComputeProfile::ResNet18(),
                               DecodeCostModel{}, blocking_options);
  FixedScanPolicy full(10);
  const double blocking_rate = blocking.SimulateEpoch(&full).images_per_sec;
  EXPECT_DOUBLE_EQ(rate_at(1), blocking_rate);

  // Deeper windows overlap the fixed costs: monotone gains that saturate at
  // the bandwidth floor instead of growing without bound.
  const double rate1 = rate_at(1);
  const double rate2 = rate_at(2);
  const double rate8 = rate_at(8);
  const double rate64 = rate_at(64);
  EXPECT_GT(rate2, rate1);
  EXPECT_GT(rate8, rate2);
  EXPECT_GE(rate64, rate8);
  EXPECT_LT(rate64, rate8 * 2.0);  // Saturation, not runaway scaling.
}

TEST_F(IntegrationTest, PipelineSimBatchedSubmissionAmortizesPerOpCost) {
  auto ds = PcrDataset::Open(env_, built_->pcr_dir).MoveValue();
  // Per-op-latency-heavy storage: request setup dominates the small partial
  // reads, the regime batched io_uring submission targets.
  DeviceProfile storage = DeviceProfile::CephCluster();
  storage.per_op_latency_sec = 2e-3;

  auto epoch_at = [&](int batch) {
    PipelineSimOptions options;
    options.model_decode_cost = false;
    options.io_submit_batch = batch;
    TrainingPipelineSim sim(ds.get(), storage, ComputeProfile::ResNet18(),
                            DecodeCostModel{}, options);
    FixedScanPolicy full(10);
    return sim.SimulateEpoch(&full).elapsed_seconds;
  };

  // Batch 1 is exactly the unbatched model (default options): fig9/fig11
  // numbers are untouched unless a sweep opts in.
  PipelineSimOptions defaults;
  defaults.model_decode_cost = false;
  TrainingPipelineSim unbatched(ds.get(), storage, ComputeProfile::ResNet18(),
                                DecodeCostModel{}, defaults);
  FixedScanPolicy full(10);
  EXPECT_DOUBLE_EQ(epoch_at(1), unbatched.SimulateEpoch(&full).elapsed_seconds);

  // Deeper batches amortize the per-op setup cost but cannot touch seek or
  // transfer time: monotone gains that saturate, not runaway scaling.
  const double batch1 = epoch_at(1);
  const double batch4 = epoch_at(4);
  const double batch32 = epoch_at(32);
  EXPECT_LT(batch4, batch1);
  EXPECT_LE(batch32, batch4);
  const double floor = batch1 - 2e-3 * ds->num_records();  // All setup gone.
  EXPECT_GT(batch32, floor - 1e-9);
}

TEST_F(IntegrationTest, PipelineSimCacheMakesSecondEpochHitServed) {
  auto ds = PcrDataset::Open(env_, built_->pcr_dir).MoveValue();
  PipelineSimOptions options;
  // Slow storage + decode cost: epoch 1 is loader-bound, so a cache-resident
  // epoch 2 must get measurably faster and read zero storage bytes.
  options.decode_cache_bytes = 4ull << 30;  // Working set fully resident.
  DeviceProfile storage = DeviceProfile::CephCluster();
  storage.read_bandwidth_bytes_per_sec = 2.0 * (1 << 20);
  TrainingPipelineSim sim(ds.get(), storage, ComputeProfile::ResNet18(),
                          DecodeCostModel{}, options);

  FixedScanPolicy full(10);
  const auto epoch1 = sim.SimulateEpoch(&full);
  EXPECT_EQ(epoch1.cache_hits, 0);
  EXPECT_GT(epoch1.bytes_read, 0u);

  const auto epoch2 = sim.SimulateEpoch(&full, /*keep_trace=*/true);
  EXPECT_EQ(epoch2.cache_hits, epoch2.records);
  EXPECT_EQ(epoch2.bytes_read, 0u);
  EXPECT_GT(epoch2.cache_hit_seconds_saved, 0.0);
  EXPECT_LT(epoch2.elapsed_seconds, epoch1.elapsed_seconds);
  for (const auto& it : epoch2.trace) EXPECT_TRUE(it.cache_hit);

  // A different scan group is a different cache key: fresh misses.
  FixedScanPolicy low(2);
  const auto epoch3 = sim.SimulateEpoch(&low);
  EXPECT_EQ(epoch3.cache_hits, 0);
}

TEST_F(IntegrationTest, CosineTunerInvalidatesOnlyTheOutgoingGroup) {
  auto ds = PcrDataset::Open(env_, built_->pcr_dir).MoveValue();
  CachedDatasetOptions options;
  options.scan_groups = {1, 2, 5, 10};
  options.features.grid = 8;
  auto cached = CachedDataset::Build(ds.get(), options).MoveValue();
  SoftmaxClassifier model(cached.feature_dim(), cached.num_classes(), 4);
  TrainerOptions trainer_options;
  trainer_options.warmup_epochs = 2;
  trainer_options.decay_epochs = {};
  Trainer trainer(&cached, &model, trainer_options);

  // A live loader cache holding entries at the starting group (10) and at
  // an unrelated group (5): the switch away from 10 must drop only group 10.
  DecodeCacheOptions cache_options;
  cache_options.capacity_bytes = 16ull << 20;
  auto cache = std::make_shared<DecodeCache>(cache_options);
  const uint64_t dataset_id = cache->RegisterDataset();
  for (int record = 0; record < 3; ++record) {
    LoadedBatch batch;
    batch.record_index = record;
    batch.labels = {record};
    batch.images.emplace_back(8, 8, 3);
    batch.scan_group = 10;
    ASSERT_NE(cache->Insert({dataset_id, record, 10}, std::move(batch)),
              nullptr);
    LoadedBatch other;
    other.record_index = record;
    other.labels = {record};
    other.images.emplace_back(8, 8, 3);
    other.scan_group = 5;
    ASSERT_NE(cache->Insert({dataset_id, record, 5}, std::move(other)),
              nullptr);
  }

  CosineTunerOptions tuner_options;
  tuner_options.first_tune_epoch = 2;
  tuner_options.tune_every = 10;
  tuner_options.cosine_threshold = 0.5;  // Permissive: switches low.
  tuner_options.decode_cache = cache;
  tuner_options.cache_dataset_id = dataset_id;
  CosineTuner tuner(tuner_options);
  for (int e = 0; e < 5; ++e) {
    auto policy = tuner.Advise(&trainer);
    ASSERT_NE(policy, nullptr);
    trainer.RunEpochMixture(policy.get());
  }
  ASSERT_FALSE(tuner.events().empty());
  ASSERT_LT(tuner.current_group(), 10);

  // Outgoing group 10 flushed; untouched group 5 still serves hits.
  EXPECT_EQ(cache->Lookup({dataset_id, 0, 10}), nullptr);
  EXPECT_NE(cache->Lookup({dataset_id, 0, 5}), nullptr);
  EXPECT_EQ(cache->stats().invalidated, 3);

  // Probe marks are scoped to the tune cycle: candidates admit normally
  // again once the tuner has chosen.
  for (int g : tuner_options.candidate_groups) {
    EXPECT_FALSE(cache->IsProbeScanGroup(dataset_id, g)) << "group " << g;
  }
}

TEST_F(IntegrationTest, CachedDatasetBuildSharesDecodeCacheAcrossBuilds) {
  auto ds = PcrDataset::Open(env_, built_->pcr_dir).MoveValue();
  CachedDatasetOptions options;
  options.scan_groups = {2, 10};
  options.features.grid = 8;
  DecodeCacheOptions cache_options;
  cache_options.capacity_bytes = 256ull << 20;
  options.decode_cache = std::make_shared<DecodeCache>(cache_options);
  options.cache_dataset_id = options.decode_cache->RegisterDataset();

  auto first = CachedDataset::Build(ds.get(), options).MoveValue();
  const auto after_first = options.decode_cache->stats();
  EXPECT_EQ(after_first.hits, 0);
  EXPECT_GT(after_first.inserts, 0);

  // Same cache + id: the rebuild decodes nothing new.
  auto second = CachedDataset::Build(ds.get(), options).MoveValue();
  const auto after_second = options.decode_cache->stats();
  EXPECT_EQ(after_second.hits, after_first.inserts);

  // Identical features either way.
  ASSERT_EQ(second.train_size(), first.train_size());
  const float* a = first.train_features(10);
  const float* b = second.train_features(10);
  for (int i = 0; i < first.train_size() * first.feature_dim(); ++i) {
    ASSERT_EQ(a[i], b[i]) << "feature " << i;
  }
}

TEST_F(IntegrationTest, CosineTunerPrefersCheapGroupsWhenSafe) {
  auto ds = PcrDataset::Open(env_, built_->pcr_dir).MoveValue();
  CachedDatasetOptions options;
  options.scan_groups = {1, 2, 5, 10};
  options.features.grid = 8;
  auto cached = CachedDataset::Build(ds.get(), options).MoveValue();
  SoftmaxClassifier model(cached.feature_dim(), cached.num_classes(), 4);
  TrainerOptions trainer_options;
  trainer_options.warmup_epochs = 2;
  trainer_options.decay_epochs = {};
  Trainer trainer(&cached, &model, trainer_options);

  CosineTunerOptions tuner_options;
  tuner_options.first_tune_epoch = 2;
  tuner_options.tune_every = 10;
  tuner_options.cosine_threshold = 0.5;  // Permissive: should pick low group.
  CosineTuner tuner(tuner_options);
  for (int e = 0; e < 5; ++e) {
    auto policy = tuner.Advise(&trainer);
    ASSERT_NE(policy, nullptr);
    trainer.RunEpochMixture(policy.get());
  }
  ASSERT_FALSE(tuner.events().empty());
  EXPECT_LT(tuner.current_group(), 10);
}

TEST_F(IntegrationTest, SimEnvRoundTripsDataset) {
  // Stage the PCR dataset into a simulated cluster and read it back.
  VirtualClock clock;
  SimEnv sim_env(DeviceProfile::CephCluster(), &clock);
  ASSERT_TRUE(
      sim_env.ImportTree(env_, built_->pcr_dir, "cluster/pcr").ok());
  auto ds = PcrDataset::Open(&sim_env, "cluster/pcr").MoveValue();
  EXPECT_EQ(ds->num_images(), spec_->num_images);
  const int64_t t0 = clock.NowNanos();
  auto batch = ds->ReadRecord(0, 1).MoveValue();
  EXPECT_GT(batch.size(), 0);
  EXPECT_GT(clock.NowNanos(), t0);  // The read charged simulated time.
}

}  // namespace
}  // namespace pcr
