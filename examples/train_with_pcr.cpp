// Train a classifier against a PCR dataset at different scan groups and see
// the bandwidth/accuracy trade-off, with simulated cluster time from the
// pipeline model — a miniature of the paper's Figure 4 experiment.
//
//   ./train_with_pcr
#include <cstdio>

#include "core/pcr_dataset.h"
#include "data/dataset_builder.h"
#include "data/dataset_spec.h"
#include "loader/scan_policy.h"
#include "sim/pipeline_sim.h"
#include "storage/env.h"
#include "train/dataset_cache.h"
#include "train/trainer.h"
#include "util/logging.h"

using namespace pcr;

int main() {
  Env* env = Env::Default();

  // Build (or reuse) a small synthetic dataset in PCR form.
  DatasetSpec spec = DatasetSpec::TestTiny();
  spec.num_images = 240;
  spec.num_classes = 4;
  spec.base_width = 180;
  spec.base_height = 140;
  spec.images_per_record = 24;
  BuildFormats formats;
  auto built = BuildSyntheticDataset(env, "/tmp/pcr_train_example", spec,
                                     formats);
  PCR_CHECK(built.ok()) << built.status();
  auto dataset = PcrDataset::Open(env, built->pcr_dir).MoveValue();
  printf("dataset: %d images, %d records, %d scan groups\n",
         dataset->num_images(), dataset->num_records(),
         dataset->num_scan_groups());

  // Decode every quality view once and cache features. The build is fed by
  // the staged LoaderPipeline: storage fetches and JPEG decodes overlap.
  CachedDatasetOptions cache_options;
  cache_options.scan_groups = {1, 2, 5, 10};
  cache_options.features.grid = 10;
  auto cached = CachedDataset::Build(dataset.get(), cache_options).MoveValue();
  printf("cached features: dim=%d classes=%d train=%d test=%d\n\n",
         cached.feature_dim(), cached.num_classes(), cached.train_size(),
         cached.test_size());

  // A slow simulated storage pool makes the experiment I/O bound.
  DeviceProfile storage = DeviceProfile::CephCluster();
  storage.read_bandwidth_bytes_per_sec = 3.0 * (1 << 20);

  printf("%-12s %-16s %-18s %-14s %-12s\n", "scan group", "sim time (s)",
         "stall io/dec (s)", "accuracy (%)", "loss");
  for (int group : {1, 2, 5, 10}) {
    SoftmaxClassifier model(cached.feature_dim(), cached.num_classes(), 1);
    TrainerOptions trainer_options;
    trainer_options.base_lr = 0.3;
    trainer_options.warmup_epochs = 2;
    trainer_options.decay_epochs = {25};
    Trainer trainer(&cached, &model, trainer_options);
    TrainingPipelineSim sim(dataset.get(), storage,
                            ComputeProfile::ShuffleNetV2(), DecodeCostModel{},
                            PipelineSimOptions{});
    FixedScanPolicy policy(group);
    double sim_time = 0;
    double io_stall = 0, decode_stall = 0;
    double loss = 0;
    for (int epoch = 0; epoch < 40; ++epoch) {
      const auto epoch_result = sim.SimulateEpoch(&policy);
      sim_time += epoch_result.elapsed_seconds;
      io_stall += epoch_result.io_bound_stall_seconds;
      decode_stall += epoch_result.decode_bound_stall_seconds;
      loss = trainer.RunEpoch(group);
    }
    printf("%-12d %-16.1f %6.1f / %-9.1f %-14.1f %-12.3f\n", group, sim_time,
           io_stall, decode_stall, trainer.TestAccuracy(), loss);
  }
  printf("\nlower scan groups read fewer bytes per epoch, so the same number "
         "of epochs completes sooner; quality only suffers if the task "
         "needed the discarded detail.\n");
  return 0;
}
