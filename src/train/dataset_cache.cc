#include "train/dataset_cache.h"

#include <algorithm>
#include <map>
#include <set>

#include "loader/decode_cache.h"
#include "loader/pipeline.h"
#include "util/logging.h"
#include "util/random.h"

namespace pcr {

Result<std::vector<CachedDataset>> CachedDataset::BuildMulti(
    RecordSource* source, const CachedDatasetOptions& options,
    const std::vector<FeatureOptions>& extractor_options) {
  PCR_CHECK(!extractor_options.empty());
  if (source->num_records() <= 0) {
    return Status::InvalidArgument("dataset has no records to cache");
  }
  const size_t k = extractor_options.size();
  // One id shared by every per-group pipeline of this build (and, when the
  // caller passes the same cache+id to later builds, across builds too).
  uint64_t cache_dataset_id = options.cache_dataset_id;
  if (options.decode_cache != nullptr && cache_dataset_id == 0) {
    cache_dataset_id = options.decode_cache->RegisterDataset();
  }
  std::vector<CachedDataset> out(k);
  std::vector<FeatureExtractor> extractors;
  extractors.reserve(k);
  for (size_t m = 0; m < k; ++m) {
    extractors.emplace_back(extractor_options[m]);
    out[m].dim_ = extractors[m].dim();
    out[m].max_group_ = source->num_scan_groups();
  }
  const int max_group = source->num_scan_groups();

  std::set<int> groups;
  for (int g : options.scan_groups) groups.insert(std::clamp(g, 1, max_group));
  groups.insert(max_group);
  for (auto& ds : out) {
    ds.cached_groups_.assign(groups.begin(), groups.end());
  }

  // Iterate records once per group; the train/test split and the
  // augmentation draws use per-group-identical streams so every quality view
  // sees the same crop of the same image. Fetch and decode run concurrently
  // in a staged LoaderPipeline; the RNG streams are positional, so records
  // pass through a reorder buffer back into index order before extraction.
  std::set<int64_t> class_set;
  for (int g : out[0].cached_groups_) {
    const bool is_max = g == max_group;
    Rng per_image_rng(options.seed + 17);
    std::vector<Rng> augment_rngs(k, Rng(options.seed ^ 0xa5a5a5a5));

    // Non-max passes decode the (later skipped) test images too; the
    // parallel decode stage absorbs that ~train_fraction remainder, and in
    // exchange every train image's decode overlaps the next fetch.
    LoaderPipelineOptions pipeline_options;
    pipeline_options.shuffle = false;
    pipeline_options.max_epochs = 1;
    pipeline_options.scan_policy = std::make_shared<FixedScanPolicy>(g);
    pipeline_options.decode_cache = options.decode_cache;
    pipeline_options.cache_dataset_id = cache_dataset_id;
    LoaderPipeline pipeline(source, pipeline_options);

    std::map<int, LoadedBatch> pending;
    int next_record = 0;
    while (next_record < source->num_records()) {
      PCR_ASSIGN_OR_RETURN(LoadedBatch fetched, pipeline.Next());
      pending.emplace(fetched.record_index, std::move(fetched));
      for (auto it = pending.find(next_record); it != pending.end();
           it = pending.find(++next_record)) {
        const LoadedBatch& batch = it->second;
        for (int i = 0; i < batch.size(); ++i) {
          const bool is_train =
              per_image_rng.NextDouble() < options.train_fraction;
          int64_t label = batch.labels[i];
          if (options.label_map) label = options.label_map(label);
          if (!is_train && !is_max) continue;  // Test uses full quality only.
          const Image& img = batch.images[i];
          for (size_t m = 0; m < k; ++m) {
            if (is_train) {
              const auto features =
                  extractors[m].Extract(img, &augment_rngs[m]);
              auto& dst = out[m].train_features_[g];
              dst.insert(dst.end(), features.begin(), features.end());
            } else {
              const auto features = extractors[m].Extract(img, nullptr);
              out[m].test_features_.insert(out[m].test_features_.end(),
                                           features.begin(), features.end());
            }
          }
          if (is_train) {
            if (g == out[0].cached_groups_.front()) {
              out[0].train_labels_.push_back(label);
              class_set.insert(label);
            }
          } else {
            out[0].test_labels_.push_back(label);
            class_set.insert(label);
          }
        }
        pending.erase(it);
      }
    }
  }

  // Labels must be dense [0, C); remap if needed.
  int64_t max_label = -1;
  for (int64_t c : class_set) max_label = std::max(max_label, c);
  if (max_label + 1 != static_cast<int64_t>(class_set.size())) {
    std::map<int64_t, int64_t> remap;
    int64_t next = 0;
    for (int64_t c : class_set) remap[c] = next++;
    for (auto& l : out[0].train_labels_) l = remap[l];
    for (auto& l : out[0].test_labels_) l = remap[l];
  }
  const int num_classes = static_cast<int>(class_set.size());

  if (out[0].train_labels_.empty() || out[0].test_labels_.empty()) {
    return Status::InvalidArgument("dataset split produced an empty side");
  }
  // Replicate shared label/class data into the sibling views.
  for (size_t m = 0; m < k; ++m) {
    out[m].num_classes_ = num_classes;
    if (m > 0) {
      out[m].train_labels_ = out[0].train_labels_;
      out[m].test_labels_ = out[0].test_labels_;
    }
  }
  // Test labels were appended once per max-group pass only; train labels
  // once per first group pass. Sanity-check shapes.
  for (size_t m = 0; m < k; ++m) {
    PCR_CHECK_EQ(out[m].test_features_.size(),
                 out[m].test_labels_.size() * out[m].dim_);
    for (int g : out[m].cached_groups_) {
      PCR_CHECK_EQ(out[m].train_features_[g].size(),
                   out[m].train_labels_.size() * out[m].dim_);
    }
  }
  return out;
}

Result<CachedDataset> CachedDataset::Build(RecordSource* source,
                                           const CachedDatasetOptions& options) {
  PCR_ASSIGN_OR_RETURN(auto multi,
                       BuildMulti(source, options, {options.features}));
  return std::move(multi[0]);
}

int CachedDataset::NearestCachedGroup(int group) const {
  for (int g : cached_groups_) {
    if (g >= group) return g;
  }
  return cached_groups_.back();
}

const float* CachedDataset::train_features(int group) const {
  auto it = train_features_.find(group);
  PCR_CHECK(it != train_features_.end())
      << "scan group " << group << " not cached";
  return it->second.data();
}

}  // namespace pcr
