// CachedDataset: decodes a RecordSource at one or more scan groups and
// caches extracted features, so multi-epoch SGD runs at memory speed while
// storage timing is simulated separately (see DESIGN.md §4). Test features
// are always extracted at full quality (the paper evaluates on the original
// validation images).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "core/record_source.h"
#include "train/features.h"
#include "util/result.h"

namespace pcr {

class DecodeCache;  // loader/decode_cache.h

struct CachedDatasetOptions {
  /// Scan groups to materialize training views for. The source's maximum
  /// group (baseline quality) is always added.
  std::vector<int> scan_groups = {1, 2, 5, 10};
  FeatureOptions features;
  double train_fraction = 0.8;
  uint64_t seed = 1;
  /// Optional label remapping (e.g. Cars -> Make-Only -> Is-Corvette).
  std::function<int64_t(int64_t)> label_map;
  /// Optional decoded-record cache shared with the feeding pipelines. One
  /// Build pass reads each (record, group) once, so hits only appear across
  /// repeated builds over the same source (e.g. per-proxy rebuilds or tuner
  /// probes) — pass the same cache and dataset id to share them.
  std::shared_ptr<DecodeCache> decode_cache;
  uint64_t cache_dataset_id = 0;
};

/// Feature views of one dataset at several qualities.
class CachedDataset {
 public:
  static Result<CachedDataset> Build(RecordSource* source,
                                     const CachedDatasetOptions& options);

  /// Builds several feature views (e.g. one per model proxy) from a single
  /// decode pass — decoding dominates, so this is ~Kx cheaper than K Build
  /// calls. The k-th result uses extractors[k]; options.features is ignored.
  static Result<std::vector<CachedDataset>> BuildMulti(
      RecordSource* source, const CachedDatasetOptions& options,
      const std::vector<FeatureOptions>& extractors);

  int feature_dim() const { return dim_; }
  int num_classes() const { return num_classes_; }
  int train_size() const { return static_cast<int>(train_labels_.size()); }
  int test_size() const { return static_cast<int>(test_labels_.size()); }
  int max_group() const { return max_group_; }

  /// Cached groups, ascending (always contains max_group()).
  const std::vector<int>& cached_groups() const { return cached_groups_; }
  /// Nearest cached group >= `group` (or the largest cached one).
  int NearestCachedGroup(int group) const;

  /// Row-major [train_size x dim] features at the given *cached* group.
  const float* train_features(int group) const;
  const int64_t* train_labels() const { return train_labels_.data(); }
  /// Full-quality test view.
  const float* test_features() const { return test_features_.data(); }
  const int64_t* test_labels() const { return test_labels_.data(); }

 private:
  int dim_ = 0;
  int num_classes_ = 0;
  int max_group_ = 1;
  std::vector<int> cached_groups_;
  std::map<int, std::vector<float>> train_features_;  // By group.
  std::vector<int64_t> train_labels_;
  std::vector<float> test_features_;
  std::vector<int64_t> test_labels_;
};

}  // namespace pcr
