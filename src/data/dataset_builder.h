// Builds a synthetic dataset in one or more storage formats (PCR, Record,
// File-per-Image), with on-disk caching so bench binaries share the
// (encode-heavy) generation work.
#pragma once

#include <string>

#include "data/dataset_spec.h"
#include "storage/env.h"
#include "util/result.h"

namespace pcr {

/// Which formats to materialize.
struct BuildFormats {
  bool pcr = true;
  bool record = false;
  bool file_per_image = false;
};

/// Directory layout of a built dataset.
struct BuiltDataset {
  std::string root;
  std::string pcr_dir;            // root + "/pcr"
  std::string record_dir;         // root + "/record"
  std::string file_per_image_dir; // root + "/fpi"
  double build_seconds = 0.0;     // 0 when served from cache.
};

/// Generates images per `spec`, encodes them as baseline JPEG at the spec's
/// quality, and feeds the requested writers (PCR transcodes losslessly to
/// progressive, as the paper's encoder does with jpegtran). If the dataset
/// already exists under `root` (manifests present), generation is skipped.
Result<BuiltDataset> BuildSyntheticDataset(Env* env, const std::string& root,
                                           const DatasetSpec& spec,
                                           const BuildFormats& formats);

/// Default cache root for bench binaries (under the system temp dir, keyed
/// by spec name and content-affecting parameters).
std::string DefaultDatasetCacheRoot(const DatasetSpec& spec);

}  // namespace pcr
