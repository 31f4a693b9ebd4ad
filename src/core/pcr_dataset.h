// PCR dataset writer and reader. A dataset is a directory holding a KvStore
// metadata database ("a database for PCR metadata") plus one .pcr file per
// record ("at least one .pcr file").
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/pcr_format.h"
#include "core/record_source.h"
#include "kv/kv_store.h"
#include "storage/env.h"
#include "util/result.h"

namespace pcr {

/// Encoder options.
struct PcrWriterOptions {
  int images_per_record = 128;
  /// Scan groups per record; images whose JPEG has more scans get the
  /// surplus merged into the last group, fewer get empty groups.
  int num_scan_groups = 10;
  /// Transcode baseline JPEG inputs to progressive (lossless). When false,
  /// inputs must already be progressive.
  bool transcode_to_progressive = true;
};

/// Streams (jpeg, label) pairs into .pcr record files + metadata DB.
///
///   auto writer = PcrDatasetWriter::Create(env, "/data/train", {}).
///   for (...) writer->AddImage(jpeg_bytes, label);
///   writer->Finish();
///
/// Threading. AddImage only indexes the input's markers (so input that does
/// not parse is rejected by its own call) and stages a copy of the bytes:
/// the caller's Slice may die as soon as it returns. The AddImage that fills
/// a record, and Finish for the trailing partial one, transcode the staged
/// images (the paper's lossless JPEGTRAN step) and split them into scan
/// groups on up to hardware_concurrency() threads: the calling thread plus
/// helpers spawned for that flush and joined before any byte is written.
/// The record file and its manifest entry are then written on the calling
/// thread, in input order, so the output is byte-identical to a serial
/// transcode and every Env call comes from the caller. No thread outlives a
/// flush; destroying a writer without Finish drops the staged images.
/// A writer is not safe for concurrent calls.
///
/// Errors. A transcode failure is returned by the AddImage that fills its
/// record, or by Finish: with several in one record, the one with the lowest
/// input index. A failed flush (transcode or write) is never partly
/// recorded: the record's manifest entry is not written, a transcode
/// failure leaves no record file, and earlier records stay as they are. The
/// writer then stays failed: later AddImage and Finish calls return the
/// same status.
class PcrDatasetWriter {
 public:
  static Result<std::unique_ptr<PcrDatasetWriter>> Create(
      Env* env, const std::string& dir, const PcrWriterOptions& options);

  /// Stages one image. `jpeg` may be baseline (transcoded when its record is
  /// flushed) or already progressive.
  Status AddImage(Slice jpeg, int64_t label);

  /// Flushes the trailing partial record and commits the metadata DB.
  Status Finish();

  int images_added() const { return images_added_; }
  int records_written() const { return records_written_; }

 private:
  PcrDatasetWriter(Env* env, std::string dir, PcrWriterOptions options);

  // Transcodes and splits the staged images, then writes them as one record.
  // A failure sticks in status_.
  Status FlushRecord();
  Status SplitStaged();
  Status WriteRecord();

  Env* env_;
  std::string dir_;
  PcrWriterOptions options_;
  std::unique_ptr<KvStore> db_;

  // Staged images for the record being built. `bytes` holds the input
  // until the flush rewrites it, in the same buffer, as the progressive
  // JPEG header followed by each scan group's bytes in group order.
  struct StagedImage {
    int64_t label = 0;
    std::string bytes;
    size_t header_size = 0;
    std::vector<uint64_t> group_sizes;
  };
  std::vector<StagedImage> staged_;
  int images_added_ = 0;
  int records_written_ = 0;
  bool finished_ = false;
  Status status_;
};

/// Read side: opens the metadata DB once, then serves partial record reads.
class PcrDataset : public RecordSource {
 public:
  static Result<std::unique_ptr<PcrDataset>> Open(Env* env,
                                                  const std::string& dir);

  int num_records() const override {
    return static_cast<int>(records_.size());
  }
  int num_images() const override { return num_images_; }
  int num_scan_groups() const override { return num_groups_; }
  uint64_t RecordReadBytes(int record, int scan_group) const override;
  int RecordImages(int record) const override {
    return records_[record].num_images;
  }
  using RecordSource::PlanFetch;
  Result<FetchPlan> PlanFetch(int record, int scan_group,
                              const FetchResident* resident) const override;
  Result<RecordBatch> AssembleRecord(RawRecord raw) const override;
  std::string format_name() const override { return "pcr"; }
  uint64_t total_bytes() const override;

  /// Per-record path (for tooling).
  const std::string& record_path(int record) const {
    return records_[record].path;
  }

 private:
  struct RecordMeta {
    std::string path;
    int num_images = 0;
    /// prefix_bytes[g-1]: file bytes to read for scan groups [1..g].
    std::vector<uint64_t> prefix_bytes;
    uint64_t file_bytes = 0;
    /// Serialized PcrHeader size; 0 when the manifest predates the field,
    /// in which case plans fall back to one header+payload segment.
    uint64_t header_bytes = 0;
  };

  PcrDataset(Env* env, std::string dir) : env_(env), dir_(std::move(dir)) {}

  Env* env_;
  std::string dir_;
  std::vector<RecordMeta> records_;
  int num_images_ = 0;
  int num_groups_ = 0;
};

}  // namespace pcr
