// bench_e2e: wall-clock benchmark of decoded images delivered to trainers.
//
// Every layer is measured from outside: the benchmark times calls into each
// module's public functions (through the TracedEnv / TracedRecordSource
// wrappers below and spans around its own calls) and reads the public stats
// snapshots. Nothing under src/ knows it is being measured.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "core/record_source.h"
#include "storage/env.h"
#include "util/result.h"
#include "util/status.h"

namespace pcr::e2e {

int64_t NowNanos();

// ---------------------------------------------------------------- Inputs

/// Scan groups the read workloads deliver at; prepare records reference
/// checksums for exactly these.
constexpr int kFullGroup = 10;
constexpr int kPartialGroup = 2;

/// One decoded image as the reference decoder produced it.
struct RefImage {
  int64_t label = 0;
  uint32_t width = 0;
  uint32_t height = 0;
  uint32_t channels = 0;
  uint64_t checksum = 0;
};

/// What `prepare` measured once per seed: per (record, group) reference
/// images, per-record CRCs of the full-fidelity record bytes (the ingest
/// check), and sizes the workloads configure themselves from.
struct Reference {
  int num_images = 0;
  int num_records = 0;
  int images_per_record = 0;
  std::map<std::pair<int, int>, std::vector<RefImage>> batches;
  std::vector<uint32_t> record_crc;
  /// Largest decoded record, in bytes of pixels (sizes the shm slots).
  uint64_t max_record_pixel_bytes = 0;
  /// Decoded bytes of the whole dataset at full quality.
  uint64_t dataset_pixel_bytes = 0;
  uint64_t input_jpeg_bytes = 0;
  uint64_t dataset_bytes = 0;
};

/// The seed's baseline JPEG inputs (what a user hands the writer).
struct Inputs {
  std::vector<std::string> jpegs;
  std::vector<int64_t> labels;
};

/// Layout of one prepared seed directory.
struct SeedDir {
  std::string root;
  std::string inputs() const { return root + "/inputs.bin"; }
  std::string pcr() const { return root + "/pcr"; }
  std::string reference() const { return root + "/reference.txt"; }
};

/// Generates the seed's inputs, ingests them into `dir.pcr()`, and records
/// the reference (ReferenceCodec decodes on the serial ReadRecord path).
/// Idempotent: returns at once when the directory is complete.
Status Prepare(const SeedDir& dir, uint64_t seed, int num_images,
               int images_per_record, int threads);
Result<Reference> LoadReference(const SeedDir& dir);
Result<Inputs> LoadInputs(const SeedDir& dir);

/// Folds the first 8 bytes of every 64-byte line of `data` into a checksum,
/// so verifying an image touches every cache line of it, as a copy to a
/// device would.
uint64_t FoldPixels(const uint8_t* data, uint64_t length);

/// One delivered image, wherever its pixels live.
struct ImageView {
  uint32_t width = 0;
  uint32_t height = 0;
  uint32_t channels = 0;
  const uint8_t* data = nullptr;
  uint64_t length = 0;
};
/// Checks one delivered batch (labels, dimensions, pixel checksums) against
/// the reference. Returns an empty string when it matches, else what
/// differed.
std::string CheckBatch(const Reference& ref, int record, int group,
                       const std::vector<int64_t>& labels,
                       const std::vector<ImageView>& images);

// ---------------------------------------------------------------- Tracing

/// One completed span. Spans of one delivered batch share `batch`.
struct Span {
  const char* name = "";
  int64_t start = 0;
  int64_t end = 0;
  uint64_t id = 0;
  uint64_t parent = 0;
  uint64_t batch = 0;
  uint32_t tid = 0;
};

/// In-memory span store, written out as Chrome trace-event JSON at exit.
/// Recording is off until enabled, so the wrappers can stay installed for a
/// whole traced process while only the traced window pays for spans.
class SpanRecorder {
 public:
  void set_enabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_release);
  }
  bool enabled() const { return enabled_.load(std::memory_order_acquire); }

  uint64_t NewId() { return next_id_.fetch_add(1, std::memory_order_relaxed); }

  /// Records a span when enabled; returns its id (0 when not recorded).
  uint64_t Record(const char* name, int64_t start, int64_t end,
                  uint64_t parent = 0, uint64_t batch = 0, uint64_t id = 0);

  std::vector<Span> Snapshot() const;
  Status WriteChromeTrace(const std::string& path) const;

 private:
  static constexpr size_t kMaxSpans = 1u << 20;
  std::atomic<bool> enabled_{false};
  std::atomic<uint64_t> next_id_{1};
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// Cumulative traffic a TracedEnv saw. Plain atomics: read by snapshotting.
struct EnvCounters {
  std::atomic<int64_t> reads{0};
  std::atomic<int64_t> write_ops{0};
  std::atomic<int64_t> write_bytes{0};
};

/// Env wrapper timing every read (scheduler submit to completion, and
/// synchronous file reads) and every WritableFile Append/Flush/Close.
class TracedEnv : public Env {
 public:
  TracedEnv(Env* base, SpanRecorder* recorder)
      : base_(base), recorder_(recorder) {}

  Result<std::unique_ptr<RandomAccessFile>> NewRandomAccessFile(
      const std::string& path) override;
  Result<std::unique_ptr<WritableFile>> NewWritableFile(
      const std::string& path) override;
  bool FileExists(const std::string& path) override {
    return base_->FileExists(path);
  }
  Result<uint64_t> GetFileSize(const std::string& path) override {
    return base_->GetFileSize(path);
  }
  Status DeleteFile(const std::string& path) override {
    return base_->DeleteFile(path);
  }
  Status RenameFile(const std::string& from, const std::string& to) override {
    return base_->RenameFile(from, to);
  }
  Status CreateDir(const std::string& path) override {
    return base_->CreateDir(path);
  }
  Result<std::vector<std::string>> ListDir(const std::string& path) override {
    return base_->ListDir(path);
  }
  std::unique_ptr<IoScheduler> NewIoScheduler(
      const IoSchedulerOptions& options) override;
  Clock* clock() override { return base_->clock(); }

  SpanRecorder* recorder() const { return recorder_; }
  EnvCounters& counters() { return counters_; }

 private:
  Env* base_;
  SpanRecorder* recorder_;
  EnvCounters counters_;
};

/// RecordSource wrapper timing PlanFetch, CompleteFetch and AssembleRecord.
class TracedRecordSource : public RecordSource {
 public:
  TracedRecordSource(RecordSource* base, SpanRecorder* recorder)
      : base_(base), recorder_(recorder) {}

  int num_records() const override { return base_->num_records(); }
  int num_images() const override { return base_->num_images(); }
  int num_scan_groups() const override { return base_->num_scan_groups(); }
  uint64_t RecordReadBytes(int record, int scan_group) const override {
    return base_->RecordReadBytes(record, scan_group);
  }
  int RecordImages(int record) const override {
    return base_->RecordImages(record);
  }
  using RecordSource::PlanFetch;
  Result<FetchPlan> PlanFetch(int record, int scan_group,
                              const FetchResident* resident) const override;
  Result<RawRecord> CompleteFetch(const FetchPlan& plan,
                                  std::string bytes) const override;
  Result<RecordBatch> AssembleRecord(RawRecord raw) const override;
  void ReportFetchOutcome(const FetchPlan& plan,
                          const Status& status) const override {
    base_->ReportFetchOutcome(plan, status);
  }
  std::string format_name() const override { return base_->format_name(); }
  uint64_t total_bytes() const override { return base_->total_bytes(); }

 private:
  RecordSource* base_;
  SpanRecorder* recorder_;
};

// ---------------------------------------------------------------- Running

/// One measured value with its unit, as printed in the result line.
struct Metric {
  double value = 0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

struct RunConfig {
  std::string workload;
  SeedDir seed_dir;
  uint64_t seed = 1;
  double warmup_seconds = 3;
  double window_seconds = 10;
  int setups = 5;
  bool traced = false;
  /// Scratch directory inside the checkout (sockets, ingest output).
  std::string run_dir;
  /// Chrome trace output (traced runs only).
  std::string trace_path;
};

struct RunResult {
  int64_t attempted = 0;
  int64_t failed = 0;
  Metrics metrics;
};

/// Runs one workload end to end: setups, warm-up, measured window(s),
/// correctness checks, and (traced) the layer walk.
Result<RunResult> RunWorkload(const RunConfig& config);

/// Consumer progress the watchdog reads: when a consumer has been blocked
/// on one request longer than the per-request deadline the run is declared
/// stalled and every consumer's delivered count is printed.
struct ConsumerProgress {
  std::string name;
  std::atomic<int64_t> blocked_since{0};  // 0 while not waiting.
  std::atomic<int64_t> delivered{0};
};

class ProgressBoard {
 public:
  ConsumerProgress* Add(const std::string& name);
  /// Consumers blocked longer than `deadline_nanos`, as "name" strings.
  std::vector<std::string> Stalled(int64_t now, int64_t deadline_nanos) const;
  std::string Describe() const;
  /// Forgets every consumer (their streams were torn down).
  void Clear();

 private:
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<ConsumerProgress>> consumers_;
};

ProgressBoard& Board();

}  // namespace pcr::e2e
