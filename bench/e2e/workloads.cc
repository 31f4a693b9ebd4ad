// The in-process workloads (local-decode, remote-io) and ingest.
#include <unistd.h>

#include <filesystem>
#include <mutex>
#include <thread>

#include "core/pcr_dataset.h"
#include "harness.h"
#include "jpeg/codec.h"
#include "loader/pipeline.h"
#include "storage/sim_env.h"
#include "util/crc32c.h"

namespace pcr::e2e {

namespace {

/// Epochs a trainer's pipeline delivers before the trainer starts a new one
/// (its next job). Every pipeline that ends is checked exactly once per
/// epoch; at 1.3-1.6k img/s, three or four end in a 12 s window.
constexpr int kPipelineEpochs = 4;
/// The trainer opens its next job's pipeline this many batches before the
/// current one ends, one per decode worker, so the new pipeline's first
/// fetches and decodes overlap the old one's last. Opened only at the end,
/// a cold pipeline cost local-decode ~8% of its rate at 4 epochs per job.
constexpr int kDecodeThreads = 3;

/// In-process LoaderPipeline over the local page cache (local-decode) or a
/// SimEnv device on the real clock (remote-io).
class PipelineWorkload : public Workload {
 public:
  PipelineWorkload(Run* run, bool remote)
      : Workload(run),
        remote_(remote),
        group_(remote ? kPartialGroup : kFullGroup) {}

  ~PipelineWorkload() override {
    Stop();
    Teardown();
  }

  Status Init() override {
    Env* base = Env::Default();
    dataset_dir_ = run_->config.seed_dir.pcr();
    if (remote_) {
      // A remote store: 8 MiB/s with a 1 ms round trip per operation. Slow
      // enough that at scan group 2 the device, not decode, sets the rate.
      DeviceProfile profile;
      profile.name = "remote";
      profile.read_bandwidth_bytes_per_sec = 8.0 * (1 << 20);
      profile.per_op_latency_sec = 1e-3;
      sim_ = std::make_unique<SimEnv>(profile, RealClock::Get());
      PCR_RETURN_IF_ERROR(
          sim_->ImportTree(Env::Default(), dataset_dir_, "/remote/pcr"));
      dataset_dir_ = "/remote/pcr";
      base = sim_.get();
    }
    env_ = base;
    if (run_->config.traced) {
      traced_env_ = std::make_unique<TracedEnv>(base, &run_->recorder);
      env_ = traced_env_.get();
    }
    return Status::OK();
  }

  Status Setup() override {
    ledgers_.clear();
    ledger_ = AddLedger("pipeline");
    PCR_ASSIGN_OR_RETURN(dataset_, PcrDataset::Open(env_, dataset_dir_));
    source_ = dataset_.get();
    if (run_->config.traced) {
      traced_source_ =
          std::make_unique<TracedRecordSource>(source_, &run_->recorder);
      source_ = traced_source_.get();
    }
    pipeline_ = NewPipeline();
    if (!ConsumeOne()) return Status::Aborted("no first batch");
    return Status::OK();
  }

  void Start() override {
    consumer_ = std::thread([this] {
      while (run_->phase() < kDone && !run_->fatal() && ConsumeOne()) {
      }
    });
  }

  void Stop() override {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (pipeline_ == nullptr) return;
      pipeline_->Stop();
      if (next_ != nullptr) next_->Stop();
    }
    if (consumer_.joinable()) consumer_.join();
    // Scheduler counters reach io_stats() only once the I/O workers exit,
    // so they are read here, over the pipeline's whole life.
    lifetime_io_ = pipeline_->io_stats();
  }

  void Teardown() override {
    next_.reset();
    pipeline_.reset();
    traced_source_.reset();
    dataset_.reset();
  }

  Counters Sample() override {
    std::lock_guard<std::mutex> lock(mu_);
    Counters c = retired_;
    AddStageTimes(*pipeline_, &c);
    if (next_ != nullptr) AddStageTimes(*next_, &c);
    // Queue gauges are means over the current pipeline's life.
    const StageStatsSnapshot io = pipeline_->io_stats();
    c["io.queue_depth"] = io.mean_queue_depth;
    c["io.occupancy"] = io.submission_occupancy();
    c["decode.queue_depth"] = pipeline_->decode_stats().mean_queue_depth;
    if (sim_ != nullptr) {
      c["device.bytes"] =
          static_cast<double>(sim_->device()->stats().bytes_read);
    }
    if (traced_env_ != nullptr) {
      c["env.reads"] = static_cast<double>(traced_env_->counters().reads);
    }
    return c;
  }

  void LayerMetrics(const Counters& a, const Counters& b, const Tally& t,
                    double seconds, Metrics* out) override {
    const double images = static_cast<double>(t.images);
    PutMetric(out, "storage.reads_per_image",
              Ratio(Delta(a, b, "env.reads"), images), "count");
    PutMetric(out, "storage.bytes_per_image", Ratio(t.bytes_read, images), "B");
    const double medium_seconds =
        sim_ == nullptr ? 0
                        : Delta(a, b, "device.bytes") /
                              sim_->device()->profile()
                                  .read_bandwidth_bytes_per_sec;
    PutMetric(out, "storage.device_busy_share", Ratio(medium_seconds, seconds),
              "ratio");
    PutMetric(out, "storage.syscalls_per_record",
              lifetime_io_.syscalls_per_record(), "count");
    PutMetric(out, "storage.submit_batch_mean",
              lifetime_io_.mean_submit_batch(), "count");
    PutMetric(out, "storage.retries",
              static_cast<double>(lifetime_io_.io_retries), "count");
    PutMetric(out, "storage.space_amplification",
              Ratio(run_->ref.dataset_bytes, run_->ref.input_jpeg_bytes),
              "ratio");
    const double io_busy = Delta(a, b, "io.busy");
    const double decode_busy = Delta(a, b, "decode.busy");
    PutMetric(out, "loader.io_utilization",
              Ratio(io_busy, io_busy + Delta(a, b, "io.idle")), "ratio");
    PutMetric(out, "loader.decode_utilization",
              Ratio(decode_busy, decode_busy + Delta(a, b, "decode.idle")),
              "ratio");
    const double io_stall = Delta(a, b, "stall.io");
    const double decode_stall = Delta(a, b, "stall.decode");
    PutMetric(out, "loader.io_stall_share",
              Ratio(io_stall, io_stall + decode_stall), "ratio");
    PutMetric(out, "loader.decode_stall_share",
              Ratio(decode_stall, io_stall + decode_stall), "ratio");
    PutMetric(out, "loader.fetch_queue_depth_mean", b.at("io.queue_depth"),
              "count");
    PutMetric(out, "loader.output_queue_depth_mean", b.at("decode.queue_depth"),
              "count");
    PutMetric(out, "loader.inflight_occupancy", b.at("io.occupancy"), "ratio");
    PutMetric(out, "consume.window_us_per_image",
              Ratio(t.consume_ns * 1e-3, images), "us");
  }

  WalkTarget Walk(const Tally& window) override {
    WalkTarget target;
    target.env = env_;
    target.dataset_dir = dataset_dir_;
    for (const auto& step : window.sequence) {
      if (static_cast<int>(target.sequence.size()) >= run_->ref.num_records) {
        break;
      }
      target.sequence.push_back(step);
    }
    return target;
  }

 private:
  std::unique_ptr<LoaderPipeline> NewPipeline() {
    LoaderPipelineOptions options;
    options.io_threads = 1;
    options.decode_threads = kDecodeThreads;
    options.max_epochs = kPipelineEpochs;
    options.shuffle = true;
    options.seed = run_->config.seed * 7919 + ++pipelines_;
    options.scan_policy = std::make_shared<FixedScanPolicy>(group_);
    return std::make_unique<LoaderPipeline>(source_, options);
  }

  static void AddStageTimes(const LoaderPipeline& pipeline, Counters* c) {
    const StageStatsSnapshot io = pipeline.io_stats();
    const StageStatsSnapshot decode = pipeline.decode_stats();
    (*c)["io.busy"] += io.busy_seconds;
    (*c)["io.idle"] += io.idle_seconds;
    (*c)["decode.busy"] += decode.busy_seconds;
    (*c)["decode.idle"] += decode.idle_seconds;
    (*c)["stall.io"] += pipeline.io_stall_seconds();
    (*c)["stall.decode"] += pipeline.decode_stall_seconds();
  }

  /// Checks the pipeline that just delivered its epochs and replaces it.
  /// False once the run is over.
  bool NextPipeline() {
    CheckExactlyOnce(ledger_, kPipelineEpochs);
    std::unique_ptr<LoaderPipeline> ended;
    std::lock_guard<std::mutex> lock(mu_);
    if (run_->phase() >= kDone) return false;
    AddStageTimes(*pipeline_, &retired_);
    ended = std::move(pipeline_);
    pipeline_ = next_ != nullptr ? std::move(next_) : NewPipeline();
    return true;
  }

  /// Opens the next job's pipeline once the current one is about to end.
  void MaybeOpenNext() {
    const int64_t left =
        static_cast<int64_t>(kPipelineEpochs * pipeline_->records_per_epoch()) -
        pipeline_->batches_delivered();
    if (next_ != nullptr || left > kDecodeThreads) return;
    std::lock_guard<std::mutex> lock(mu_);
    if (run_->phase() < kDone) next_ = NewPipeline();
  }

  bool ConsumeOne() {
    ConsumerProgress* progress = ledger_->progress;
    const int64_t start = NowNanos();
    progress->blocked_since.store(start, std::memory_order_release);
    Result<LoadedBatch> batch = pipeline_->Next();
    while (!batch.ok() && batch.status().IsOutOfRange() && NextPipeline()) {
      // The wait for the next job's first batch is the trainer's stall.
      batch = pipeline_->Next();
    }
    const int64_t end = NowNanos();
    progress->blocked_since.store(0, std::memory_order_release);
    if (!batch.ok()) {
      if (run_->phase() < kDone) {
        run_->Abort("pipeline: " + batch.status().ToString());
      }
      return false;
    }
    std::vector<ImageView> views;
    views.reserve(batch->images.size());
    for (const Image& img : batch->images) {
      views.push_back({static_cast<uint32_t>(img.width()),
                       static_cast<uint32_t>(img.height()),
                       static_cast<uint32_t>(img.channels()), img.data(),
                       img.size_bytes()});
    }
    ledger_->tally[run_->phase()].wait_ms.push_back((end - start) * 1e-6);
    run_->Deliver(ledger_, batch->record_index, batch->scan_group,
                  batch->labels, views, batch->bytes_read, start, end);
    MaybeOpenNext();
    return true;
  }

  const bool remote_;
  const int group_;
  std::unique_ptr<SimEnv> sim_;
  std::unique_ptr<TracedEnv> traced_env_;
  Env* env_ = nullptr;
  std::string dataset_dir_;
  std::unique_ptr<PcrDataset> dataset_;
  std::unique_ptr<TracedRecordSource> traced_source_;
  RecordSource* source_ = nullptr;
  int pipelines_ = 0;
  /// Guards setting the pipelines (the consumer) against Sample() and Stop()
  /// (the harness); the consumer alone sets them and reads them unlocked.
  std::mutex mu_;
  std::unique_ptr<LoaderPipeline> pipeline_;
  std::unique_ptr<LoaderPipeline> next_;  // The next job's, once opened.
  /// Stage times of the pipelines already replaced.
  Counters retired_;
  StageStatsSnapshot lifetime_io_;
  StreamLedger* ledger_ = nullptr;
  std::thread consumer_;
};

/// One writer thread ingesting the seed's inputs through PcrDatasetWriter
/// into fresh directories, back to back. A step is one AddImage; a record
/// of them is one batch.
class IngestWorkload : public Workload {
 public:
  explicit IngestWorkload(Run* run) : Workload(run) {}

  ~IngestWorkload() override {
    Stop();
    Teardown();
    Cleanup();
  }

  Status Init() override {
    PCR_ASSIGN_OR_RETURN(inputs_, LoadInputs(run_->config.seed_dir));
    if (inputs_.jpegs.empty()) return Status::InvalidArgument("no inputs");
    root_ = run_->config.run_dir + "/ingest-" + std::to_string(::getpid());
    env_ = Env::Default();
    if (run_->config.traced) {
      traced_env_ = std::make_unique<TracedEnv>(env_, &run_->recorder);
      env_ = traced_env_.get();
    }
    return Status::OK();
  }

  Status Setup() override {
    ledgers_.clear();
    ledger_ = AddLedger("writer");
    PCR_RETURN_IF_ERROR(NewGeneration());
    if (!WriteRecord()) return Status::Aborted("first record failed");
    return Status::OK();
  }

  void Start() override {
    writer_thread_ = std::thread([this] {
      while (run_->phase() < kDone && !run_->fatal() && WriteRecord()) {
      }
    });
  }

  void Stop() override {
    if (writer_thread_.joinable()) writer_thread_.join();
    Teardown();  // Verify reopens every generation, the last one too.
  }

  void Teardown() override {
    if (writer_ != nullptr) FinishGeneration();
  }

  Counters Sample() override {
    Counters c;
    if (traced_env_ != nullptr) {
      c["env.write_ops"] =
          static_cast<double>(traced_env_->counters().write_ops);
      c["env.write_bytes"] =
          static_cast<double>(traced_env_->counters().write_bytes);
    }
    return c;
  }

  void LayerMetrics(const Counters& a, const Counters& b, const Tally& t,
                    double seconds, Metrics* out) override {
    (void)seconds;
    const double images = static_cast<double>(t.images);
    const double write_bytes = Delta(a, b, "env.write_bytes");
    PutMetric(out, "storage.write_ops_per_image",
              Ratio(Delta(a, b, "env.write_ops"), images), "count");
    PutMetric(out, "storage.write_bytes_per_image", Ratio(write_bytes, images),
              "B");
    PutMetric(out, "storage.space_amplification",
              Ratio(write_bytes, static_cast<double>(t.input_bytes)), "ratio");
  }

  void Verify() override {
    // Every generation must reopen and hold exactly the prepared dataset's
    // records: the writer is deterministic, so bytes must match.
    for (const Generation& gen : generations_) {
      auto dataset = PcrDataset::Open(Env::Default(), gen.dir);
      if (!dataset.ok()) {
        run_->Fail(gen.dir + ": " + dataset.status().ToString());
        continue;
      }
      if ((*dataset)->num_records() != gen.records) {
        run_->Fail(gen.dir + ": " + std::to_string((*dataset)->num_records()) +
                   " records, wrote " + std::to_string(gen.records));
        continue;
      }
      for (int r = 0; r < gen.records; ++r) {
        auto raw = (*dataset)->FetchRecord(r, kFullGroup);
        if (!raw.ok() || r >= static_cast<int>(run_->ref.record_crc.size()) ||
            crc32c::Value(Slice(raw->payload)) != run_->ref.record_crc[r]) {
          run_->Fail(gen.dir + ": record " + std::to_string(r) +
                     " differs from the prepared dataset");
        }
      }
    }
  }

  WalkTarget Walk(const Tally& window) override {
    (void)window;
    WalkTarget target;
    target.env = env_;
    for (const Generation& gen : generations_) {
      if (gen.records > static_cast<int>(target.sequence.size())) {
        target.dataset_dir = gen.dir;
        target.sequence.clear();
        for (int r = 0; r < gen.records; ++r) {
          target.sequence.emplace_back(r, kFullGroup);
        }
      }
    }
    return target;
  }

  void ExtraMetrics(Metrics* out) override {
    // Writer-side spans of the traced window, and the transcode step the
    // writer runs inside AddImage, timed on its own over one record.
    const std::vector<Span> spans = run_->recorder.Snapshot();
    std::vector<double> add_ms, finish_ms;
    for (const Span& s : spans) {
      const std::string name = s.name;
      if (name == "core.writer_add") add_ms.push_back((s.end - s.start) * 1e-6);
      if (name == "core.writer_finish") {
        finish_ms.push_back((s.end - s.start) * 1e-6);
      }
    }
    PutMetric(out, "core.writer_add_ms_per_image", PercentileOf(add_ms, 50),
              "ms");
    if (!finish_ms.empty()) {
      PutMetric(out, "core.writer_finish_ms", PercentileOf(finish_ms, 50),
                "ms");
    }
    const size_t n = std::min<size_t>(64, inputs_.jpegs.size());
    const int64_t start = NowNanos();
    for (size_t i = 0; i < n; ++i) {
      if (!jpeg::TranscodeToProgressive(inputs_.jpegs[i]).ok()) {
        run_->Fail("transcode of input " + std::to_string(i) + " failed");
      }
    }
    PutMetric(out, "jpeg.transcode_ms_per_image",
              Ratio((NowNanos() - start) * 1e-6, static_cast<double>(n)), "ms");
  }

  void Cleanup() override {
    std::error_code ec;
    std::filesystem::remove_all(root_, ec);
    generations_.clear();
  }

 private:
  struct Generation {
    std::string dir;
    int records = 0;
  };

  Status NewGeneration() {
    const std::string dir =
        root_ + "/gen-" + std::to_string(generations_.size() + 1);
    PcrWriterOptions options;
    options.images_per_record = run_->ref.images_per_record;
    PCR_ASSIGN_OR_RETURN(writer_,
                         PcrDatasetWriter::Create(env_, dir, options));
    writer_dir_ = dir;
    next_input_ = 0;
    return Status::OK();
  }

  void FinishGeneration() {
    const int64_t start = NowNanos();
    Status status = writer_->Finish();
    run_->recorder.Record("core.writer_finish", start, NowNanos());
    if (!status.ok()) run_->Fail(writer_dir_ + ": " + status.ToString());
    generations_.push_back({writer_dir_, writer_->records_written()});
    writer_.reset();
  }

  /// Writes one record's worth of images, starting a new generation when
  /// the previous one holds every input. Each AddImage is one step: its
  /// time is the writer's wait, and the image counts in the phase it ends.
  bool WriteRecord() {
    ConsumerProgress* progress = ledger_->progress;
    const int64_t start = NowNanos();
    progress->blocked_since.store(start, std::memory_order_release);
    if (next_input_ >= static_cast<int>(inputs_.jpegs.size())) {
      FinishGeneration();
      Status status = NewGeneration();
      if (!status.ok()) {
        run_->Abort("ingest: " + status.ToString());
        return false;
      }
    }
    int64_t step_start = start;
    for (int k = 0; k < run_->ref.images_per_record &&
                    next_input_ < static_cast<int>(inputs_.jpegs.size());
         ++k, ++next_input_) {
      const std::string& jpeg = inputs_.jpegs[next_input_];
      const int64_t t0 = NowNanos();
      Status status = writer_->AddImage(jpeg, inputs_.labels[next_input_]);
      const int64_t t1 = NowNanos();
      run_->recorder.Record("core.writer_add", t0, t1);
      if (!status.ok()) {
        progress->blocked_since.store(0, std::memory_order_release);
        run_->Abort("ingest AddImage: " + status.ToString());
        return false;
      }
      Tally& t = ledger_->tally[run_->phase()];
      t.images += 1;
      t.input_bytes += jpeg.size();
      t.wait_ms.push_back((t1 - step_start) * 1e-6);
      t.stream_images[ledger_->name] += 1;
      step_start = t1;
    }
    progress->blocked_since.store(0, std::memory_order_release);
    run_->attempted.fetch_add(1, std::memory_order_relaxed);
    progress->delivered.fetch_add(1, std::memory_order_relaxed);
    ledger_->tally[run_->phase()].batches += 1;
    return true;
  }

  Inputs inputs_;
  std::string root_;
  Env* env_ = nullptr;
  std::unique_ptr<TracedEnv> traced_env_;
  std::unique_ptr<PcrDatasetWriter> writer_;
  std::string writer_dir_;
  int next_input_ = 0;
  std::vector<Generation> generations_;
  StreamLedger* ledger_ = nullptr;
  std::thread writer_thread_;
};

}  // namespace

std::unique_ptr<Workload> MakeWorkload(Run* run) {
  const std::string& name = run->config.workload;
  if (name == "local-decode") {
    return std::make_unique<PipelineWorkload>(run, /*remote=*/false);
  }
  if (name == "remote-io") {
    return std::make_unique<PipelineWorkload>(run, /*remote=*/true);
  }
  if (name == "serve-cold") return MakeServeWorkload(run, /*warm=*/false);
  if (name == "serve-warm") return MakeServeWorkload(run, /*warm=*/true);
  if (name == "ingest") return std::make_unique<IngestWorkload>(run);
  return nullptr;
}

}  // namespace pcr::e2e
