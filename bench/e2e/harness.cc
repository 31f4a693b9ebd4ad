// The run harness: repeated setups, warm-up, measured windows, the
// end-to-end and per-layer metrics, and the serial layer walk.
#include <dirent.h>
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <thread>

#include "core/pcr_dataset.h"
#include "harness.h"
#include "jpeg/codec.h"
#include "util/stats.h"

namespace pcr::e2e {

namespace {

double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_utime.tv_sec + usage.ru_stime.tv_sec +
         (usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) * 1e-6;
}

/// Resident private memory (/proc/self/status RssAnon) in MiB. Shared
/// memory is left out: the shm data plane maps each slot twice in this
/// process (daemon and client side), and how many slots a run touches
/// depends on scheduling, not on the code's footprint.
double PrivateRssMiB() {
  FILE* status = std::fopen("/proc/self/status", "r");
  if (status == nullptr) return 0;
  char line[256];
  double kib = 0;
  while (std::fgets(line, sizeof(line), status) != nullptr) {
    if (std::sscanf(line, "RssAnon: %lf kB", &kib) == 1) break;
  }
  std::fclose(status);
  return kib / 1024.0;
}

int ThreadCount() {
  DIR* dir = opendir("/proc/self/task");
  if (dir == nullptr) return 0;
  int count = 0;
  while (const dirent* entry = readdir(dir)) {
    if (entry->d_name[0] != '.') ++count;
  }
  closedir(dir);
  return count;
}

/// Process gauges, sampled while the harness waits out a phase.
struct Gauges {
  int threads = 0;
  double private_rss_mib = 0;

  void Sample() {
    threads = std::max(threads, ThreadCount());
    private_rss_mib = std::max(private_rss_mib, PrivateRssMiB());
  }
};

/// Sleeps through one phase in short steps, ending early if the run
/// aborted, and samples the process gauges meanwhile.
void SleepPhase(const Run& run, double seconds, Gauges* gauges) {
  const int64_t end = NowNanos() + static_cast<int64_t>(seconds * 1e9);
  gauges->Sample();
  while (!run.fatal()) {
    const int64_t left = end - NowNanos();
    if (left <= 0) break;
    std::this_thread::sleep_for(
        std::chrono::nanoseconds(std::min<int64_t>(left, 50'000'000)));
    gauges->Sample();
  }
}

/// Serial walk over the target's sequence, one span per layer step:
/// PlanFetch -> ReadFetchPlan -> CompleteFetch -> AssembleRecord ->
/// jpeg::DecodeFull per image -> consume (fold + reference check).
Status LayerWalk(Run* run, const WalkTarget& target, Metrics* out) {
  PCR_ASSIGN_OR_RETURN(auto dataset,
                       PcrDataset::Open(target.env, target.dataset_dir));
  SpanRecorder& rec = run->recorder;
  jpeg::DecodeScratch scratch;
  int64_t plan_ns = 0, read_ns = 0, complete_ns = 0, assemble_ns = 0;
  int64_t decode_ns = 0, consume_ns = 0;
  int64_t images = 0, pixels = 0;
  const int records = static_cast<int>(target.sequence.size());
  const int64_t begin = NowNanos();
  for (const auto& [record, group] : target.sequence) {
    const uint64_t batch = record + 1;
    const uint64_t root = rec.NewId();
    const int64_t t0 = NowNanos();
    PCR_ASSIGN_OR_RETURN(FetchPlan plan, dataset->PlanFetch(record, group));
    const int64_t t1 = NowNanos();
    PCR_ASSIGN_OR_RETURN(std::string bytes, ReadFetchPlan(plan));
    const int64_t t2 = NowNanos();
    PCR_ASSIGN_OR_RETURN(RawRecord raw,
                         dataset->CompleteFetch(plan, std::move(bytes)));
    const int64_t t3 = NowNanos();
    PCR_ASSIGN_OR_RETURN(RecordBatch assembled,
                         dataset->AssembleRecord(std::move(raw)));
    const int64_t t4 = NowNanos();
    rec.Record("walk.plan", t0, t1, root, batch);
    rec.Record("walk.read", t1, t2, root, batch);
    rec.Record("walk.complete", t2, t3, root, batch);
    rec.Record("walk.assemble", t3, t4, root, batch);
    plan_ns += t1 - t0;
    read_ns += t2 - t1;
    complete_ns += t3 - t2;
    assemble_ns += t4 - t3;

    std::vector<Image> decoded;
    for (int i = 0; i < assembled.size(); ++i) {
      const int64_t d0 = NowNanos();
      PCR_ASSIGN_OR_RETURN(jpeg::DecodeResult result,
                           jpeg::DecodeFull(assembled.jpeg(i), &scratch));
      const int64_t d1 = NowNanos();
      rec.Record("walk.decode", d0, d1, root, batch);
      decode_ns += d1 - d0;
      pixels += static_cast<int64_t>(result.image.width()) *
                result.image.height();
      decoded.push_back(std::move(result.image));
    }
    const int64_t c0 = NowNanos();
    std::vector<ImageView> views;
    for (const Image& img : decoded) {
      views.push_back({static_cast<uint32_t>(img.width()),
                       static_cast<uint32_t>(img.height()),
                       static_cast<uint32_t>(img.channels()), img.data(),
                       img.size_bytes()});
    }
    const std::string why =
        CheckBatch(run->ref, record, plan.scan_group, assembled.labels, views);
    const int64_t c1 = NowNanos();
    rec.Record("walk.consume", c0, c1, root, batch);
    rec.Record("walk.record", t0, c1, 0, batch, root);
    consume_ns += c1 - c0;
    images += assembled.size();
    if (!why.empty()) run->Fail("layer walk: " + why);
  }
  const int64_t wall = NowNanos() - begin;
  const double storage = read_ns;
  const double core = plan_ns + complete_ns + assemble_ns;
  const double jpeg = decode_ns;
  const double consume = consume_ns;
  const double spans = storage + core + jpeg + consume;
  PutMetric(out, "storage.read_ms_per_record", Ratio(read_ns * 1e-6, records),
            "ms");
  PutMetric(out, "core.plan_us_per_record", Ratio(plan_ns * 1e-3, records),
            "us");
  PutMetric(out, "core.complete_us_per_record",
            Ratio(complete_ns * 1e-3, records), "us");
  PutMetric(out, "core.assemble_us_per_record",
            Ratio(assemble_ns * 1e-3, records), "us");
  PutMetric(out, "jpeg.decode_ms_per_image", Ratio(decode_ns * 1e-6, images),
            "ms");
  PutMetric(out, "jpeg.decode_mpix_per_s",
            Ratio(pixels * 1e-6, decode_ns * 1e-9), "Mpix/s");
  PutMetric(out, "consume.us_per_image", Ratio(consume_ns * 1e-3, images),
            "us");
  PutMetric(out, "walk.storage_share", Ratio(storage, spans), "ratio");
  PutMetric(out, "walk.core_share", Ratio(core, spans), "ratio");
  PutMetric(out, "walk.jpeg_share", Ratio(jpeg, spans), "ratio");
  PutMetric(out, "walk.consume_share", Ratio(consume, spans), "ratio");
  PutMetric(out, "walk.coverage", Ratio(spans, wall), "ratio");
  return Status::OK();
}

/// Per-layer metrics every traced run reports. A layer the workload's
/// window does not cross reports 0 for its counts and ratios; the time
/// metrics all come from the layer walk, which every workload runs.
constexpr std::pair<const char*, const char*> kLayerUnits[] = {
    {"storage.reads_per_image", "count"},
    {"storage.bytes_per_image", "B"},
    {"storage.device_busy_share", "ratio"},
    {"storage.syscalls_per_record", "count"},
    {"storage.submit_batch_mean", "count"},
    {"storage.retries", "count"},
    {"storage.write_ops_per_image", "count"},
    {"storage.write_bytes_per_image", "B"},
    {"storage.space_amplification", "ratio"},
    {"loader.io_utilization", "ratio"},
    {"loader.decode_utilization", "ratio"},
    {"loader.io_stall_share", "ratio"},
    {"loader.decode_stall_share", "ratio"},
    {"loader.fetch_queue_depth_mean", "count"},
    {"loader.output_queue_depth_mean", "count"},
    {"loader.inflight_occupancy", "ratio"},
    {"serve.decode_cache_hit_rate", "ratio"},
    {"serve.shm_batch_share", "ratio"},
    {"serve.shm_slot_waits_per_batch", "count"},
    {"serve.bytes_copied_per_image", "B"},
    {"serve.zero_copy_share", "ratio"},
    {"serve.fairness", "ratio"},
};

/// Times `count` setups, each from nothing to its first batches, tearing
/// each down again except, with `keep_last`, the last one.
Status TimeSetups(Workload* workload, int count, bool keep_last,
                  std::vector<double>* seconds) {
  for (int k = 0; k < count; ++k) {
    Board().Clear();
    const int64_t t0 = NowNanos();
    Status status = workload->Setup();
    if (!status.ok()) {
      workload->Teardown();
      return status;
    }
    seconds->push_back((NowNanos() - t0) * 1e-9);
    if (keep_last && k + 1 == count) break;
    workload->Teardown();
    // Hand the torn-down setup's heap back, so the memory peak of the
    // window reflects the system being measured, not freed chunks of a
    // previous setup that the allocator kept.
    malloc_trim(0);
  }
  return Status::OK();
}

Tally MergePhase(const Workload& workload, int phase) {
  Tally merged;
  for (const auto& ledger : workload.ledgers()) {
    merged.Merge(ledger->tally[phase]);
  }
  return merged;
}

/// The end-to-end metrics of one measured window.
void WindowMetrics(const Tally& t, double seconds, double cpu_seconds,
                   Metrics* out) {
  PutMetric(out, "images_per_sec", Ratio(t.images, seconds), "img/s");
  PutMetric(out, "batch_wait_p50_ms", PercentileOf(t.wait_ms, 50), "ms");
  PutMetric(out, "batch_wait_p90_ms", PercentileOf(t.wait_ms, 90), "ms");
  // The mean is the data stall per step. It is reported as well as the
  // median because a decode-bound pipeline's workers drift in and out of
  // phase, which makes the median jump between two modes from run to run.
  double wait_sum = 0;
  for (double w : t.wait_ms) wait_sum += w;
  PutMetric(out, "batch_wait_mean_ms", Ratio(wait_sum, t.wait_ms.size()), "ms");
  PutMetric(out, "proc.cpu_ms_per_image", Ratio(cpu_seconds * 1e3, t.images),
            "ms");
  PutMetric(out, "window.batches", static_cast<double>(t.batches), "count");
}

}  // namespace

void Tally::Merge(const Tally& other) {
  images += other.images;
  batches += other.batches;
  shm_batches += other.shm_batches;
  bytes_read += other.bytes_read;
  input_bytes += other.input_bytes;
  consume_ns += other.consume_ns;
  wait_ms.insert(wait_ms.end(), other.wait_ms.begin(), other.wait_ms.end());
  request_ms.insert(request_ms.end(), other.request_ms.begin(),
                    other.request_ms.end());
  for (const auto& [name, n] : other.stream_images) stream_images[name] += n;
  if (sequence.empty()) sequence = other.sequence;
}

double PercentileOf(const std::vector<double>& values, double p) {
  if (values.empty()) return 0;
  SampleSet set;
  set.Reserve(values.size());
  for (double v : values) set.Add(v);
  return set.Percentile(p);
}

void Run::Fail(const std::string& why) {
  const int64_t n = failed.fetch_add(1, std::memory_order_relaxed);
  if (n < 5) std::fprintf(stderr, "bench_e2e: FAILED: %s\n", why.c_str());
}

void Run::Deliver(StreamLedger* ledger, int record, int group,
                  const std::vector<int64_t>& labels,
                  const std::vector<ImageView>& images, uint64_t bytes_read,
                  int64_t wait_start, int64_t wait_end) {
  const int at = phase();
  const std::string why = CheckBatch(ref, record, group, labels, images);
  const int64_t consumed = NowNanos();
  attempted.fetch_add(1, std::memory_order_relaxed);
  if (!why.empty()) Fail(ledger->name + ": " + why);
  ++ledger->record_counts[record];
  ledger->progress->delivered.fetch_add(1, std::memory_order_relaxed);
  Tally& t = ledger->tally[at];
  t.images += static_cast<int64_t>(images.size());
  t.batches += 1;
  t.bytes_read += bytes_read;
  t.consume_ns += consumed - wait_end;
  t.stream_images[ledger->name] += static_cast<int64_t>(images.size());
  if (t.sequence.size() < 64) t.sequence.emplace_back(record, group);
  const uint64_t wait_id = recorder.Record("consumer.wait", wait_start,
                                           wait_end, 0, record + 1);
  recorder.Record("consumer.consume", wait_end, consumed, wait_id,
                  record + 1);
}

StreamLedger* Workload::AddLedger(const std::string& name) {
  ledgers_.push_back(std::make_unique<StreamLedger>());
  ledgers_.back()->name = name;
  ledgers_.back()->progress = Board().Add(name);
  return ledgers_.back().get();
}

void Workload::CheckExactlyOnce(StreamLedger* ledger, int epochs) {
  const int n = run_->ref.num_records;
  bool exact = static_cast<int>(ledger->record_counts.size()) == n;
  std::string counts;
  for (int r = 0; r < n; ++r) {
    const auto it = ledger->record_counts.find(r);
    const int64_t count = it == ledger->record_counts.end() ? 0 : it->second;
    counts += " " + std::to_string(count);
    exact = exact && count == epochs;
  }
  if (!exact) {
    run_->Fail(ledger->name + ": " + std::to_string(epochs) +
               "-epoch stream delivered records" + counts);
  }
  ledger->record_counts.clear();
}

Result<RunResult> RunWorkload(const RunConfig& config) {
  PCR_ASSIGN_OR_RETURN(Reference ref, LoadReference(config.seed_dir));
  Run run(config, ref);
  std::unique_ptr<Workload> workload = MakeWorkload(&run);
  if (workload == nullptr) {
    return Status::InvalidArgument("unknown workload " + config.workload);
  }
  PCR_RETURN_IF_ERROR(workload->Init());

  // Setups are timed at both ends of the run, the last early one kept for
  // the window, so a slow second of the host cannot decide the median.
  const int setups = std::max(1, config.setups);
  std::vector<double> setup_seconds;
  PCR_RETURN_IF_ERROR(TimeSetups(workload.get(), setups - setups / 2,
                                 /*keep_last=*/true, &setup_seconds));

  Gauges run_gauges;
  run_gauges.Sample();
  run.set_phase(kWarmup);
  workload->Start();
  SleepPhase(run, config.warmup_seconds, &run_gauges);

  const double window_a =
      config.traced ? config.window_seconds / 2 : config.window_seconds;
  const double cpu_a = CpuSeconds();
  const int64_t t_a = NowNanos();
  run.set_phase(kMeasureA);
  SleepPhase(run, window_a, &run_gauges);

  const double cpu_b = CpuSeconds();
  const int64_t t_b = NowNanos();
  Counters counters_b, counters_c;
  int64_t t_c = t_b;
  Gauges traced_gauges;
  if (config.traced) {
    counters_b = workload->Sample();
    run.recorder.set_enabled(true);
    run.set_phase(kMeasureB);
    SleepPhase(run, config.window_seconds / 2, &traced_gauges);
    counters_c = workload->Sample();
    t_c = NowNanos();
    run.recorder.set_enabled(false);
  }
  run.set_phase(kDone);
  workload->Stop();
  workload->Verify();
  workload->Teardown();

  RunResult result;
  const double seconds_a = (t_b - t_a) * 1e-9;
  const Tally window_a_tally = MergePhase(*workload, kMeasureA);
  WindowMetrics(window_a_tally, seconds_a, cpu_b - cpu_a, &result.metrics);
  run_gauges.private_rss_mib =
      std::max(run_gauges.private_rss_mib, traced_gauges.private_rss_mib);
  PutMetric(&result.metrics, "peak_rss_mb", run_gauges.private_rss_mib, "MiB");

  if (config.traced) {
    const double seconds_b = (t_c - t_b) * 1e-9;
    const Tally window_b = MergePhase(*workload, kMeasureB);
    workload->LayerMetrics(counters_b, counters_c, window_b, seconds_b,
                           &result.metrics);
    PutMetric(&result.metrics, "proc.threads", traced_gauges.threads, "count");
    const double untraced_rate = Ratio(window_a_tally.images, seconds_a);
    const double traced_rate = Ratio(window_b.images, seconds_b);
    PutMetric(&result.metrics, "trace.overhead",
              untraced_rate > 0 ? 1.0 - traced_rate / untraced_rate : 0,
              "ratio");
    for (const auto& [name, unit] : kLayerUnits) {
      if (result.metrics.count(name) == 0) {
        PutMetric(&result.metrics, name, 0, unit);
      }
    }
    workload->ExtraMetrics(&result.metrics);

    run.recorder.set_enabled(true);
    Status walked = LayerWalk(&run, workload->Walk(window_b), &result.metrics);
    run.recorder.set_enabled(false);
    if (!walked.ok()) run.Fail("layer walk: " + walked.ToString());
    if (!config.trace_path.empty()) {
      Status written = run.recorder.WriteChromeTrace(config.trace_path);
      if (!written.ok()) run.Fail(written.ToString());
    }
  }
  PCR_RETURN_IF_ERROR(TimeSetups(workload.get(), setups / 2,
                                 /*keep_last=*/false, &setup_seconds));
  PutMetric(&result.metrics, "setup_s", PercentileOf(setup_seconds, 50), "s");
  workload->Cleanup();
  result.attempted = run.attempted.load();
  result.failed = run.failed.load();
  return result;
}

}  // namespace pcr::e2e
