#include "loader/pipeline.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <optional>
#include <thread>
#include <unordered_map>

#include "storage/io_retry.h"
#include "util/logging.h"

namespace pcr {

namespace {

/// First retry backoff; doubles per retry (capped at 100x) on the backend
/// Env's clock.
constexpr double kRetryBackoffSec = 0.5e-3;
/// Ceiling of the adaptive hedge deadline.
constexpr double kHedgeMaxSec = 1.0;

int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Decodes every JPEG of an assembled RecordBatch into pixels. `scratch`
/// lets a long-lived decode thread reuse coefficient and staging buffers
/// across records.
Result<LoadedBatch> DecodeRecordBatch(RecordBatch raw, int record_index,
                                      int scan_group,
                                      jpeg::DecodeScratch* scratch) {
  LoadedBatch batch;
  batch.record_index = record_index;
  batch.scan_group = scan_group;
  batch.labels = std::move(raw.labels);
  batch.bytes_read = raw.bytes_read;
  batch.images.reserve(raw.spans.size());
  for (int i = 0; i < raw.size(); ++i) {
    PCR_ASSIGN_OR_RETURN(Image img, jpeg::Decode(raw.jpeg(i), scratch));
    batch.images.push_back(std::move(img));
  }
  return batch;
}

/// The assembled JPEG streams themselves, for `decode == false` streams.
LoadedBatch CompressedBatch(RecordBatch assembled, int record_index,
                            int scan_group) {
  LoadedBatch batch;
  batch.record_index = record_index;
  batch.scan_group = scan_group;
  batch.labels = std::move(assembled.labels);
  batch.bytes_read = assembled.bytes_read;
  batch.jpeg_spans = std::move(assembled.spans);
  batch.jpeg_backing = std::move(assembled.backing);
  return batch;
}

}  // namespace

// --- Stream ------------------------------------------------------------------

/// One attached stream's state, shared by its LoaderPipeline and the
/// executor's workers: work still in flight keeps it alive past Stop(), but
/// never calls into its RecordSource once it is closed.
struct LoaderExecutor::Stream {
  Stream(RecordSource* source_in, LoaderPipelineOptions options_in,
         const LoaderPipelineOptions& executor)
      : source(source_in),
        options(std::move(options_in)),
        num_groups(source_in->num_scan_groups()),
        records_per_epoch(static_cast<size_t>(source_in->num_records())),
        worker_reads(std::clamp(options.io_inflight, 1, executor.io_inflight)),
        credit(std::max(1, options.output_queue_depth) +
               executor.io_threads * worker_reads),
        output(static_cast<size_t>(credit.load())),
        sampler(source_in->num_records(), options.shuffle, options.seed) {
    if (options.scan_policy == nullptr) {
      options.scan_policy = std::make_shared<FixedScanPolicy>(num_groups);
    }
    if (!options.decode) {
      options.decode_cache = nullptr;  // Cache stores decoded batches only.
    } else if (options.decode_cache == nullptr &&
               options.decode_cache_bytes > 0) {
      DecodeCacheOptions cache_options;
      cache_options.capacity_bytes = options.decode_cache_bytes;
      cache_options.shards = options.decode_cache_shards;
      options.decode_cache = std::make_shared<DecodeCache>(cache_options);
    }
    if (options.decode_cache != nullptr && options.cache_dataset_id == 0) {
      options.cache_dataset_id = options.decode_cache->RegisterDataset();
    }
    if (options.prefix_cache == nullptr && options.prefix_cache_bytes > 0) {
      PrefixCacheOptions prefix_options;
      prefix_options.capacity_bytes = options.prefix_cache_bytes;
      options.prefix_cache = std::make_shared<PrefixCache>(prefix_options);
    }
    if (options.prefix_cache != nullptr && options.prefix_dataset_id == 0) {
      options.prefix_dataset_id = options.prefix_cache->RegisterDataset();
    }
    if (options.max_epochs > 0) {
      ticket_limit = static_cast<int64_t>(options.max_epochs) *
                     static_cast<int64_t>(source_in->num_records());
    }
  }

  bool live() const { return !closed.load(std::memory_order_acquire); }

  /// Issues the next ticket if the stream is live, has tickets left and has
  /// credit. Each record is issued exactly once per epoch no matter how many
  /// I/O workers race on it.
  bool TakeTicket(int* record, std::shared_ptr<ScanGroupPolicy>* policy) {
    if (!live() || tickets_done.load(std::memory_order_relaxed) ||
        credit.load(std::memory_order_relaxed) <= 0) {
      return false;
    }
    std::lock_guard<std::mutex> lock(mu);
    if (tickets_done.load(std::memory_order_relaxed) || credit.load() <= 0) {
      return false;
    }
    credit.fetch_sub(1);
    *record = sampler.Next();
    ++undelivered;
    if (++tickets_issued == ticket_limit) tickets_done.store(true);
    *policy = options.scan_policy;  // May be swapped by set_scan_policy.
    return true;
  }

  /// Hands a finished ticket to the consumer; seals the output once the
  /// last ticket is in. Never blocks: the queue holds the whole credit.
  void Deliver(SharedLoadedBatch item) {
    output.Push(std::move(item));  // Dropped if already closed.
    std::lock_guard<std::mutex> lock(mu);
    if (--undelivered == 0 && tickets_done.load()) output.Close();
  }

  /// Brackets every call into `source`: false once the stream is closed.
  bool EnterSourceCall() {
    std::lock_guard<std::mutex> lock(call_mu);
    if (closed.load(std::memory_order_relaxed)) return false;
    ++calls;
    return true;
  }
  void ExitSourceCall() {
    std::lock_guard<std::mutex> lock(call_mu);
    if (--calls == 0 && closed.load(std::memory_order_relaxed)) {
      call_cv.notify_all();
    }
  }

  /// Ends the stream's work: no new tickets or source calls, and the
  /// consumer drains what was delivered. Does not wait.
  void Close() {
    {
      std::lock_guard<std::mutex> lock(call_mu);
      closed.store(true, std::memory_order_release);
    }
    output.Close();
  }

  /// Waits until no executor thread is inside a call on `source`.
  void AwaitSourceCalls() {
    std::unique_lock<std::mutex> lock(call_mu);
    call_cv.wait(lock, [&] { return calls == 0; });
  }

  void Fail(Status status) {
    {
      std::lock_guard<std::mutex> lock(error_mu);
      if (first_error.ok()) first_error = std::move(status);
    }
    Close();  // Queued batches drain, but Next() fails fast on the status.
  }

  Status status() const {
    std::lock_guard<std::mutex> lock(error_mu);
    return first_error;
  }

  RecordSource* const source;
  LoaderPipelineOptions options;  // Caches and policy resolved.
  const int num_groups;
  const size_t records_per_epoch;
  /// Reads this stream may hold in each I/O worker's window.
  const int worker_reads;
  /// Batches the stream may hold between ticket issue and Next().
  std::atomic<int> credit;
  BoundedQueue<SharedLoadedBatch> output;

  std::mutex mu;  // Ticket issue and delivery accounting.
  RecordSampler sampler;
  int64_t tickets_issued = 0;
  int64_t ticket_limit = 0;  // 0 = unbounded.
  int64_t undelivered = 0;   // Issued, not yet in the output queue.
  std::atomic<bool> tickets_done{false};

  std::mutex call_mu;
  std::condition_variable call_cv;
  int calls = 0;  // Executor threads inside a call on `source`.
  std::atomic<bool> closed{false};

  mutable std::mutex error_mu;
  Status first_error;  // OK until a stage fails.

  StageStats io;
  StageStats decode;
  /// Records fetched but not yet delivered: queued raw or being decoded.
  std::atomic<int> decode_pending{0};
};

struct LoaderExecutor::RawItem {
  std::shared_ptr<Stream> stream;
  RawRecord raw;
};

// --- LoaderExecutor ----------------------------------------------------------

LoaderExecutor::LoaderExecutor(const LoaderPipelineOptions& options)
    : options_(options) {
  options_.io_threads = std::max(1, options_.io_threads);
  // Completion cookies carry the slot index in 16 bits.
  options_.io_inflight = std::clamp(options_.io_inflight, 1, 0xffff);
  options_.decode_threads = std::max(1, options_.decode_threads);
  options_.io_submit_batch = std::max(1, options_.io_submit_batch);
  options_.io_retry_attempts = std::max(1, options_.io_retry_attempts);
  // Room for two full windows per I/O worker: enough to keep every decode
  // worker fed while the next reads land.
  raw_queue_ = std::make_unique<BoundedQueue<RawItem>>(static_cast<size_t>(
      2 * options_.io_threads * options_.io_inflight));

  live_io_workers_.store(options_.io_threads);
  decode_workers_.reserve(options_.decode_threads);
  for (int t = 0; t < options_.decode_threads; ++t) {
    decode_workers_.emplace_back([this] { DecodeWorkerLoop(); });
  }
  io_workers_.reserve(options_.io_threads);
  for (int t = 0; t < options_.io_threads; ++t) {
    io_workers_.emplace_back(
        [this, t] { IoWorkerLoop(options_.seed + 0x9e37 * (t + 1)); });
  }
}

LoaderExecutor::~LoaderExecutor() { Shutdown(); }

void LoaderExecutor::Shutdown() {
  std::lock_guard<std::mutex> join(join_mu_);
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_.store(true);
    wake_seq_.fetch_add(1);
    for (const auto& stream : streams_) stream->Close();
  }
  work_cv_.notify_all();
  raw_queue_->Close();
  for (auto& worker : io_workers_) worker.join();
  for (auto& worker : decode_workers_) worker.join();
  io_workers_.clear();
  decode_workers_.clear();
}

void LoaderExecutor::Attach(std::shared_ptr<Stream> stream, bool last) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (shutdown_.load()) stream->Close();
    streams_.push_back(std::move(stream));
    sealed_ = last;
    streams_version_.fetch_add(1);
  }
  Kick();
}

void LoaderExecutor::Detach(const Stream* stream) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    streams_.erase(std::remove_if(streams_.begin(), streams_.end(),
                                  [&](const std::shared_ptr<Stream>& s) {
                                    return s.get() == stream;
                                  }),
                   streams_.end());
    streams_version_.fetch_add(1);
  }
  Kick();
}

void LoaderExecutor::Kick() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    wake_seq_.fetch_add(1);
  }
  work_cv_.notify_all();
}

void LoaderExecutor::IoWorkerLoop(uint64_t seed) {
  Rng rng(seed);
  const int window = options_.io_inflight;

  // The submission window: one slot per logical fetch in flight, each owned
  // by the stream whose ticket it serves. A slot holds its plan; the whole
  // plan goes to the scheduler as one scatter-gather request, so the
  // completion's bytes are the plan's fetched (non-resident) bytes in plan
  // order. A fetch may have up to two *branches* racing for the slot — the
  // current attempt and its hedge twin — and may be re-driven across the
  // plan's alternates on failure, so the completion cookie carries
  // (generation, branch, slot): a completion whose generation no longer
  // matches the slot's is a superseded attempt (hedge loser, a failure the
  // slot already failed over past, or a read its stream abandoned) and is
  // dropped.
  struct Slot {
    std::shared_ptr<Stream> stream;  // Null while the slot is free.
    FetchPlan plan;
    int64_t submit_nanos = 0;     // First submission of the current fetch.
    uint32_t generation = 0;      // Bumped per attempt and at finalize.
    int branches = 0;             // Outstanding submissions racing (0-2).
    size_t next_alternate = 0;    // Next untried plan.alternates entry.
    int hedge_alternate = -1;     // Alternate the hedge twin ran against.
    bool hedged = false;          // One hedge per attempt.
  };
  std::vector<Slot> slots(static_cast<size_t>(window));
  std::vector<int> free_slots;
  free_slots.reserve(static_cast<size_t>(window));
  for (int i = window - 1; i >= 0; --i) free_slots.push_back(i);
  int in_flight = 0;
  // Reads each stream holds in this window (capped at its worker_reads).
  std::unordered_map<const Stream*, int> reads_held;

  auto encode_cookie = [](uint32_t generation, int branch, int slot) {
    return (static_cast<uint64_t>(generation) << 32) |
           (static_cast<uint64_t>(branch) << 16) | static_cast<uint64_t>(slot);
  };
  auto take_slot = [&](std::shared_ptr<Stream> stream, FetchPlan plan) {
    const int slot_index = free_slots.back();
    free_slots.pop_back();
    Slot& slot = slots[static_cast<size_t>(slot_index)];
    ++reads_held[stream.get()];
    slot.stream = std::move(stream);
    slot.plan = std::move(plan);
    slot.next_alternate = 0;
    ++slot.generation;  // Fresh tenancy: prior tenants' strays are dead.
    ++in_flight;
    io_gauges_.SampleInFlight(in_flight);
    return slot_index;
  };
  // Retires the slot's fetch: a still-racing twin becomes a dead letter.
  auto release_slot = [&](int slot_index) {
    Slot& slot = slots[static_cast<size_t>(slot_index)];
    ++slot.generation;
    slot.branches = 0;
    auto held = reads_held.find(slot.stream.get());
    if (--held->second == 0) reads_held.erase(held);
    slot.stream.reset();
    free_slots.push_back(slot_index);
    --in_flight;
    io_gauges_.SampleInFlight(in_flight);
  };

  // One scheduler per backend Env: a plain source has one, a sharded source
  // one per shard backend, a replicated source one per replica actually
  // read. Workers own their schedulers, so the window is per worker and
  // teardown joins only this worker's outstanding reads. Transient backend
  // errors retry below this layer (storage/io_retry.h): the loop here only
  // ever sees failures worth failing over. Scheduler counters fold into the
  // worker gauges as deltas after every completion.
  struct Backend {
    Env* env;
    std::unique_ptr<IoScheduler> scheduler;
    IoSchedulerStats folded;
  };
  std::vector<Backend> schedulers;
  size_t wait_cursor = 0;  // Round-robin across backends when waiting.
  auto scheduler_for = [&](Env* env) -> IoScheduler* {
    for (Backend& backend : schedulers) {
      if (backend.env == env) return backend.scheduler.get();
    }
    IoSchedulerOptions scheduler_options;
    // Hedges can double the branches held against one backend, so the
    // scheduler gets headroom beyond the logical window.
    const int depth = window * (options_.hedged_reads ? 2 : 1);
    scheduler_options.queue_depth = depth;
    // Every in-flight read may block a service thread in pread.
    scheduler_options.io_threads = depth;
    scheduler_options.backend = options_.io_backend;
    scheduler_options.submit_batch = options_.io_submit_batch;
    std::unique_ptr<IoScheduler> scheduler =
        env->NewIoScheduler(scheduler_options);
    if (options_.io_retry_attempts > 1) {
      RetryPolicy policy;
      policy.max_attempts = options_.io_retry_attempts;
      policy.initial_backoff_sec = kRetryBackoffSec;
      scheduler =
          NewRetryingIoScheduler(std::move(scheduler), policy, env->clock());
    }
    io_backend_name_.store(scheduler->backend_name(),
                           std::memory_order_relaxed);
    schedulers.push_back(Backend{env, std::move(scheduler), {}});
    return schedulers.back().scheduler.get();
  };
  auto fold_scheduler_stats = [&] {
    for (Backend& backend : schedulers) {
      const IoSchedulerStats now = backend.scheduler->stats();
      IoSchedulerStats delta;
      delta.requests = now.requests - backend.folded.requests;
      delta.segments = now.segments - backend.folded.segments;
      delta.ops = now.ops - backend.folded.ops;
      delta.submits = now.submits - backend.folded.submits;
      delta.syscalls = now.syscalls - backend.folded.syscalls;
      delta.retries = now.retries - backend.folded.retries;
      io_gauges_.AddSchedulerStats(delta);
      backend.folded = now;
    }
  };

  // Worker-local recent fetch latencies drive the hedge deadline: hedging
  // keys off this worker's own observed service times. The streams' rings
  // feed reporting only.
  constexpr size_t kLatencyWindow = 256;
  constexpr int64_t kMinHedgeSamples = 16;
  std::vector<double> recent_latencies;
  recent_latencies.reserve(kLatencyWindow);
  size_t latency_cursor = 0;
  int64_t latency_count = 0;
  auto record_latency = [&](Stream& stream, double seconds) {
    if (recent_latencies.size() < kLatencyWindow) {
      recent_latencies.push_back(seconds);
    } else {
      recent_latencies[latency_cursor] = seconds;
      latency_cursor = (latency_cursor + 1) % kLatencyWindow;
    }
    ++latency_count;
    stream.io.AddFetchLatency(seconds);
  };
  // The adaptive hedge deadline in nanos, or -1 while too few fetches have
  // completed to estimate the percentile.
  auto hedge_deadline_nanos = [&]() -> int64_t {
    if (latency_count < kMinHedgeSamples) return -1;
    std::vector<double> sorted(recent_latencies);
    std::sort(sorted.begin(), sorted.end());
    const double p = std::clamp(options_.hedge_percentile, 0.0, 100.0);
    const size_t index = static_cast<size_t>(
        p / 100.0 * static_cast<double>(sorted.size() - 1));
    const double deadline_sec =
        std::clamp(sorted[index] * options_.hedge_latency_factor,
                   options_.hedge_min_sec, kHedgeMaxSec);
    return static_cast<int64_t>(deadline_sec * 1e9);
  };

  // Duplicates any fetch past its deadline to its next untried alternate
  // (first completion wins the slot). Returns nanos until the earliest
  // not-yet-due hedge, or -1 when nothing is eligible.
  auto maybe_hedge = [&]() -> int64_t {
    if (!options_.hedged_reads || in_flight == 0) return -1;
    const int64_t deadline = hedge_deadline_nanos();
    if (deadline < 0) return -1;
    const int64_t now = NowNanos();
    int64_t next_wait = -1;
    for (int s = 0; s < window; ++s) {
      Slot& slot = slots[static_cast<size_t>(s)];
      if (slot.branches != 1 || slot.hedged || !slot.stream->live()) continue;
      if (slot.next_alternate >= slot.plan.alternates.size()) continue;
      const int64_t age = now - slot.submit_nanos;
      if (age < deadline) {
        const int64_t wait = deadline - age;
        if (next_wait < 0 || wait < next_wait) next_wait = wait;
        continue;
      }
      const FetchAlternate& alt = slot.plan.alternates[slot.next_alternate];
      ReadRequest request;
      request.user_data = encode_cookie(slot.generation, 1, s);
      for (const FetchSegment& seg : alt.segments) {
        if (!seg.resident) {
          request.segments.push_back(
              ReadSegment{seg.path, seg.offset, seg.length});
        }
      }
      slot.hedged = true;  // One hedge per attempt, whether or not it lands.
      if (!scheduler_for(alt.env)->SubmitRead(std::move(request)).ok()) {
        continue;  // Backend refused (full or failing): forfeit the hedge.
      }
      slot.hedge_alternate = static_cast<int>(slot.next_alternate);
      ++slot.next_alternate;
      slot.branches = 2;
      slot.stream->io.AddHedge();
    }
    return next_wait;
  };

  // Scores the replica a fetch attempt ran against.
  auto report_outcome = [&](Stream& stream, const FetchPlan& plan,
                            const Status& status) {
    if (!stream.EnterSourceCall()) return;
    stream.source->ReportFetchOutcome(plan, status);
    stream.ExitSourceCall();
  };

  // CompleteFetch + hand the raw record to the decode workers. `bytes` are
  // the plan's fetched bytes (empty for fully-resident plans).
  auto finish_fetch = [&](const std::shared_ptr<Stream>& stream,
                          const FetchPlan& plan, std::string bytes) {
    Stream& s = *stream;
    if (!s.EnterSourceCall()) return;  // Stopped: drop the record.
    const int64_t complete_start = NowNanos();
    auto raw = s.source->CompleteFetch(plan, std::move(bytes));
    s.ExitSourceCall();
    PrefixCache* const prefixes = s.options.prefix_cache.get();
    if (raw.ok() && prefixes != nullptr && !raw->payload.empty() &&
        prefixes->Admits(raw->payload.size())) {
      // The payload is the record file's on-storage prefix at this group;
      // keep it so later fetches of the record plan around it.
      prefixes->Insert(s.options.prefix_dataset_id, plan.record,
                       raw->scan_group,
                       std::make_shared<const std::string>(raw->payload));
    }
    s.io.AddBusyNanos(NowNanos() - complete_start);
    if (!raw.ok()) {
      s.Fail(raw.status().WithContext("loader I/O stage"));
      return;
    }
    s.io.AddItem(raw->bytes_read);
    s.decode_pending.fetch_add(1, std::memory_order_relaxed);
    const int64_t push_start = NowNanos();
    const bool pushed =
        raw_queue_->Push(RawItem{stream, std::move(raw).MoveValue()});
    io_gauges_.AddIdleNanos(NowNanos() - push_start);
    if (!pushed) {  // Queue closed: shutdown.
      s.decode_pending.fetch_sub(1, std::memory_order_relaxed);
      return;
    }
    io_gauges_.SampleQueueDepth(raw_queue_->size());
  };

  // The whole plan as one request: adjacent segments become one vectored op
  // on backends that support it, and resident segments never reach storage.
  // (Re)submits the slot's current plan as branch 0 of its generation —
  // the initial attempt and every failover re-drive go through here.
  auto submit_slot = [&](int slot_index) -> Status {
    Slot& slot = slots[static_cast<size_t>(slot_index)];
    slot.submit_nanos = NowNanos();
    slot.hedged = false;
    slot.hedge_alternate = -1;
    slot.branches = 1;
    ReadRequest request =
        slot.plan.ToReadRequest(encode_cookie(slot.generation, 0, slot_index));
    return scheduler_for(slot.plan.env)->SubmitRead(std::move(request));
  };

  // A scheduler that fails a bounded wait is broken: every stream reading
  // through this worker fails, and the worker starts over with fresh
  // schedulers.
  auto abandon_window = [&](const Status& status) {
    for (int s = 0; s < window; ++s) {
      Slot& slot = slots[static_cast<size_t>(s)];
      if (slot.stream == nullptr) continue;
      slot.stream->Fail(status.WithContext("loader I/O stage"));
      release_slot(s);
    }
    fold_scheduler_stats();
    schedulers.clear();
    wait_cursor = 0;
  };

  std::vector<std::shared_ptr<Stream>> streams;  // This worker's copy.
  uint64_t streams_version = ~uint64_t{0};
  size_t stream_cursor = 0;  // Round-robin over `streams`.
  int64_t unbilled_wait = 0;  // Completion wait not yet charged to a stream.
  while (!shutdown_.load(std::memory_order_relaxed)) {
    const uint64_t seen = wake_seq_.load();
    if (streams_version_.load() != streams_version) {
      std::lock_guard<std::mutex> lock(mu_);
      streams = streams_;
      streams_version = streams_version_.load();
    }

    // Fill the window: issue tickets round-robin over the streams that have
    // credit and room in this window. Cache hits bypass the window entirely
    // (no fetch, no decode): they alias the immutable entry and go straight
    // to the stream's output queue.
    while (in_flight < window && !shutdown_.load(std::memory_order_relaxed)) {
      std::shared_ptr<Stream> stream;
      int record = 0;
      std::shared_ptr<ScanGroupPolicy> policy;
      for (size_t i = 0; i < streams.size(); ++i) {
        const size_t at = (stream_cursor + i) % streams.size();
        const auto held = reads_held.find(streams[at].get());
        if (held != reads_held.end() &&
            held->second >= streams[at]->worker_reads) {
          continue;
        }
        if (streams[at]->TakeTicket(&record, &policy)) {
          stream = streams[at];
          stream_cursor = at + 1;
          break;
        }
      }
      if (stream == nullptr) break;
      Stream& s = *stream;
      // Clamp like PlanFetch will, so cache keys match what gets stored.
      const int group =
          std::clamp(policy->Select(s.num_groups, &rng), 1, s.num_groups);

      if (DecodeCache* const cache = s.options.decode_cache.get()) {
        const DecodeCacheKey key{s.options.cache_dataset_id, record, group};
        if (auto cached = cache->Lookup(key)) {
          s.io.AddCacheHit();
          // Zero-copy delivery: alias the cache's entry instead of deep-
          // copying it. The wrapper's bytes_read = 0 records that this
          // delivery read nothing from storage (the shared entry keeps the
          // original fetch size for its own books).
          s.io.AddZeroCopyHit(DecodeCache::BatchBytes(*cached));
          SharedLoadedBatch item;
          item.batch = std::move(cached);
          item.bytes_read = 0;
          item.zero_copy = true;
          s.Deliver(std::move(item));
          continue;
        }
        s.io.AddCacheMiss();
      }

      const int64_t plan_start = NowNanos();
      std::optional<FetchResident> resident;
      if (PrefixCache* const prefixes = s.options.prefix_cache.get()) {
        resident = prefixes->Lookup(s.options.prefix_dataset_id, record);
        if (resident.has_value()) {
          s.io.AddPrefixHit();
        } else {
          s.io.AddPrefixMiss();
        }
      }
      if (!s.EnterSourceCall()) continue;  // Stopped since the ticket.
      auto plan = s.source->PlanFetch(
          record, group, resident.has_value() ? &*resident : nullptr);
      s.ExitSourceCall();
      if (!plan.ok()) {
        s.io.AddBusyNanos(NowNanos() - plan_start);
        s.Fail(plan.status().WithContext("loader I/O stage"));
        continue;
      }
      if (plan->fetch_bytes() == 0) {
        // Fully resident (or empty): no storage I/O, complete right away.
        // No outcome report — replica health scores storage attempts only.
        s.io.AddBusyNanos(NowNanos() - plan_start);
        finish_fetch(stream, *plan, std::string());
        continue;
      }
      const int slot_index = take_slot(stream, std::move(plan).MoveValue());
      Status submitted = submit_slot(slot_index);
      s.io.AddBusyNanos(NowNanos() - plan_start);
      if (!submitted.ok()) {
        s.Fail(std::move(submitted).WithContext("loader I/O stage"));
        release_slot(slot_index);
      }
    }

    if (in_flight == 0) {
      // Nothing to wait on: park until a stream may have become eligible.
      // An executor built for one stream retires once that stream is done,
      // sealing the raw queue behind it as the last worker out.
      std::unique_lock<std::mutex> lock(mu_);
      if (sealed_ && std::all_of(streams_.begin(), streams_.end(),
                                 [](const std::shared_ptr<Stream>& s) {
                                   return !s->live() || s->tickets_done.load();
                                 })) {
        break;
      }
      const int64_t idle_start = NowNanos();
      work_cv_.wait(lock, [&] {
        return wake_seq_.load() != seen || shutdown_.load();
      });
      io_gauges_.AddIdleNanos(NowNanos() - idle_start);
      continue;
    }

    // Drain one completion. The wait is storage service time (busy): with a
    // full window this is where the worker sits while the device works
    // through its queue. Ready completions on any backend are taken first;
    // the worker then waits in bounded slices — never a blocking
    // WaitCompletion — so hedge deadlines and shutdown stay observed even
    // against a backend that never completes (a wedged read cannot hang
    // teardown). With room in the window it also leaves the wait when a
    // stream may have become eligible, to fill it. With several backends
    // holding reads it polls them all at a short cadence instead —
    // committing to one backend's wait would idle a fast shard's completed
    // reads behind a slow shard's latency.
    constexpr int64_t kWaitSliceNanos = 10'000'000;     // 10 ms.
    constexpr int64_t kRefillSliceNanos = 1'000'000;    // 1 ms.
    constexpr int64_t kMinWaitSliceNanos = 100'000;     // 100 us.
    const int64_t wait_start = NowNanos();
    std::optional<ReadCompletion> completion;
    while (!completion.has_value() &&
           !shutdown_.load(std::memory_order_relaxed)) {
      // Hedge first: a straggler past its deadline gets its duplicate
      // submitted before the worker parks again.
      const int64_t next_hedge_wait = maybe_hedge();
      IoScheduler* only_pending = nullptr;
      int backends_pending = 0;
      for (size_t i = 0; i < schedulers.size(); ++i) {
        Backend& candidate = schedulers[(wait_cursor + i) % schedulers.size()];
        if (candidate.scheduler->in_flight() == 0) continue;
        ++backends_pending;
        only_pending = candidate.scheduler.get();
        completion = candidate.scheduler->PollCompletion();
        if (completion.has_value()) {
          wait_cursor = (wait_cursor + i + 1) % schedulers.size();
          break;
        }
      }
      if (completion.has_value()) break;
      if (backends_pending == 0) break;  // Defensive; in_flight > 0 here.
      const bool room = in_flight < window;
      if (room && wake_seq_.load() != seen) break;  // Go fill the window.
      if (backends_pending == 1) {
        // Cut the slice to the next hedge deadline so a straggler's
        // duplicate goes out on time.
        int64_t slice = room ? kRefillSliceNanos : kWaitSliceNanos;
        if (next_hedge_wait >= 0) {
          slice = std::clamp(next_hedge_wait, kMinWaitSliceNanos, slice);
        }
        auto waited = only_pending->WaitCompletionFor(slice);
        if (!waited.ok()) {
          abandon_window(waited.status());
          break;
        }
        if (waited->has_value()) completion = std::move(**waited);
        continue;  // Timed out: recheck hedges, new work and shutdown.
      }
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
    unbilled_wait += NowNanos() - wait_start;
    if (!completion.has_value()) continue;
    fold_scheduler_stats();

    // Match the completion to its slot through the cookie. A stale
    // generation is a superseded branch — the loser of a hedge race, or an
    // attempt the slot already finished or failed over past — drop it.
    const uint64_t cookie = completion->user_data;
    const int slot_index = static_cast<int>(cookie & 0xffff);
    const bool hedge_branch = ((cookie >> 16) & 0xffff) == 1;
    Slot& slot = slots[static_cast<size_t>(slot_index)];
    if (static_cast<uint32_t>(cookie >> 32) != slot.generation ||
        slot.branches == 0) {
      continue;
    }
    --slot.branches;
    const std::shared_ptr<Stream> stream = slot.stream;
    stream->io.AddBusyNanos(unbilled_wait);
    unbilled_wait = 0;
    if (!stream->live()) {
      // Stopped or failed: the read is abandoned without touching the
      // stream's source.
      release_slot(slot_index);
      continue;
    }
    if (completion->status.ok()) {
      if (hedge_branch) {
        // The duplicate finished first: the slot's plan becomes the
        // alternate it ran against (CompleteFetch and replica scoring
        // route by the plan's replica).
        stream->io.AddHedgeWin();
        slot.plan.UseAlternate(
            slot.plan.alternates[static_cast<size_t>(slot.hedge_alternate)]);
      }
      report_outcome(*stream, slot.plan, completion->status);
      record_latency(*stream,
                     static_cast<double>(NowNanos() - slot.submit_nanos) *
                         1e-9);
      const FetchPlan plan = std::move(slot.plan);
      release_slot(slot_index);
      finish_fetch(stream, plan, std::move(completion->bytes));
      continue;
    }
    // This branch failed for good (transient errors already retried below
    // this layer). Score the replica actually attempted, then fail over —
    // unless the hedge twin is still racing, in which case it already is
    // the failover in flight.
    if (hedge_branch) {
      FetchPlan attempted = slot.plan;
      attempted.UseAlternate(
          slot.plan.alternates[static_cast<size_t>(slot.hedge_alternate)]);
      report_outcome(*stream, attempted, completion->status);
    } else {
      report_outcome(*stream, slot.plan, completion->status);
    }
    if (slot.branches > 0) continue;
    if (slot.next_alternate < slot.plan.alternates.size()) {
      slot.plan.UseAlternate(slot.plan.alternates[slot.next_alternate]);
      ++slot.next_alternate;
      ++slot.generation;  // New attempt; strays of the old one are dead.
      stream->io.AddFailover();
      Status submitted = submit_slot(slot_index);
      if (!submitted.ok()) {
        stream->Fail(std::move(submitted).WithContext("loader I/O stage"));
        release_slot(slot_index);
      }
      continue;
    }
    // Replicas exhausted: the fetch is lost and the stream fails.
    stream->Fail(completion->status.WithContext("loader I/O stage"));
    release_slot(slot_index);
  }
  // Slots still in flight at shutdown are dropped here: the schedulers'
  // destructors discard the outstanding completions.
  fold_scheduler_stats();
  // Last I/O worker out seals the raw queue: decode drains what was fetched.
  if (live_io_workers_.fetch_sub(1) == 1) raw_queue_->Close();
}

void LoaderExecutor::DecodeWorkerLoop() {
  // Per-worker reusable decode buffers: coefficient planes and YCbCr
  // staging are allocated once and recycled across every record this
  // worker decodes.
  jpeg::DecodeScratch scratch;
  for (;;) {
    const int64_t pop_start = NowNanos();
    std::optional<RawItem> item = raw_queue_->Pop();
    decode_gauges_.AddIdleNanos(NowNanos() - pop_start);
    if (!item.has_value()) break;  // Sealed and drained.
    Stream& s = *item->stream;
    const int record = item->raw.record;
    const int group = item->raw.scan_group;
    const uint64_t bytes = item->raw.bytes_read;
    // After Stop(), a failure or shutdown, decoding is wasted work and the
    // source is off limits: drop the record.
    if (shutdown_.load(std::memory_order_relaxed) || !s.EnterSourceCall()) {
      s.decode_pending.fetch_sub(1, std::memory_order_relaxed);
      continue;
    }
    const int64_t work_start = NowNanos();
    Result<RecordBatch> assembled = s.source->AssembleRecord(
        std::move(item->raw));
    s.ExitSourceCall();
    Result<LoadedBatch> batch =
        !assembled.ok() ? Result<LoadedBatch>(assembled.status())
        : s.options.decode
            ? DecodeRecordBatch(std::move(assembled).MoveValue(), record,
                                group, &scratch)
            : CompressedBatch(std::move(assembled).MoveValue(), record, group);
    s.decode.AddBusyNanos(NowNanos() - work_start);
    if (!batch.ok()) {
      s.Fail(batch.status().WithContext("loader decode stage"));
      s.decode_pending.fetch_sub(1, std::memory_order_relaxed);
      continue;
    }
    s.decode.AddItem(bytes);

    // Cache population: the copy happens here, off the consumer path and
    // before the push (so the consumer's batch stays uniquely owned and
    // Next() can steal it without copying); the insert itself — a single
    // move — waits until after the push so the consumer is unblocked first.
    DecodeCache* const cache = s.options.decode_cache.get();
    std::optional<LoadedBatch> to_cache;
    DecodeCacheKey cache_key;
    if (cache != nullptr) {
      cache_key = DecodeCacheKey{s.options.cache_dataset_id,
                                 batch->record_index, batch->scan_group};
      if (cache->Admits(cache_key, DecodeCache::BatchBytes(*batch))) {
        const int64_t copy_start = NowNanos();
        to_cache.emplace(*batch);
        s.decode.AddBytesCopied(DecodeCache::BatchBytes(*batch));
        s.decode.AddBusyNanos(NowNanos() - copy_start);
      }
    }

    SharedLoadedBatch out;
    // Deliberately a non-const object under a pointer-to-const: Next() may
    // legally const_cast and steal it when the consumer is the sole owner.
    out.batch = std::make_shared<LoadedBatch>(std::move(batch).MoveValue());
    out.bytes_read = out.batch->bytes_read;
    out.zero_copy = false;

    // Drop the pending mark before the push: a consumer woken by this batch
    // then sees a consistent picture (work either pending or in the output
    // queue, never in the gap between).
    s.decode_pending.fetch_sub(1, std::memory_order_relaxed);
    s.Deliver(std::move(out));
    if (to_cache.has_value()) cache->Insert(cache_key, std::move(*to_cache));
    s.decode.SampleQueueDepth(s.output.size());
  }
}

void LoaderExecutor::AddIoGauges(StageStatsSnapshot* snap) const {
  const StageStatsSnapshot workers = io_gauges_.Snapshot("io", 0, 0);
  snap->idle_seconds = workers.idle_seconds;
  snap->mean_queue_depth = workers.mean_queue_depth;
  snap->mean_in_flight = workers.mean_in_flight;
  snap->submission_window = options_.io_inflight;
  snap->io_requests = workers.io_requests;
  snap->io_segments = workers.io_segments;
  snap->io_ops = workers.io_ops;
  snap->io_submits = workers.io_submits;
  snap->io_syscalls = workers.io_syscalls;
  snap->io_retries = workers.io_retries;
  const char* backend = io_backend_name_.load(std::memory_order_relaxed);
  if (backend != nullptr) snap->io_backend = backend;
}

void LoaderExecutor::AddDecodeGauges(StageStatsSnapshot* snap) const {
  snap->idle_seconds = decode_gauges_.Snapshot("decode", 0, 0).idle_seconds;
}

// --- LoaderPipeline ----------------------------------------------------------

LoaderPipeline::LoaderPipeline(RecordSource* source,
                               LoaderPipelineOptions options)
    : LoaderPipeline(source, options,
                     std::make_shared<LoaderExecutor>(options),
                     /*private_executor=*/true) {}

LoaderPipeline::LoaderPipeline(RecordSource* source,
                               LoaderPipelineOptions options,
                               std::shared_ptr<LoaderExecutor> executor)
    : LoaderPipeline(source, std::move(options), std::move(executor),
                     /*private_executor=*/false) {}

LoaderPipeline::LoaderPipeline(RecordSource* source,
                               LoaderPipelineOptions options,
                               std::shared_ptr<LoaderExecutor> executor,
                               bool private_executor)
    : executor_(std::move(executor)), private_executor_(private_executor) {
  PCR_CHECK(source != nullptr);
  PCR_CHECK(executor_ != nullptr);
  PCR_CHECK_GT(source->num_records(), 0);
  stream_ = std::make_shared<LoaderExecutor::Stream>(
      source, std::move(options), executor_->options_);
  executor_->Attach(stream_, /*last=*/private_executor_);
}

LoaderPipeline::~LoaderPipeline() { Stop(); }

void LoaderPipeline::Stop() {
  stream_->Close();
  stream_->AwaitSourceCalls();
  executor_->Detach(stream_.get());
  if (private_executor_) executor_->Shutdown();
}

Status LoaderPipeline::status() const { return stream_->status(); }

size_t LoaderPipeline::records_per_epoch() const {
  return stream_->records_per_epoch;
}

void LoaderPipeline::set_scan_policy(std::shared_ptr<ScanGroupPolicy> policy) {
  PCR_CHECK(policy != nullptr);
  std::lock_guard<std::mutex> lock(stream_->mu);
  stream_->options.scan_policy = std::move(policy);
}

const std::shared_ptr<DecodeCache>& LoaderPipeline::decode_cache() const {
  return stream_->options.decode_cache;
}

uint64_t LoaderPipeline::cache_dataset_id() const {
  return stream_->options.cache_dataset_id;
}

const std::shared_ptr<PrefixCache>& LoaderPipeline::prefix_cache() const {
  return stream_->options.prefix_cache;
}

uint64_t LoaderPipeline::prefix_dataset_id() const {
  return stream_->options.prefix_dataset_id;
}

Result<LoadedBatch> LoaderPipeline::Next() {
  Result<SharedLoadedBatch> shared = NextShared();
  if (!shared.ok()) return shared.status();
  SharedLoadedBatch item = std::move(shared).MoveValue();
  LoadedBatch out;
  if (!item.zero_copy && item.batch.use_count() == 1) {
    // Sole owner of a decode-stage batch (stored non-const; see
    // DecodeWorkerLoop): steal it instead of copying.
    out = std::move(const_cast<LoadedBatch&>(*item.batch));
  } else {
    // Aliases the decode cache's (genuinely const) entry — value semantics
    // require the deep copy here. Reference consumers use NextShared().
    out = *item.batch;
  }
  out.bytes_read = item.bytes_read;
  return out;
}

Result<SharedLoadedBatch> LoaderPipeline::NextShared() {
  LoaderExecutor::Stream& s = *stream_;
  {
    // Fail fast: a recorded stage failure outranks queued batches.
    Status failed = s.status();
    if (!failed.ok()) return failed;
  }
  std::optional<SharedLoadedBatch> batch = s.output.TryPop();
  if (!batch.has_value()) {
    // The stream's raw bytes sitting in (or moving through) the decode
    // workers mean storage has delivered and CPU is the laggard.
    const bool decode_busy_at_start =
        s.decode_pending.load(std::memory_order_relaxed) > 0;
    const int64_t stall_start = NowNanos();
    batch = s.output.Pop();
    const int64_t waited = NowNanos() - stall_start;
    // A data stall — but only if a batch resolved it; a wait ended by
    // Stop(), a stage failure, or end-of-stream is teardown, not stalling.
    // Decode-bound if the stream had records waiting for decode at either
    // edge of the stall: at the start it means the stalled-on record was
    // already fetched; at the end it means decode is still backed up. An
    // io-bound stall (storage quiet, decode idle) shows neither — including
    // a stall resolved by a cache hit, which the I/O workers serve.
    if (batch.has_value()) {
      const bool decode_bound =
          decode_busy_at_start ||
          s.decode_pending.load(std::memory_order_relaxed) > 0;
      (decode_bound ? decode_stall_nanos_ : io_stall_nanos_)
          .fetch_add(waited, std::memory_order_relaxed);
    }
  }
  if (!batch.has_value()) {
    Status failed = s.status();
    if (!failed.ok()) return failed;
    if (!s.live()) return Status::Aborted("loader pipeline stopped");
    return Status::OutOfRange("loader pipeline: end of stream");
  }
  // Return the ticket's credit; a stream that had run dry may take tickets
  // again.
  if (s.credit.fetch_add(1) == 0) executor_->Kick();
  batches_delivered_.fetch_add(1, std::memory_order_relaxed);
  return std::move(*batch);
}

double LoaderPipeline::stall_seconds() const {
  return io_stall_seconds() + decode_stall_seconds();
}

double LoaderPipeline::io_stall_seconds() const {
  return io_stall_nanos_.load(std::memory_order_relaxed) * 1e-9;
}

double LoaderPipeline::decode_stall_seconds() const {
  return decode_stall_nanos_.load(std::memory_order_relaxed) * 1e-9;
}

StageStatsSnapshot LoaderPipeline::io_stats() const {
  StageStatsSnapshot snap = stream_->io.Snapshot(
      "io", executor_->io_threads(), executor_->raw_queue_->capacity());
  executor_->AddIoGauges(&snap);
  if (stream_->options.decode_cache != nullptr) {
    const DecodeCacheStats cache = stream_->options.decode_cache->stats();
    snap.cache_evictions = cache.evictions;
    snap.cache_bytes = cache.bytes_in_use;
  }
  return snap;
}

StageStatsSnapshot LoaderPipeline::decode_stats() const {
  StageStatsSnapshot snap = stream_->decode.Snapshot(
      "decode", executor_->decode_threads(), stream_->output.capacity());
  executor_->AddDecodeGauges(&snap);
  return snap;
}

}  // namespace pcr
