#include "loader/pipeline.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <optional>
#include <thread>

#include "storage/io_retry.h"
#include "util/logging.h"

namespace pcr {

namespace {

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

}  // namespace

LoaderPipeline::LoaderPipeline(RecordSource* source,
                               LoaderPipelineOptions options)
    : source_(source), options_(std::move(options)),
      fetch_queue_(
          static_cast<size_t>(std::max(1, options_.fetch_queue_depth))),
      output_queue_(
          static_cast<size_t>(std::max(1, options_.output_queue_depth))) {
  PCR_CHECK(source != nullptr);
  PCR_CHECK_GT(source->num_records(), 0);
  options_.io_threads = std::max(1, options_.io_threads);
  options_.io_inflight = std::max(1, options_.io_inflight);
  options_.decode_threads = std::max(1, options_.decode_threads);
  options_.decode_pop_batch = std::max(1, options_.decode_pop_batch);
  if (options_.scan_policy == nullptr) {
    options_.scan_policy =
        std::make_shared<FixedScanPolicy>(source->num_scan_groups());
  }
  if (!options_.decode) {
    options_.decode_cache = nullptr;  // Cache stores decoded batches only.
  } else if (options_.decode_cache == nullptr &&
             options_.decode_cache_bytes > 0) {
    DecodeCacheOptions cache_options;
    cache_options.capacity_bytes = options_.decode_cache_bytes;
    cache_options.shards = options_.decode_cache_shards;
    options_.decode_cache = std::make_shared<DecodeCache>(cache_options);
  }
  if (options_.decode_cache != nullptr && options_.cache_dataset_id == 0) {
    options_.cache_dataset_id = options_.decode_cache->RegisterDataset();
  }
  options_.io_submit_batch = std::max(1, options_.io_submit_batch);
  options_.io_retry_attempts = std::max(1, options_.io_retry_attempts);
  // Completion cookies carry the slot index in 16 bits.
  options_.io_inflight = std::min(options_.io_inflight, 0xffff);
  if (options_.prefix_cache == nullptr && options_.prefix_cache_bytes > 0) {
    PrefixCacheOptions prefix_options;
    prefix_options.capacity_bytes = options_.prefix_cache_bytes;
    options_.prefix_cache = std::make_shared<PrefixCache>(prefix_options);
  }
  if (options_.prefix_cache != nullptr && options_.prefix_dataset_id == 0) {
    options_.prefix_dataset_id = options_.prefix_cache->RegisterDataset();
  }
  sampler_ = std::make_unique<RecordSampler>(
      source->num_records(), options_.shuffle, options_.seed);
  if (options_.max_epochs > 0) {
    ticket_limit_ = static_cast<int64_t>(options_.max_epochs) *
                    static_cast<int64_t>(source->num_records());
  }

  live_io_workers_.store(options_.io_threads);
  live_decode_workers_.store(options_.decode_threads);
  decode_pool_ = std::make_unique<ThreadPool>(
      static_cast<size_t>(options_.decode_threads));
  for (int t = 0; t < options_.decode_threads; ++t) {
    decode_pool_->Submit([this] { DecodeWorkerLoop(); });
  }
  io_workers_.reserve(options_.io_threads);
  for (int t = 0; t < options_.io_threads; ++t) {
    io_workers_.emplace_back(
        [this, t] { IoWorkerLoop(options_.seed + 0x9e37 * (t + 1)); });
  }
}

LoaderPipeline::~LoaderPipeline() { Stop(); }

void LoaderPipeline::RecordError(Status status) {
  {
    std::lock_guard<std::mutex> lock(error_mu_);
    if (first_error_.ok()) first_error_ = std::move(status);
  }
  // Tear the stream down: wake every blocked worker. Queued items drain, but
  // Next() fails fast on the recorded status.
  fetch_queue_.Close();
  output_queue_.Close();
}

Status LoaderPipeline::status() const {
  std::lock_guard<std::mutex> lock(error_mu_);
  return first_error_;
}

void LoaderPipeline::set_scan_policy(std::shared_ptr<ScanGroupPolicy> policy) {
  PCR_CHECK(policy != nullptr);
  std::lock_guard<std::mutex> lock(sampler_mu_);
  options_.scan_policy = std::move(policy);
}

void LoaderPipeline::IoWorkerLoop(uint64_t seed) {
  Rng rng(seed);
  const int num_groups = source_->num_scan_groups();
  DecodeCache* const cache = options_.decode_cache.get();
  PrefixCache* const prefixes = options_.prefix_cache.get();
  const uint64_t prefix_id = options_.prefix_dataset_id;
  const int window = options_.io_inflight;

  // The submission window: one slot per logical fetch in flight. A slot
  // holds its plan; the whole plan goes to the scheduler as one
  // scatter-gather request, so the completion's bytes are the plan's fetched
  // (non-resident) bytes in plan order. A fetch may have up to two
  // *branches* racing for the slot — the current attempt and its hedge twin
  // — and may be re-driven across the plan's alternates on failure, so the
  // completion cookie carries (generation, branch, slot): a completion whose
  // generation no longer matches the slot's is a superseded attempt (hedge
  // loser, or a failure the slot already failed over past) and is dropped.
  struct Slot {
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

  auto encode_cookie = [](uint32_t generation, int branch, int slot) {
    return (static_cast<uint64_t>(generation) << 32) |
           (static_cast<uint64_t>(branch) << 16) | static_cast<uint64_t>(slot);
  };

  // One scheduler per backend Env: a plain source has one, a sharded source
  // one per shard backend, a replicated source one per replica actually
  // read. Workers own their schedulers, so the window is per worker and
  // teardown joins only this worker's outstanding reads. Transient backend
  // errors retry below this layer (storage/io_retry.h): the loop here only
  // ever sees failures worth failing over.
  std::vector<std::pair<Env*, std::unique_ptr<IoScheduler>>> schedulers;
  size_t wait_cursor = 0;  // Round-robin across backends when waiting.
  auto scheduler_for = [&](Env* env) -> IoScheduler* {
    for (auto& [scheduler_env, scheduler] : schedulers) {
      if (scheduler_env == env) return scheduler.get();
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
      policy.initial_backoff_sec = options_.io_retry_backoff_sec;
      scheduler =
          NewRetryingIoScheduler(std::move(scheduler), policy, env->clock());
    }
    schedulers.emplace_back(env, std::move(scheduler));
    io_backend_name_.store(schedulers.back().second->backend_name(),
                           std::memory_order_relaxed);
    return schedulers.back().second.get();
  };

  // Worker-local recent fetch latencies drive the hedge deadline: hedging
  // keys off this worker's own observed service times. The shared stage
  // ring (io_stats_) feeds reporting only.
  constexpr size_t kLatencyWindow = 256;
  constexpr int64_t kMinHedgeSamples = 16;
  std::vector<double> recent_latencies;
  recent_latencies.reserve(kLatencyWindow);
  size_t latency_cursor = 0;
  int64_t latency_count = 0;
  auto record_latency = [&](double seconds) {
    if (recent_latencies.size() < kLatencyWindow) {
      recent_latencies.push_back(seconds);
    } else {
      recent_latencies[latency_cursor] = seconds;
      latency_cursor = (latency_cursor + 1) % kLatencyWindow;
    }
    ++latency_count;
    io_stats_.AddFetchLatency(seconds);
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
                   options_.hedge_min_sec, options_.hedge_max_sec);
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
      if (slot.branches != 1 || slot.hedged) continue;
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
      io_stats_.AddHedge();
    }
    return next_wait;
  };

  // CompleteFetch + hand the raw record to the decode stage; frees the slot.
  // `bytes` are the plan's fetched bytes (empty for fully-resident plans).
  auto finish_slot = [&](int slot_index, std::string bytes) -> bool {
    Slot& slot = slots[static_cast<size_t>(slot_index)];
    const int64_t complete_start = NowNanos();
    auto raw = source_->CompleteFetch(slot.plan, std::move(bytes));
    if (raw.ok() && prefixes != nullptr && !raw->payload.empty() &&
        prefixes->Admits(raw->payload.size())) {
      // The payload is the record file's on-storage prefix at this group;
      // keep it so later fetches of the record plan around it.
      prefixes->Insert(prefix_id, slot.plan.record, raw->scan_group,
                       std::make_shared<const std::string>(raw->payload));
    }
    io_stats_.AddBusyNanos(NowNanos() - complete_start);
    free_slots.push_back(slot_index);
    if (!raw.ok()) {
      RecordError(raw.status().WithContext("loader I/O stage"));
      return false;
    }
    io_stats_.AddItem(raw->bytes_read);
    const int64_t push_start = NowNanos();
    const bool pushed = fetch_queue_.Push(std::move(raw).MoveValue());
    io_stats_.AddIdleNanos(NowNanos() - push_start);
    if (!pushed) return false;  // Queue closed: Stop() or a stage failure.
    io_stats_.SampleQueueDepth(fetch_queue_.size());
    return true;
  };

  // The whole plan as one request: adjacent segments become one vectored op
  // on backends that support it, and resident segments never reach storage.
  // (Re)submits the slot's current plan as branch 0 of its generation —
  // the initial attempt and every failover re-drive go through here.
  auto submit_slot = [&](int slot_index) -> bool {
    Slot& slot = slots[static_cast<size_t>(slot_index)];
    slot.submit_nanos = NowNanos();
    slot.hedged = false;
    slot.hedge_alternate = -1;
    slot.branches = 1;
    ReadRequest request =
        slot.plan.ToReadRequest(encode_cookie(slot.generation, 0, slot_index));
    Status submitted =
        scheduler_for(slot.plan.env)->SubmitRead(std::move(request));
    if (!submitted.ok()) {
      RecordError(std::move(submitted).WithContext("loader I/O stage"));
      return false;
    }
    return true;
  };

  bool running = true;
  bool tickets_done = false;
  while (running && !stopping_.load(std::memory_order_relaxed)) {
    // Fill the window: issue tickets until it is full or the epoch limit is
    // reached. Cache hits bypass the window entirely (no fetch, no decode):
    // copy out of the immutable entry (busy time — it is the ticket's whole
    // service cost) and short-circuit straight to the output queue.
    while (running && !tickets_done && in_flight < window &&
           !stopping_.load(std::memory_order_relaxed)) {
      int record;
      std::shared_ptr<ScanGroupPolicy> policy;
      {
        std::lock_guard<std::mutex> lock(sampler_mu_);
        if (ticket_limit_ > 0 && tickets_issued_ >= ticket_limit_) {
          tickets_done = true;
          break;
        }
        record = sampler_->Next();
        ++tickets_issued_;
        policy = options_.scan_policy;  // May be swapped by set_scan_policy.
      }
      // Clamp like PlanFetch will, so cache keys match what gets stored.
      const int group =
          std::clamp(policy->Select(num_groups, &rng), 1, num_groups);

      if (cache != nullptr) {
        const DecodeCacheKey key{options_.cache_dataset_id, record, group};
        if (auto cached = cache->Lookup(key)) {
          io_stats_.AddCacheHit();
          // Zero-copy delivery: alias the cache's entry instead of deep-
          // copying it. The wrapper's bytes_read = 0 records that this
          // delivery read nothing from storage (the shared entry keeps the
          // original fetch size for its own books).
          io_stats_.AddZeroCopyHit(DecodeCache::BatchBytes(*cached));
          SharedLoadedBatch item;
          item.batch = std::move(cached);
          item.bytes_read = 0;
          item.zero_copy = true;
          const int64_t push_start = NowNanos();
          const bool pushed = output_queue_.Push(std::move(item));
          io_stats_.AddIdleNanos(NowNanos() - push_start);
          if (!pushed) running = false;  // Queue closed: Stop()/failure.
          continue;
        }
        io_stats_.AddCacheMiss();
      }

      const int64_t plan_start = NowNanos();
      std::optional<FetchResident> resident;
      if (prefixes != nullptr) {
        resident = prefixes->Lookup(prefix_id, record);
        if (resident.has_value()) {
          io_stats_.AddPrefixHit();
        } else {
          io_stats_.AddPrefixMiss();
        }
      }
      auto plan = source_->PlanFetch(
          record, group, resident.has_value() ? &*resident : nullptr);
      if (!plan.ok()) {
        io_stats_.AddBusyNanos(NowNanos() - plan_start);
        RecordError(plan.status().WithContext("loader I/O stage"));
        running = false;
        break;
      }
      const int slot_index = free_slots.back();
      free_slots.pop_back();
      Slot& slot = slots[static_cast<size_t>(slot_index)];
      slot.plan = std::move(plan).MoveValue();
      slot.next_alternate = 0;
      ++slot.generation;  // Fresh tenancy: prior tenants' strays are dead.
      if (slot.plan.fetch_bytes() == 0) {
        // Fully resident (or empty): no storage I/O, complete right away.
        // No outcome report — replica health scores storage attempts only.
        io_stats_.AddBusyNanos(NowNanos() - plan_start);
        if (!finish_slot(slot_index, std::string())) running = false;
        continue;
      }
      if (!submit_slot(slot_index)) {
        io_stats_.AddBusyNanos(NowNanos() - plan_start);
        running = false;
        break;
      }
      ++in_flight;
      io_stats_.SampleInFlight(in_flight);
      io_stats_.AddBusyNanos(NowNanos() - plan_start);
    }
    if (!running || in_flight == 0) break;  // Epoch limit reached or torn down.

    // Drain one completion. The wait is storage service time (busy): with a
    // full window this is where the worker sits while the device works
    // through its queue. Ready completions on any backend are taken first;
    // the worker then waits in bounded slices — never a blocking
    // WaitCompletion — so hedge deadlines and Stop() stay observed even
    // against a backend that never completes (a wedged read cannot hang
    // teardown). With several backends holding reads it polls them all at a
    // short cadence instead — committing to one backend's wait would idle a
    // fast shard's completed reads behind a slow shard's latency.
    constexpr int64_t kWaitSliceNanos = 10'000'000;    // 10 ms.
    constexpr int64_t kMinWaitSliceNanos = 100'000;    // 100 us.
    const int64_t wait_start = NowNanos();
    std::optional<ReadCompletion> completion;
    while (running && !completion.has_value() &&
           !stopping_.load(std::memory_order_relaxed)) {
      // Hedge first: a straggler past its deadline gets its duplicate
      // submitted before the worker parks again.
      const int64_t next_hedge_wait = maybe_hedge();
      IoScheduler* only_pending = nullptr;
      int backends_pending = 0;
      for (size_t i = 0; i < schedulers.size(); ++i) {
        auto& candidate = schedulers[(wait_cursor + i) % schedulers.size()];
        if (candidate.second->in_flight() == 0) continue;
        ++backends_pending;
        only_pending = candidate.second.get();
        completion = candidate.second->PollCompletion();
        if (completion.has_value()) {
          wait_cursor = (wait_cursor + i + 1) % schedulers.size();
          break;
        }
      }
      if (completion.has_value()) break;
      if (backends_pending == 0) break;  // Defensive; in_flight > 0 here.
      if (backends_pending == 1) {
        // Cut the slice to the next hedge deadline so a straggler's
        // duplicate goes out on time.
        int64_t slice = kWaitSliceNanos;
        if (next_hedge_wait >= 0) {
          slice = std::clamp(next_hedge_wait, kMinWaitSliceNanos, slice);
        }
        auto waited = only_pending->WaitCompletionFor(slice);
        if (!waited.ok()) {
          if (!stopping_.load(std::memory_order_relaxed)) {
            RecordError(waited.status().WithContext("loader I/O stage"));
          }
          running = false;
          break;
        }
        if (waited->has_value()) completion = std::move(**waited);
        continue;  // Timed out: recheck hedges and stopping_.
      }
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
    io_stats_.AddBusyNanos(NowNanos() - wait_start);
    if (!running || !completion.has_value()) break;

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
    if (completion->status.ok()) {
      if (hedge_branch) {
        // The duplicate finished first: the slot's plan becomes the
        // alternate it ran against (CompleteFetch and replica scoring
        // route by the plan's replica).
        io_stats_.AddHedgeWin();
        slot.plan.UseAlternate(
            slot.plan.alternates[static_cast<size_t>(slot.hedge_alternate)]);
      }
      source_->ReportFetchOutcome(slot.plan, completion->status);
      record_latency(static_cast<double>(NowNanos() - slot.submit_nanos) *
                     1e-9);
      ++slot.generation;  // A still-racing twin is now a dead letter.
      slot.branches = 0;
      --in_flight;
      io_stats_.SampleInFlight(in_flight);
      if (!finish_slot(slot_index, std::move(completion->bytes))) break;
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
      source_->ReportFetchOutcome(attempted, completion->status);
    } else {
      source_->ReportFetchOutcome(slot.plan, completion->status);
    }
    if (slot.branches > 0) continue;
    if (slot.next_alternate < slot.plan.alternates.size()) {
      slot.plan.UseAlternate(slot.plan.alternates[slot.next_alternate]);
      ++slot.next_alternate;
      ++slot.generation;  // New attempt; strays of the old one are dead.
      io_stats_.AddFailover();
      if (!submit_slot(slot_index)) {
        running = false;
        break;
      }
      continue;
    }
    // Replicas exhausted: the fetch is lost and the stream fails.
    RecordError(completion->status.WithContext("loader I/O stage"));
    break;
  }
  // Slots still in flight after Stop() or a failure are dropped here: the
  // schedulers' destructors join their service threads and discard the
  // outstanding completions.
  // Fold the schedulers' op/submit/syscall totals into the stage gauges
  // before they go away — that is where syscalls-per-record comes from.
  for (auto& [scheduler_env, scheduler] : schedulers) {
    (void)scheduler_env;
    io_stats_.AddSchedulerStats(scheduler->stats());
  }
  // Last I/O worker out seals the stage: decode drains what was fetched.
  if (live_io_workers_.fetch_sub(1) == 1) fetch_queue_.Close();
}

Result<LoadedBatch> LoaderPipeline::AssembleAndDecode(
    RawRecord raw, jpeg::DecodeScratch* scratch) {
  const int record = raw.record;
  const int group = raw.scan_group;
  PCR_ASSIGN_OR_RETURN(RecordBatch assembled,
                       source_->AssembleRecord(std::move(raw)));
  if (options_.decode) {
    return DecodeRecordBatch(std::move(assembled), record, group, scratch);
  }
  LoadedBatch batch;
  batch.record_index = record;
  batch.scan_group = group;
  batch.labels = std::move(assembled.labels);
  batch.bytes_read = assembled.bytes_read;
  batch.jpeg_spans = std::move(assembled.spans);
  batch.jpeg_backing = std::move(assembled.backing);
  return batch;
}

void LoaderPipeline::DecodeWorkerLoop() {
  // Per-worker reusable decode buffers: coefficient planes and YCbCr
  // staging are allocated once and recycled across every record this
  // worker decodes.
  jpeg::DecodeScratch scratch;
  std::vector<RawRecord> claimed;
  claimed.reserve(static_cast<size_t>(options_.decode_pop_batch));
  bool running = true;
  while (running) {
    claimed.clear();
    // Claim at most a fair share of the queued records: batching cuts lock
    // churn when the queue runs deep, but near end-of-stream (or with slow
    // storage) grabbing a full batch would serialize records that idle
    // peer workers could decode in parallel.
    const size_t share =
        fetch_queue_.size() / static_cast<size_t>(options_.decode_threads);
    const size_t claim = std::clamp<size_t>(
        share, 1, static_cast<size_t>(options_.decode_pop_batch));
    const int64_t pop_start = NowNanos();
    fetch_queue_.PopMany(claim, &claimed);
    decode_stats_.AddIdleNanos(NowNanos() - pop_start);
    if (claimed.empty()) break;  // Upstream sealed and drained.

    // Claimed records count as in flight until their batch is in the
    // output queue, so consumer stall attribution sees them.
    decode_in_flight_.fetch_add(static_cast<int>(claimed.size()),
                                std::memory_order_relaxed);
    size_t done = 0;
    for (RawRecord& raw : claimed) {
      // Residual items drain normally at end-of-stream, but after Stop() or
      // a stage failure decoding them is wasted work — bail pre-decode.
      if (stopping_.load(std::memory_order_relaxed) || !status().ok()) {
        running = false;
        break;
      }
      const uint64_t bytes = raw.bytes_read;
      const int64_t work_start = NowNanos();
      auto batch = AssembleAndDecode(std::move(raw), &scratch);
      decode_stats_.AddBusyNanos(NowNanos() - work_start);
      if (!batch.ok()) {
        RecordError(batch.status().WithContext("loader decode stage"));
        running = false;
        break;
      }
      decode_stats_.AddItem(bytes);

      // Cache population: the copy happens here, off the consumer path and
      // before the push (so the consumer's batch stays uniquely owned and
      // Next() can steal it without copying); the insert itself — a single
      // move — waits until after the push so the consumer is unblocked
      // first.
      DecodeCache* const cache = options_.decode_cache.get();
      std::optional<LoadedBatch> to_cache;
      DecodeCacheKey cache_key;
      if (cache != nullptr) {
        cache_key = DecodeCacheKey{options_.cache_dataset_id,
                                   batch->record_index, batch->scan_group};
        if (cache->Admits(cache_key, DecodeCache::BatchBytes(*batch))) {
          const int64_t copy_start = NowNanos();
          to_cache.emplace(*batch);
          decode_stats_.AddBytesCopied(DecodeCache::BatchBytes(*batch));
          decode_stats_.AddBusyNanos(NowNanos() - copy_start);
        }
      }

      SharedLoadedBatch item;
      // Deliberately a non-const object under a pointer-to-const: Next() may
      // legally const_cast and steal it when the consumer is the sole owner.
      item.batch = std::make_shared<LoadedBatch>(std::move(batch).MoveValue());
      item.bytes_read = item.batch->bytes_read;
      item.zero_copy = false;

      // Drop the in-flight mark before the push: a consumer woken by this
      // batch then sees a consistent picture (work either in flight or in
      // the output queue, never in the gap between).
      ++done;
      decode_in_flight_.fetch_sub(1, std::memory_order_relaxed);
      const int64_t push_start = NowNanos();
      const bool pushed = output_queue_.Push(std::move(item));
      decode_stats_.AddIdleNanos(NowNanos() - push_start);
      if (!pushed) {  // Queue closed: Stop() or a stage failure.
        running = false;
        break;
      }
      if (to_cache.has_value()) {
        cache->Insert(cache_key, std::move(*to_cache));
      }
      decode_stats_.SampleQueueDepth(output_queue_.size());
    }
    // Un-mark any records this visit abandoned.
    if (done < claimed.size()) {
      decode_in_flight_.fetch_sub(static_cast<int>(claimed.size() - done),
                                  std::memory_order_relaxed);
    }
  }
  // Last decoder out seals the output: the consumer sees end-of-stream.
  if (live_decode_workers_.fetch_sub(1) == 1) output_queue_.Close();
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
  {
    // Fail fast: a recorded stage failure outranks queued batches.
    Status failed = status();
    if (!failed.ok()) return failed;
  }
  std::optional<SharedLoadedBatch> batch = output_queue_.TryPop();
  if (!batch.has_value()) {
    // Raw bytes sitting in (or moving through) the decode stage mean
    // storage has delivered and CPU is the laggard.
    const bool decode_busy_at_start =
        fetch_queue_.size() > 0 ||
        decode_in_flight_.load(std::memory_order_relaxed) > 0;
    const int64_t stall_start = NowNanos();
    batch = output_queue_.Pop();
    const int64_t waited = NowNanos() - stall_start;
    // A data stall — but only if a batch resolved it; a wait ended by
    // Stop(), a stage failure, or end-of-stream is teardown, not stalling.
    // Decode-bound if the decode stage held work at either edge of the
    // stall: at the start it means the stalled-on record was already
    // fetched; at the end it means decode is still backed up. An io-bound
    // stall (storage quiet, decode idle) shows neither — including a stall
    // resolved by a cache hit, which the I/O workers serve.
    if (batch.has_value()) {
      const bool decode_bound =
          decode_busy_at_start || fetch_queue_.size() > 0 ||
          decode_in_flight_.load(std::memory_order_relaxed) > 0;
      (decode_bound ? decode_stall_nanos_ : io_stall_nanos_)
          .fetch_add(waited, std::memory_order_relaxed);
    }
  }
  if (!batch.has_value()) {
    Status failed = status();
    if (!failed.ok()) return failed;
    if (stopping_.load()) return Status::Aborted("loader pipeline stopped");
    return Status::OutOfRange("loader pipeline: end of stream");
  }
  batches_delivered_.fetch_add(1, std::memory_order_relaxed);
  return std::move(*batch);
}

void LoaderPipeline::Stop() {
  stopping_.store(true);
  fetch_queue_.Close();
  output_queue_.Close();
  for (auto& worker : io_workers_) {
    if (worker.joinable()) worker.join();
  }
  if (decode_pool_ != nullptr) decode_pool_->Shutdown();
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
  StageStatsSnapshot snap =
      io_stats_.Snapshot("io", options_.io_threads, fetch_queue_.capacity());
  snap.submission_window = options_.io_inflight;
  const char* backend = io_backend_name_.load(std::memory_order_relaxed);
  if (backend != nullptr) snap.io_backend = backend;
  if (options_.decode_cache != nullptr) {
    const DecodeCacheStats cache = options_.decode_cache->stats();
    snap.cache_evictions = cache.evictions;
    snap.cache_bytes = cache.bytes_in_use;
  }
  return snap;
}

StageStatsSnapshot LoaderPipeline::decode_stats() const {
  return decode_stats_.Snapshot("decode", options_.decode_threads,
                                output_queue_.capacity());
}

}  // namespace pcr
