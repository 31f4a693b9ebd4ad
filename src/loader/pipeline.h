// LoaderPipeline: the staged wall-clock data loader. Splits every record
// read into the two resources it actually consumes:
//
//   [I/O stage]    io_threads workers pull (record, scan group) tickets from
//                  a shared epoch sampler, plan them via
//                  RecordSource::PlanFetch, and keep up to `io_inflight`
//                  fetches in flight through the backend Env's
//                  submission/completion IoScheduler (storage-bound, no CPU
//                  work), draining completions through
//                  RecordSource::CompleteFetch into a bounded raw-record
//                  queue. Sharded sources route each plan to its own
//                  backend, so one worker can hold reads open against
//                  several devices at once.
//   [decode stage] decode_threads workers on a util::ThreadPool pop raw
//                  records, run RecordSource::AssembleRecord plus parallel
//                  JPEG decodes (CPU-bound, no I/O), feeding the bounded
//                  output queue the consumer pops from.
//
// Each stage has independently sized thread counts and queue depths, its own
// StageStats (busy/idle time, items, bytes, queue occupancy), and consumer
// stalls are attributed to the stage that caused them: a stall with an empty
// raw queue and no decode in flight is storage's fault (io-bound), anything
// else means decode could not keep up (decode-bound) — the Figure 11/18
// breakdown the paper's data-stall analysis needs.
//
// Failures in either stage record the first non-OK Status, drain the
// pipeline, and surface from Next(); with max_epochs set, Next() returns
// OutOfRange once every record has been delivered exactly once per epoch.
#pragma once

#include <atomic>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "core/record_source.h"
#include "jpeg/codec.h"
#include "loader/decode_cache.h"
#include "loader/loaded_batch.h"
#include "loader/prefix_cache.h"
#include "loader/sampler.h"
#include "loader/scan_policy.h"
#include "loader/stage_stats.h"
#include "util/bounded_queue.h"
#include "util/thread_pool.h"

namespace pcr {

struct LoaderPipelineOptions {
  /// I/O stage: workers submitting fetches and draining completions.
  int io_threads = 2;
  /// Fetches each I/O worker keeps in flight through its Env's IoScheduler
  /// (io_uring-style submission window). 1 reproduces the blocking
  /// one-read-per-worker shape; deeper windows fill the device queue so
  /// small partial scan-group reads stop leaving storage bandwidth idle.
  /// Total reads in flight = io_threads * io_inflight.
  int io_inflight = 4;
  /// Raw records buffered between the I/O and decode stages.
  int fetch_queue_depth = 8;
  /// Decode stage: ThreadPool workers running AssembleRecord + jpeg::Decode.
  int decode_threads = 4;
  /// Upper bound on raw records a decode worker claims per queue visit
  /// (one lock + one notify per visit instead of per record); the actual
  /// claim is capped at the worker's fair share of the queued records so a
  /// draining queue still spreads across idle workers. Records decode and
  /// deliver one at a time. >= 1.
  int decode_pop_batch = 4;
  /// Decoded batches buffered ahead of the consumer.
  int output_queue_depth = 8;
  /// When false, batches carry assembled JPEG streams instead of decoded
  /// images (consumers that ship compressed bytes downstream).
  bool decode = true;
  /// 0 streams epochs forever; N > 0 delivers exactly N epochs (every record
  /// once per epoch) and then Next() returns OutOfRange.
  int max_epochs = 0;
  bool shuffle = true;
  uint64_t seed = 42;
  /// Scan-group selection per record; defaults to full quality.
  std::shared_ptr<ScanGroupPolicy> scan_policy;

  // Decoded-record LRU cache (loader/decode_cache.h). I/O workers consult it
  // per ticket: a hit short-circuits before the raw queue — no fetch, no
  // decode — and pushes the cached batch straight to the output queue;
  // misses flow through the stages and populate the cache after decode.
  // Hand in a shared cache (it survives pipeline teardown, so every epoch or
  // rebuilt pipeline reuses it), or set decode_cache_bytes > 0 for a private
  // one. Caching applies only when `decode` is true (compressed-byte
  // consumers are the storage page cache's job).
  std::shared_ptr<DecodeCache> decode_cache;
  uint64_t decode_cache_bytes = 0;
  int decode_cache_shards = 8;
  /// Key namespace inside a shared cache; 0 = auto-register a fresh id.
  /// Loaders over the same on-storage dataset share hits by passing the
  /// same id.
  uint64_t cache_dataset_id = 0;

  /// I/O backend for the stage's schedulers. kAuto defers to the PCR_FORCE_IO
  /// override / runtime io_uring probe (storage/io_backend.h); tests and
  /// benches pin a tier explicitly.
  IoBackend io_backend = IoBackend::kAuto;
  /// Submission window the uring backend coalesces per io_uring_submit —
  /// plans queued as SQEs before one enter syscall flushes them. Ignored by
  /// the sync/thread backends, which have no batched submission.
  int io_submit_batch = 4;

  // Fault tolerance on the I/O stage. Three independent layers: transparent
  // retry of transient backend errors (storage/io_retry.h wraps each
  // scheduler), replica failover (a failed fetch re-submits against the
  // plan's next FetchPlan::alternates entry), and hedged reads (a fetch
  // outliving an adaptive deadline duplicates to an alternate;
  // first-completion-wins, the loser is discarded on arrival). Replica-less
  // sources attach no alternates, so failover and hedging are no-ops there.
  /// Submissions per request against one backend before its failure
  /// surfaces to failover; 1 disables retry.
  int io_retry_attempts = 3;
  /// First retry backoff; doubles per retry (capped at 100x) on the
  /// backend Env's clock.
  double io_retry_backoff_sec = 0.5e-3;
  /// Duplicate a slow fetch to an untried alternate replica once it
  /// outlives the hedge deadline.
  bool hedged_reads = true;
  /// Deadline = clamp(worker-local latency percentile * factor,
  /// [hedge_min_sec, hedge_max_sec]); no hedging until the worker has
  /// observed enough completed fetches to estimate the percentile.
  double hedge_percentile = 95.0;
  double hedge_latency_factor = 2.0;
  double hedge_min_sec = 1e-3;
  double hedge_max_sec = 1.0;

  // Raw scan-prefix cache (loader/prefix_cache.h). I/O workers feed each
  // ticket's PlanFetch the record's cached prefix, so a quality upgrade
  // fetches only the delta bytes and a same-or-lower-quality re-read is
  // fully resident (zero I/O); fetched payloads deepen the cache after
  // CompleteFetch. Orthogonal to the decode cache: this one holds raw
  // on-storage bytes and serves *partial* hits. Hand in a shared cache or
  // set prefix_cache_bytes > 0 for a private one.
  std::shared_ptr<PrefixCache> prefix_cache;
  uint64_t prefix_cache_bytes = 0;
  /// Key namespace inside a shared prefix cache; 0 = auto-register.
  uint64_t prefix_dataset_id = 0;
};

/// A delivered batch under shared ownership. Cache hits alias the cache's
/// own entry (zero_copy == true) instead of deep-copying it; cache misses
/// carry a batch the consumer is the sole owner of. `bytes_read` is the
/// storage traffic attributable to THIS delivery — zero for a hit, whatever
/// the fetch cost for a miss — and is authoritative over the batch's own
/// field, which a shared cache entry keeps from its original fetch.
struct SharedLoadedBatch {
  std::shared_ptr<const LoadedBatch> batch;
  uint64_t bytes_read = 0;
  bool zero_copy = false;
};

/// Two-stage threaded loader. Thread-safe for a single consumer of Next();
/// construction starts the stages, destruction (or Stop()) shuts them down.
class LoaderPipeline {
 public:
  LoaderPipeline(RecordSource* source, LoaderPipelineOptions options);
  ~LoaderPipeline();

  LoaderPipeline(const LoaderPipeline&) = delete;
  LoaderPipeline& operator=(const LoaderPipeline&) = delete;

  /// Pops the next decoded batch; blocks while the output queue is empty (a
  /// data stall). Returns the first stage failure if one occurred (failing
  /// fast past queued batches), OutOfRange at end-of-stream (max_epochs
  /// reached), or — once already-decoded batches have drained — Aborted
  /// after Stop(). Value semantics: a cache-hit delivery deep-copies the
  /// shared entry here; consumers that can hold a reference should prefer
  /// NextShared(), which never copies pixels.
  Result<LoadedBatch> Next();

  /// Like Next() but hands out the batch under shared ownership: cache hits
  /// are delivered by reference to the cache's entry (no copy — counted in
  /// io_stats().zero_copy_hits), misses as the sole reference to the decoded
  /// batch. The serving daemon's data plane consumes this form.
  Result<SharedLoadedBatch> NextShared();

  /// Stops both stages; undecoded queued work is dropped, while batches the
  /// decode stage already delivered remain poppable via Next(). Idempotent.
  void Stop();

  /// First non-OK status recorded by either stage (OK while healthy).
  Status status() const;

  /// Total time Next() spent blocked (the data-stall time of §A.1), split by
  /// the stage that was the bottleneck when the stall began. A stall
  /// resolved by a cache-served batch counts as io-bound: the I/O workers
  /// serve hits, and no decode work was pending. With a warm cache these
  /// stalls are copy-sized — microseconds, not the storage/decode stalls
  /// the attribution exists to separate.
  double stall_seconds() const;
  double io_stall_seconds() const;
  double decode_stall_seconds() const;

  int64_t batches_delivered() const {
    return batches_delivered_.load(std::memory_order_relaxed);
  }

  StageStatsSnapshot io_stats() const;
  StageStatsSnapshot decode_stats() const;

  size_t records_per_epoch() const { return sampler_->records_per_epoch(); }

  /// Swaps the per-record quality policy on the live pipeline (dynamic
  /// tuning). Tickets already fetched or queued keep their old group; new
  /// tickets select via the new policy. Cache entries are left alone — use
  /// DecodeCache::InvalidateScanGroup to drop just the outgoing group.
  void set_scan_policy(std::shared_ptr<ScanGroupPolicy> policy);

  /// The decoded-record cache in use (null when caching is off) and this
  /// pipeline's key namespace inside it.
  const std::shared_ptr<DecodeCache>& decode_cache() const {
    return options_.decode_cache;
  }
  uint64_t cache_dataset_id() const { return options_.cache_dataset_id; }

  /// The raw scan-prefix cache in use (null when off) and its namespace.
  const std::shared_ptr<PrefixCache>& prefix_cache() const {
    return options_.prefix_cache;
  }
  uint64_t prefix_dataset_id() const { return options_.prefix_dataset_id; }

 private:
  void IoWorkerLoop(uint64_t seed);
  void DecodeWorkerLoop();
  Result<LoadedBatch> AssembleAndDecode(RawRecord raw,
                                        jpeg::DecodeScratch* scratch);
  void RecordError(Status status);

  RecordSource* source_;
  LoaderPipelineOptions options_;

  BoundedQueue<RawRecord> fetch_queue_;
  BoundedQueue<SharedLoadedBatch> output_queue_;

  std::vector<std::thread> io_workers_;
  std::unique_ptr<ThreadPool> decode_pool_;

  // Ticket issuance: a shared epoch sampler; each record is issued exactly
  // once per epoch no matter how many I/O workers race on it.
  std::mutex sampler_mu_;
  std::unique_ptr<RecordSampler> sampler_;
  int64_t tickets_issued_ = 0;
  int64_t ticket_limit_ = 0;  // 0 = unbounded.

  std::atomic<bool> stopping_{false};
  std::atomic<int> live_io_workers_{0};
  std::atomic<int> live_decode_workers_{0};
  std::atomic<int> decode_in_flight_{0};

  mutable std::mutex error_mu_;
  Status first_error_;  // OK until a stage fails.

  StageStats io_stats_;
  StageStats decode_stats_;
  /// Resolved backend name of the stage's schedulers (a static string from
  /// IoScheduler::backend_name), stamped by the first worker to open one.
  std::atomic<const char*> io_backend_name_{nullptr};

  std::atomic<int64_t> io_stall_nanos_{0};
  std::atomic<int64_t> decode_stall_nanos_{0};
  std::atomic<int64_t> batches_delivered_{0};
};

}  // namespace pcr
