// The staged wall-clock data loader, in two parts:
//
//   LoaderExecutor  owns the workers. Its I/O workers issue (record, scan
//                   group) tickets round-robin over the attached streams,
//                   plan them via RecordSource::PlanFetch, and keep up to
//                   `io_inflight` fetches each in flight through the backend
//                   Env's submission/completion IoScheduler (storage-bound,
//                   no CPU work), with retry, failover and hedged reads.
//                   Completed fetches (RecordSource::CompleteFetch) go to
//                   one shared raw-record queue; its decode workers run
//                   RecordSource::AssembleRecord plus the JPEG decodes
//                   (CPU-bound, no I/O) and push each batch to the output
//                   queue of the stream it belongs to.
//   LoaderPipeline  is one stream attached to an executor: its epoch
//                   sampler, scan policy, epoch limit, cache namespaces,
//                   output queue and stats. Next() pops from its queue.
//
// Resource model. The serving daemon runs one executor and attaches every
// client stream to it, so a stream costs no worker threads of its own. An
// in-process LoaderPipeline(source, options) builds a private executor from
// its own io_threads and decode_threads: the same code running one stream.
//
// Admission. A stream holds a credit of output_queue_depth + io_threads *
// io_inflight batches: a ticket takes one, Next() returns it. Tickets are
// only issued against credit, so the output queue (sized to the credit)
// never blocks a decode worker, and a stream whose consumer stops calling
// Next() only stops its own tickets. Within each I/O worker a stream holds
// at most its own io_inflight reads, so a stream whose reads stall cannot
// take another stream's share of the window.
//
// Stats. Counters a ticket can be charged to (items, bytes, busy time, cache
// and prefix hits, zero-copy hits, failovers, hedges, fetch latencies) are
// per stream; worker gauges (idle time, raw-queue depth, window occupancy,
// scheduler ops and syscalls, retries, backend name) come from the executor.
// Consumer stalls are attributed from the stream's own records: a stall with
// none of them fetched and waiting for decode is storage's fault (io-bound),
// anything else means decode could not keep up (decode-bound) — the Figure
// 11/18 breakdown the paper's data-stall analysis needs.
//
// Failures record the stream's first non-OK Status and surface from Next();
// with max_epochs set, Next() returns OutOfRange once every record has been
// delivered exactly once per epoch.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
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

namespace pcr {

/// Options of one stream. The fields marked "executor" size and configure
/// the workers: a LoaderExecutor reads them from the options it is built
/// with, and a stream attached to a shared executor ignores its own copies.
struct LoaderPipelineOptions {
  /// Executor: I/O workers submitting fetches and draining completions.
  int io_threads = 2;
  /// Fetches each I/O worker keeps in flight for this stream through its
  /// Env's IoScheduler (io_uring-style submission window). 1 reproduces the
  /// blocking one-read-per-worker shape; deeper windows fill the device
  /// queue so small partial scan-group reads stop leaving storage bandwidth
  /// idle. Executor: the same field sizes each worker's whole window, shared
  /// by every attached stream.
  int io_inflight = 4;
  /// Executor: decode workers running AssembleRecord + jpeg::Decode.
  int decode_threads = 4;
  /// Decoded batches buffered ahead of the consumer; the stream's credit
  /// adds its read window on top (see the header comment).
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

  /// Executor: I/O backend for the workers' schedulers. kAuto defers to the
  /// PCR_FORCE_IO override / runtime io_uring probe (storage/io_backend.h);
  /// tests and benches pin a tier explicitly.
  IoBackend io_backend = IoBackend::kAuto;
  /// Executor: submission window the uring backend coalesces per
  /// io_uring_submit — plans queued as SQEs before one enter syscall flushes
  /// them. Ignored by the sync/thread backends, which have no batched
  /// submission.
  int io_submit_batch = 4;

  // Fault tolerance on the I/O workers (all executor settings). Three
  // independent layers: transparent retry of transient backend errors
  // (storage/io_retry.h wraps each scheduler), replica failover (a failed
  // fetch re-submits against the plan's next FetchPlan::alternates entry),
  // and hedged reads (a fetch outliving an adaptive deadline duplicates to
  // an alternate; first-completion-wins, the loser is discarded on arrival).
  // Replica-less sources attach no alternates, so failover and hedging are
  // no-ops there.
  /// Submissions per request against one backend before its failure
  /// surfaces to failover; 1 disables retry.
  int io_retry_attempts = 3;
  /// Duplicate a slow fetch to an untried alternate replica once it
  /// outlives the hedge deadline.
  bool hedged_reads = true;
  /// Deadline = clamp(worker-local latency percentile * factor,
  /// [hedge_min_sec, 1 s]); no hedging until the worker has observed enough
  /// completed fetches to estimate the percentile.
  double hedge_percentile = 95.0;
  double hedge_latency_factor = 2.0;
  double hedge_min_sec = 1e-3;

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

/// The loader's workers: a fixed set of I/O workers and a fixed set of
/// decode workers serving every attached LoaderPipeline. Construction starts
/// them; Shutdown() (or destruction) joins them. Every Env a stream's plans
/// route to must outlive the executor: abandoned reads drain when it shuts
/// down.
class LoaderExecutor {
 public:
  /// Starts `io_threads` I/O workers with a window of `io_inflight` reads
  /// each and `decode_threads` decode workers, configured by the options'
  /// executor fields.
  explicit LoaderExecutor(const LoaderPipelineOptions& options);
  ~LoaderExecutor();

  LoaderExecutor(const LoaderExecutor&) = delete;
  LoaderExecutor& operator=(const LoaderExecutor&) = delete;

  /// Joins every worker. Reads still in flight are abandoned; streams still
  /// attached end Aborted. Idempotent.
  void Shutdown();

  int io_threads() const { return options_.io_threads; }
  int decode_threads() const { return options_.decode_threads; }

 private:
  friend class LoaderPipeline;
  struct Stream;
  struct RawItem;

  /// Adds a stream to the round-robin. `last` marks the executor as built
  /// for this one stream: its workers then exit once the stream has nothing
  /// left to do, as an in-process pipeline's threads always have.
  void Attach(std::shared_ptr<Stream> stream, bool last);
  /// Removes a stream from the round-robin (its in-flight work is dropped
  /// as it lands).
  void Detach(const Stream* stream);
  /// Wakes I/O workers parked for lack of work.
  void Kick();

  void IoWorkerLoop(uint64_t seed);
  void DecodeWorkerLoop();
  /// Worker gauges folded into a stream's snapshots.
  void AddIoGauges(StageStatsSnapshot* snap) const;
  void AddDecodeGauges(StageStatsSnapshot* snap) const;

  LoaderPipelineOptions options_;
  std::unique_ptr<BoundedQueue<RawItem>> raw_queue_;

  std::mutex mu_;
  std::condition_variable work_cv_;
  std::vector<std::shared_ptr<Stream>> streams_;  // Guarded by mu_.
  bool sealed_ = false;                            // Guarded by mu_.
  /// Bumped (under mu_) whenever a stream may have become eligible for
  /// tickets: attach, detach, credit returned, shutdown.
  std::atomic<uint64_t> wake_seq_{0};
  std::atomic<uint64_t> streams_version_{0};
  std::atomic<bool> shutdown_{false};
  std::atomic<int> live_io_workers_{0};

  std::mutex join_mu_;
  std::vector<std::thread> io_workers_;
  std::vector<std::thread> decode_workers_;

  StageStats io_gauges_;
  StageStats decode_gauges_;
  /// Resolved backend name of the workers' schedulers (a static string from
  /// IoScheduler::backend_name), stamped by the first worker to open one.
  std::atomic<const char*> io_backend_name_{nullptr};
};

/// One stream of batches. Thread-safe for a single consumer of Next();
/// construction attaches it (and starts a private executor's workers),
/// destruction (or Stop()) detaches it.
class LoaderPipeline {
 public:
  /// A stream on a private executor built from `options`.
  LoaderPipeline(RecordSource* source, LoaderPipelineOptions options);
  /// A stream attached to a shared executor.
  LoaderPipeline(RecordSource* source, LoaderPipelineOptions options,
                 std::shared_ptr<LoaderExecutor> executor);
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

  /// Detaches the stream: returns once no executor thread is inside a call
  /// on its RecordSource. Reads in flight are abandoned and their
  /// completions dropped; batches already delivered to the output queue
  /// remain poppable via Next(). A private executor is shut down as well.
  /// Idempotent.
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

  size_t records_per_epoch() const;

  /// Swaps the per-record quality policy on the live pipeline (dynamic
  /// tuning). Tickets already fetched or queued keep their old group; new
  /// tickets select via the new policy. Cache entries are left alone — use
  /// DecodeCache::InvalidateScanGroup to drop just the outgoing group.
  void set_scan_policy(std::shared_ptr<ScanGroupPolicy> policy);

  /// The decoded-record cache in use (null when caching is off) and this
  /// pipeline's key namespace inside it.
  const std::shared_ptr<DecodeCache>& decode_cache() const;
  uint64_t cache_dataset_id() const;

  /// The raw scan-prefix cache in use (null when off) and its namespace.
  const std::shared_ptr<PrefixCache>& prefix_cache() const;
  uint64_t prefix_dataset_id() const;

 private:
  LoaderPipeline(RecordSource* source, LoaderPipelineOptions options,
                 std::shared_ptr<LoaderExecutor> executor, bool private_executor);

  const std::shared_ptr<LoaderExecutor> executor_;
  const bool private_executor_;
  std::shared_ptr<LoaderExecutor::Stream> stream_;

  std::atomic<int64_t> io_stall_nanos_{0};
  std::atomic<int64_t> decode_stall_nanos_{0};
  std::atomic<int64_t> batches_delivered_{0};
};

}  // namespace pcr
