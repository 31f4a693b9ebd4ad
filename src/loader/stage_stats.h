// Per-stage counters for the staged loader pipeline. Workers of a stage
// record busy time (doing the stage's work), idle time (blocked on the
// upstream or downstream queue), items and bytes processed, and sampled
// occupancy of the stage's output queue. All counters are lock-free atomics
// so hot paths never serialize on stats.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "storage/env.h"
#include "util/stats.h"

namespace pcr {

/// Fixed-size ring of recent latency samples: recent-window percentiles in
/// O(1) memory over unbounded streams. Mutexed — callers record one sample
/// per I/O or per served batch, which amortizes the lock over work that
/// takes microseconds to milliseconds. Shared by the pipeline's fetch
/// latencies and the serving daemon's per-client queue-wait / batch rings.
class LatencyRing {
 public:
  explicit LatencyRing(size_t capacity = 4096) : capacity_(capacity) {}

  void Add(double seconds) {
    std::lock_guard<std::mutex> lock(mu_);
    if (samples_.size() < capacity_) {
      samples_.push_back(seconds);
    } else {
      samples_[next_ % capacity_] = seconds;
    }
    ++next_;
  }

  /// Total samples ever recorded (>= the ring's current size).
  int64_t count() const {
    std::lock_guard<std::mutex> lock(mu_);
    return next_;
  }

  /// p50/p99 over the ring's current window; {0, 0} when empty.
  struct Percentiles {
    double p50 = 0;
    double p99 = 0;
    int64_t samples = 0;
  };
  Percentiles Snapshot() const {
    Percentiles out;
    std::lock_guard<std::mutex> lock(mu_);
    out.samples = next_;
    if (!samples_.empty()) {
      SampleSet set;
      for (const double v : samples_) set.Add(v);
      out.p50 = set.Percentile(50.0);
      out.p99 = set.Percentile(99.0);
    }
    return out;
  }

 private:
  size_t capacity_;
  mutable std::mutex mu_;
  std::vector<double> samples_;
  int64_t next_ = 0;  // Total recorded (ring write cursor).
};

/// Point-in-time copy of one stage's counters, with time in seconds.
struct StageStatsSnapshot {
  std::string name;
  int threads = 0;
  double busy_seconds = 0;  // Summed across the stage's workers.
  double idle_seconds = 0;  // Blocked pushing/popping stage queues.
  int64_t items = 0;        // Records completed by the stage.
  uint64_t bytes = 0;       // Payload bytes through the stage.
  /// Mean items in the stage's output queue, sampled after each push.
  double mean_queue_depth = 0;
  size_t queue_capacity = 0;
  /// Decoded-record cache counters (zero when the pipeline runs cacheless):
  /// hits short-circuit the stage's work entirely, so fig11/fig18 stall
  /// attribution can split cache-served from fetched/decoded items.
  int64_t cache_hits = 0;
  int64_t cache_misses = 0;
  int64_t cache_evictions = 0;   // Filled from the cache at snapshot time.
  uint64_t cache_bytes = 0;      // Cache byte occupancy at snapshot time.

  /// Submission-window gauges (I/O stage only; zero elsewhere): the mean
  /// number of fetches a worker held in flight, sampled at every submission
  /// and completion, and the configured per-worker window. Occupancy near
  /// 1.0 means the window is the limiter (raising it may help); occupancy
  /// well under 1.0 means tickets or queue space ran out first.
  double mean_in_flight = 0;
  int submission_window = 0;

  /// Scheduler-level I/O gauges (I/O stage only; zero elsewhere), aggregated
  /// from every backend IoScheduler the stage's workers opened. `io_backend`
  /// names the scheduler actually serving reads ("uring", "threads", "sync",
  /// "sim") — what PCR_FORCE_IO / the runtime probe resolved to, which the
  /// configured backend may not be.
  std::string io_backend;
  int64_t io_requests = 0;  // Scatter-gather requests (one per fetch plan).
  int64_t io_segments = 0;  // Byte ranges across those requests.
  int64_t io_ops = 0;       // Kernel-visible ops (SQEs / preads).
  int64_t io_submits = 0;   // Submission boundaries (enters that submitted).
  int64_t io_syscalls = 0;  // Syscalls issued by the schedulers.
  /// Raw prefix-cache traffic (loader/prefix_cache.h): hits turn quality
  /// upgrades into delta reads or skip I/O entirely.
  int64_t prefix_hits = 0;
  int64_t prefix_misses = 0;

  /// Fault-tolerance counters (I/O stage only; zero elsewhere). Retries are
  /// transparent backend resubmissions (folded from scheduler stats);
  /// failovers re-drove a failed fetch against an alternate replica; hedges
  /// duplicated a slow fetch to an alternate, of which hedge_wins finished
  /// before the original. Non-zero values are the observable signature of
  /// degraded mode.
  int64_t io_retries = 0;
  int64_t failovers = 0;
  int64_t hedges = 0;
  int64_t hedge_wins = 0;

  /// Storage-fetch service latency percentiles (submit to completion, I/O
  /// stage only), over a sliding window of recent fetches. Zero when nothing
  /// was fetched (cache-served or fully-resident streams).
  double fetch_p50_sec = 0;
  double fetch_p99_sec = 0;
  int64_t fetch_latency_samples = 0;

  /// Serving-stage counters (the daemon's per-client serve stage; zero for
  /// in-process pipeline stages). `items` counts served batches. Queue wait
  /// is request receipt -> service start (time spent behind the stream's
  /// own earlier requests); batch latency is request receipt -> reply
  /// written (the client-visible service time). Both are sliding-window
  /// percentiles like the fetch latencies above.
  double queue_wait_p50_sec = 0;
  double queue_wait_p99_sec = 0;
  int64_t queue_wait_samples = 0;
  double batch_p50_sec = 0;
  double batch_p99_sec = 0;
  int64_t batch_latency_samples = 0;

  /// Data-plane copy accounting. `bytes_copied` counts payload bytes the
  /// stage memcpy'd (socket-plane serialization copies pixels twice — into
  /// the wire struct and again into the frame; the shm plane copies them
  /// once, into the registered slot). `zero_copy_hits` counts cache hits
  /// delivered by reference (shared-ownership LoadedBatch) instead of a deep
  /// copy, and `zero_copy_bytes` the bytes that copy would have moved.
  /// `shm_slot_waits` counts serve-stage blocks waiting for the client to
  /// return a slot — the shm plane's backpressure signal. `shm_batches` is
  /// how many of the stage's batches went out as descriptors; items minus
  /// shm_batches went over the socket plane.
  uint64_t bytes_copied = 0;
  int64_t zero_copy_hits = 0;
  uint64_t zero_copy_bytes = 0;
  int64_t shm_slot_waits = 0;
  int64_t shm_batches = 0;

  /// Mean kernel-visible ops per submission boundary — the submitted-batch
  /// gauge. ~1.0 means no batching (pread per op); >1 means the backend
  /// coalesced ops per syscall.
  double mean_submit_batch() const {
    return io_submits > 0 ? static_cast<double>(io_ops) /
                                static_cast<double>(io_submits)
                          : 0.0;
  }

  /// Scheduler syscalls per record fetched — the figure-of-merit the uring
  /// backend drives down (batched, vectored submission) versus the
  /// pread-per-segment thread backend.
  double syscalls_per_record() const {
    return items > 0 ? static_cast<double>(io_syscalls) /
                           static_cast<double>(items)
                     : 0.0;
  }

  /// busy / (busy + idle): 1.0 means the stage is the bottleneck.
  double utilization() const {
    const double total = busy_seconds + idle_seconds;
    return total > 0 ? busy_seconds / total : 0.0;
  }

  /// mean_in_flight / submission_window: how full workers kept their
  /// submission windows.
  double submission_occupancy() const {
    return submission_window > 0 ? mean_in_flight / submission_window : 0.0;
  }
};

/// Thread-safe accumulator. One instance per pipeline stage, written by every
/// worker of that stage.
class StageStats {
 public:
  void AddBusyNanos(int64_t nanos) {
    busy_nanos_.fetch_add(nanos, std::memory_order_relaxed);
  }
  void AddIdleNanos(int64_t nanos) {
    idle_nanos_.fetch_add(nanos, std::memory_order_relaxed);
  }
  void AddItem(uint64_t bytes) {
    items_.fetch_add(1, std::memory_order_relaxed);
    bytes_.fetch_add(bytes, std::memory_order_relaxed);
  }
  void SampleQueueDepth(size_t depth) {
    queue_depth_sum_.fetch_add(static_cast<int64_t>(depth),
                               std::memory_order_relaxed);
    queue_depth_samples_.fetch_add(1, std::memory_order_relaxed);
  }
  void AddCacheHit() { cache_hits_.fetch_add(1, std::memory_order_relaxed); }
  void AddCacheMiss() {
    cache_misses_.fetch_add(1, std::memory_order_relaxed);
  }
  void SampleInFlight(int depth) {
    in_flight_sum_.fetch_add(depth, std::memory_order_relaxed);
    in_flight_samples_.fetch_add(1, std::memory_order_relaxed);
  }
  /// Folds one backend scheduler's counters in (workers pass the growth
  /// since their previous fold, after every completion).
  void AddSchedulerStats(const IoSchedulerStats& io) {
    io_requests_.fetch_add(io.requests, std::memory_order_relaxed);
    io_segments_.fetch_add(io.segments, std::memory_order_relaxed);
    io_ops_.fetch_add(io.ops, std::memory_order_relaxed);
    io_submits_.fetch_add(io.submits, std::memory_order_relaxed);
    io_syscalls_.fetch_add(io.syscalls, std::memory_order_relaxed);
    io_retries_.fetch_add(io.retries, std::memory_order_relaxed);
  }
  void AddPrefixHit() {
    prefix_hits_.fetch_add(1, std::memory_order_relaxed);
  }
  void AddPrefixMiss() {
    prefix_misses_.fetch_add(1, std::memory_order_relaxed);
  }
  void AddFailover() { failovers_.fetch_add(1, std::memory_order_relaxed); }
  void AddHedge() { hedges_.fetch_add(1, std::memory_order_relaxed); }
  void AddHedgeWin() { hedge_wins_.fetch_add(1, std::memory_order_relaxed); }

  /// Records one storage fetch's submit-to-completion latency (ring-
  /// windowed; see LatencyRing).
  void AddFetchLatency(double seconds) { fetch_latencies_.Add(seconds); }

  /// Serving-stage latencies: request receipt -> service start, and request
  /// receipt -> reply written. The daemon keeps one StageStats per client
  /// stream and records both per served batch.
  void AddQueueWait(double seconds) { queue_waits_.Add(seconds); }
  void AddBatchLatency(double seconds) { batch_latencies_.Add(seconds); }

  /// Data-plane copy accounting (see StageStatsSnapshot field docs).
  void AddBytesCopied(uint64_t bytes) {
    bytes_copied_.fetch_add(bytes, std::memory_order_relaxed);
  }
  void AddZeroCopyHit(uint64_t bytes_saved) {
    zero_copy_hits_.fetch_add(1, std::memory_order_relaxed);
    zero_copy_bytes_.fetch_add(bytes_saved, std::memory_order_relaxed);
  }
  void AddShmSlotWait() {
    shm_slot_waits_.fetch_add(1, std::memory_order_relaxed);
  }
  void AddShmBatch() { shm_batches_.fetch_add(1, std::memory_order_relaxed); }

  StageStatsSnapshot Snapshot(std::string name, int threads,
                              size_t queue_capacity) const {
    StageStatsSnapshot snap;
    snap.name = std::move(name);
    snap.threads = threads;
    snap.busy_seconds = busy_nanos_.load(std::memory_order_relaxed) * 1e-9;
    snap.idle_seconds = idle_nanos_.load(std::memory_order_relaxed) * 1e-9;
    snap.items = items_.load(std::memory_order_relaxed);
    snap.bytes = bytes_.load(std::memory_order_relaxed);
    const int64_t samples =
        queue_depth_samples_.load(std::memory_order_relaxed);
    snap.mean_queue_depth =
        samples > 0 ? static_cast<double>(queue_depth_sum_.load(
                          std::memory_order_relaxed)) /
                          static_cast<double>(samples)
                    : 0.0;
    snap.queue_capacity = queue_capacity;
    snap.cache_hits = cache_hits_.load(std::memory_order_relaxed);
    snap.cache_misses = cache_misses_.load(std::memory_order_relaxed);
    const int64_t in_flight_samples =
        in_flight_samples_.load(std::memory_order_relaxed);
    snap.mean_in_flight =
        in_flight_samples > 0
            ? static_cast<double>(
                  in_flight_sum_.load(std::memory_order_relaxed)) /
                  static_cast<double>(in_flight_samples)
            : 0.0;
    snap.io_requests = io_requests_.load(std::memory_order_relaxed);
    snap.io_segments = io_segments_.load(std::memory_order_relaxed);
    snap.io_ops = io_ops_.load(std::memory_order_relaxed);
    snap.io_submits = io_submits_.load(std::memory_order_relaxed);
    snap.io_syscalls = io_syscalls_.load(std::memory_order_relaxed);
    snap.prefix_hits = prefix_hits_.load(std::memory_order_relaxed);
    snap.prefix_misses = prefix_misses_.load(std::memory_order_relaxed);
    snap.io_retries = io_retries_.load(std::memory_order_relaxed);
    snap.failovers = failovers_.load(std::memory_order_relaxed);
    snap.hedges = hedges_.load(std::memory_order_relaxed);
    snap.hedge_wins = hedge_wins_.load(std::memory_order_relaxed);
    const LatencyRing::Percentiles fetch = fetch_latencies_.Snapshot();
    snap.fetch_p50_sec = fetch.p50;
    snap.fetch_p99_sec = fetch.p99;
    snap.fetch_latency_samples = fetch.samples;
    const LatencyRing::Percentiles waits = queue_waits_.Snapshot();
    snap.queue_wait_p50_sec = waits.p50;
    snap.queue_wait_p99_sec = waits.p99;
    snap.queue_wait_samples = waits.samples;
    const LatencyRing::Percentiles batches = batch_latencies_.Snapshot();
    snap.batch_p50_sec = batches.p50;
    snap.batch_p99_sec = batches.p99;
    snap.batch_latency_samples = batches.samples;
    snap.bytes_copied = bytes_copied_.load(std::memory_order_relaxed);
    snap.zero_copy_hits = zero_copy_hits_.load(std::memory_order_relaxed);
    snap.zero_copy_bytes = zero_copy_bytes_.load(std::memory_order_relaxed);
    snap.shm_slot_waits = shm_slot_waits_.load(std::memory_order_relaxed);
    snap.shm_batches = shm_batches_.load(std::memory_order_relaxed);
    return snap;
  }

 private:
  std::atomic<int64_t> busy_nanos_{0};
  std::atomic<int64_t> idle_nanos_{0};
  std::atomic<int64_t> items_{0};
  std::atomic<uint64_t> bytes_{0};
  std::atomic<int64_t> queue_depth_sum_{0};
  std::atomic<int64_t> queue_depth_samples_{0};
  std::atomic<int64_t> cache_hits_{0};
  std::atomic<int64_t> cache_misses_{0};
  std::atomic<int64_t> in_flight_sum_{0};
  std::atomic<int64_t> in_flight_samples_{0};
  std::atomic<int64_t> io_requests_{0};
  std::atomic<int64_t> io_segments_{0};
  std::atomic<int64_t> io_ops_{0};
  std::atomic<int64_t> io_submits_{0};
  std::atomic<int64_t> io_syscalls_{0};
  std::atomic<int64_t> prefix_hits_{0};
  std::atomic<int64_t> prefix_misses_{0};
  std::atomic<int64_t> io_retries_{0};
  std::atomic<int64_t> failovers_{0};
  std::atomic<int64_t> hedges_{0};
  std::atomic<int64_t> hedge_wins_{0};
  std::atomic<uint64_t> bytes_copied_{0};
  std::atomic<int64_t> zero_copy_hits_{0};
  std::atomic<uint64_t> zero_copy_bytes_{0};
  std::atomic<int64_t> shm_slot_waits_{0};
  std::atomic<int64_t> shm_batches_{0};

  LatencyRing fetch_latencies_;
  LatencyRing queue_waits_;
  LatencyRing batch_latencies_;
};

}  // namespace pcr
