// Internals shared by the run harness and the workloads: the run's phase
// clock, per-stream delivery ledgers, and the Workload interface.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "e2e.h"

namespace pcr::e2e {

/// Phases of one run. Setups deliver first batches; warm-up is discarded;
/// measure-A is the untraced window; measure-B the traced one (traced runs
/// only).
enum Phase : int {
  kSetup = 0,
  kWarmup,
  kMeasureA,
  kMeasureB,
  kDone,
  kPhases
};

/// Deliveries of one consumer in one phase.
struct Tally {
  int64_t images = 0;
  int64_t batches = 0;
  int64_t shm_batches = 0;
  uint64_t bytes_read = 0;
  uint64_t input_bytes = 0;  // Ingest: JPEG bytes handed to the writer.
  int64_t consume_ns = 0;
  /// Time the consumer blocked per step (one batch, or one round over a
  /// trainer's streams).
  std::vector<double> wait_ms;
  std::vector<double> request_ms;
  std::map<std::string, int64_t> stream_images;
  /// The first deliveries as (record, scan group): the layer walk's input.
  std::vector<std::pair<int, int>> sequence;

  void Merge(const Tally& other);
};

/// One delivery stream (a pipeline, a daemon stream, the writer). Owned by
/// the consumer thread that drives it until that thread is joined.
struct StreamLedger {
  std::string name;
  ConsumerProgress* progress = nullptr;
  /// Deliveries per record since the stream was last checked.
  std::map<int, int64_t> record_counts;
  Tally tally[kPhases];
};

/// Run-wide state every consumer shares.
class Run {
 public:
  Run(const RunConfig& config, const Reference& ref)
      : config(config), ref(ref) {}

  int phase() const { return phase_.load(std::memory_order_acquire); }
  void set_phase(int phase) { phase_.store(phase, std::memory_order_release); }
  bool fatal() const { return fatal_.load(std::memory_order_acquire); }

  /// Counts one failed batch and prints the first few reasons.
  void Fail(const std::string& why);
  /// A failure that ends the run (the stream can no longer deliver).
  void Abort(const std::string& why) {
    Fail(why);
    fatal_.store(true, std::memory_order_release);
  }

  /// Verifies and accounts one delivered batch. `wait_start`/`wait_end`
  /// bracket the blocking call that produced it; the caller records the
  /// consumer's wait, since a consumer step may span several batches.
  void Deliver(StreamLedger* ledger, int record, int group,
               const std::vector<int64_t>& labels,
               const std::vector<ImageView>& images, uint64_t bytes_read,
               int64_t wait_start, int64_t wait_end);

  const RunConfig& config;
  const Reference& ref;
  SpanRecorder recorder;
  std::atomic<int64_t> attempted{0};
  std::atomic<int64_t> failed{0};

 private:
  std::atomic<int> phase_{kSetup};
  std::atomic<bool> fatal_{false};
};

using Counters = std::map<std::string, double>;

/// What the layer walk replays: the workload's own (record, group)
/// sequence, read through the workload's Env.
struct WalkTarget {
  Env* env = nullptr;
  std::string dataset_dir;
  std::vector<std::pair<int, int>> sequence;
};

class Workload {
 public:
  explicit Workload(Run* run) : run_(run) {}
  virtual ~Workload() = default;

  /// Work excluded from every metric (loading inputs, staging SimEnv).
  virtual Status Init() = 0;
  /// Builds the system and receives its first batch(es). Timed: setup_s.
  virtual Status Setup() = 0;
  /// Starts the consumer threads (closed loop, one per consumer).
  virtual void Start() = 0;
  /// Joins the consumers once the phase is kDone.
  virtual void Stop() = 0;
  /// Destroys what Setup built.
  virtual void Teardown() = 0;
  /// Cumulative layer counters at a phase boundary.
  virtual Counters Sample() = 0;
  /// Per-layer metrics from counters at the traced window's two ends and
  /// the window's deliveries.
  virtual void LayerMetrics(const Counters& begin, const Counters& end,
                            const Tally& window, double seconds,
                            Metrics* out) = 0;
  /// Post-run correctness checks beyond per-batch verification, run after
  /// Stop() and before Teardown().
  virtual void Verify() {}
  virtual WalkTarget Walk(const Tally& window) = 0;
  /// Extra metrics only this workload can measure (traced runs).
  virtual void ExtraMetrics(Metrics* out) { (void)out; }
  /// Removes run-time files once the walk is done.
  virtual void Cleanup() {}

  const std::vector<std::unique_ptr<StreamLedger>>& ledgers() const {
    return ledgers_;
  }

 protected:
  StreamLedger* AddLedger(const std::string& name);
  /// Called when a stream of `epochs` epochs has ended: every record must
  /// have come exactly `epochs` times. Order-free, so batches overtaking
  /// each other cannot blur it. Resets the ledger's counts for the next
  /// stream.
  void CheckExactlyOnce(StreamLedger* ledger, int epochs);

  Run* run_;
  std::vector<std::unique_ptr<StreamLedger>> ledgers_;
};

std::unique_ptr<Workload> MakeWorkload(Run* run);
std::unique_ptr<Workload> MakeServeWorkload(Run* run, bool warm);

/// Metric helpers.
inline void PutMetric(Metrics* out, const std::string& name, double value,
                      const char* unit) {
  (*out)[name] = Metric{value, unit};
}
double PercentileOf(const std::vector<double>& values, double p);
inline double Ratio(double num, double den) { return den > 0 ? num / den : 0; }
inline double Delta(const Counters& a, const Counters& b,
                    const std::string& key) {
  const auto ia = a.find(key);
  const auto ib = b.find(key);
  return (ib == b.end() ? 0 : ib->second) - (ia == a.end() ? 0 : ia->second);
}

}  // namespace pcr::e2e
