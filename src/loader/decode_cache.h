// DecodeCache: a sharded, thread-safe, byte-budgeted LRU of decoded record
// batches, keyed on (dataset id, record index, scan group). It sits between
// the decode stage and the consumer of LoaderPipeline: multi-epoch training
// re-reads the same (record, scan group) pairs every epoch, and a hit skips
// both the storage fetch and the JPEG decode — O(epochs) decodes per record
// become O(1) at a fixed scan level.
//
// Entries hold immutable decoded batches behind shared_ptr, so a Lookup
// result stays valid even if the entry is evicted while the caller copies
// from it. Insert moves the decoded batch into the cache (the miss path's
// only extra cost is one batch copy, paid off the consumer thread); an entry
// larger than a shard's budget is rejected without consuming the batch.
//
// Scan-group changes (dynamic tuning) invalidate only the affected entries
// via InvalidateScanGroup — entries at other groups, e.g. the live groups of
// a mixture policy, keep serving hits instead of being flushed wholesale.
//
// Admission control: tuners probing candidate scan groups generate one-shot
// traffic — every probed (record, group) is read once and never again at
// that group unless the tuner adopts it. Populating the cache with those
// batches evicts the hot working set for entries that will never hit.
// MarkProbeScanGroup makes Insert skip population for a (dataset, group)
// pair (lookups still hit whatever is already cached) until the tuner
// unmarks it.
#pragma once

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <set>
#include <unordered_map>
#include <utility>
#include <vector>

#include "loader/loaded_batch.h"

namespace pcr {

struct DecodeCacheKey {
  uint64_t dataset_id = 0;  // From RegisterDataset(); disambiguates sources.
  int record = -1;
  int scan_group = 0;

  bool operator==(const DecodeCacheKey& other) const {
    return dataset_id == other.dataset_id && record == other.record &&
           scan_group == other.scan_group;
  }
};

struct DecodeCacheKeyHash {
  size_t operator()(const DecodeCacheKey& key) const {
    // splitmix64 finalizer over the packed fields.
    uint64_t x = key.dataset_id * 0x9e3779b97f4a7c15ULL +
                 (static_cast<uint64_t>(static_cast<uint32_t>(key.record))
                  << 32) +
                 static_cast<uint32_t>(key.scan_group);
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return static_cast<size_t>(x ^ (x >> 31));
  }
};

struct DecodeCacheOptions {
  /// Total decoded-byte budget across all shards.
  uint64_t capacity_bytes = 256ull << 20;
  /// Independent LRU shards; concurrent workers contend only per shard.
  int shards = 8;
};

/// Point-in-time counters. bytes/entries are exact (shards are locked while
/// summing); the monotonic counters are relaxed atomics.
struct DecodeCacheStats {
  int64_t hits = 0;
  int64_t misses = 0;
  int64_t evictions = 0;         // Entries pushed out by the byte budget.
  int64_t inserts = 0;           // Accepted inserts (including replacements).
  int64_t oversize_rejects = 0;  // Batches larger than a shard's budget.
  int64_t admission_rejects = 0; // Inserts skipped for probe-marked groups.
  int64_t invalidated = 0;       // Entries removed by Invalidate*/Clear.
  int64_t share_evictions = 0;   // Same-dataset evictions by a byte-share cap.
  int64_t share_rejects = 0;     // Inserts rejected by a byte-share cap.
  uint64_t bytes_in_use = 0;
  int64_t entries = 0;
  uint64_t capacity_bytes = 0;
};

class DecodeCache {
 public:
  explicit DecodeCache(DecodeCacheOptions options);

  DecodeCache(const DecodeCache&) = delete;
  DecodeCache& operator=(const DecodeCache&) = delete;

  /// Hands out a process-unique dataset id for keying, so one cache can be
  /// shared by loaders over different sources without key collisions.
  uint64_t RegisterDataset() {
    return next_dataset_id_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Returns the cached batch (marking it most-recently-used) or nullptr.
  std::shared_ptr<const LoadedBatch> Lookup(const DecodeCacheKey& key);

  /// Moves `batch` into the cache and returns the stored entry, evicting
  /// least-recently-used entries until the shard fits its budget. Returns
  /// nullptr — with `batch` left untouched — when the batch alone exceeds
  /// the per-shard budget or its (dataset, scan group) is probe-marked. An
  /// existing entry under the same key is replaced.
  std::shared_ptr<const LoadedBatch> Insert(const DecodeCacheKey& key,
                                            LoadedBatch&& batch);

  /// Admission control for one-shot traffic: while (dataset_id, scan_group)
  /// is marked, Insert skips population (counted as an admission reject)
  /// instead of evicting resident entries, and Lookup keeps serving whatever
  /// was cached before. Tuners mark candidate groups for the duration of a
  /// probe cycle. Marking is idempotent; Unmark restores normal admission.
  void MarkProbeScanGroup(uint64_t dataset_id, int scan_group);
  void UnmarkProbeScanGroup(uint64_t dataset_id, int scan_group);
  bool IsProbeScanGroup(uint64_t dataset_id, int scan_group) const;

  /// Byte-budget shares for multi-tenant sharing (the serving daemon): while
  /// a dataset id carries a cap, its entries may not exceed `cap_bytes` in
  /// total. An insert that would cross the cap first evicts that dataset's
  /// own least-recently-used entries in the insert's shard (so a tenant at
  /// its share churns its own working set instead of its neighbors'), and is
  /// rejected — counted as a share reject — if that cannot free enough.
  /// A cap of 0 removes the share. Entries already resident when a cap is
  /// set are kept (the cap gates admission, not residency).
  void SetDatasetByteCap(uint64_t dataset_id, uint64_t cap_bytes);

  /// Bytes currently resident for a share-capped dataset (0 for uncapped
  /// datasets — bytes are only accounted while a cap is active).
  uint64_t DatasetShareBytes(uint64_t dataset_id) const;

  /// Drops every entry of `dataset_id` at exactly `scan_group` — the
  /// targeted invalidation for a tuner switching away from a group. Returns
  /// the number of entries removed.
  size_t InvalidateScanGroup(uint64_t dataset_id, int scan_group);

  /// Drops every entry of `dataset_id`. Returns the number removed.
  size_t InvalidateDataset(uint64_t dataset_id);

  /// Drops everything.
  void Clear();

  DecodeCacheStats stats() const;

  uint64_t capacity_bytes() const { return options_.capacity_bytes; }
  int shards() const { return static_cast<int>(shards_.size()); }

  /// Decoded footprint an entry is charged for: pixels, labels, and any
  /// carried JPEG spans/backing.
  static uint64_t BatchBytes(const LoadedBatch& batch);

  /// Whether Insert would admit a batch of `bytes` under `key`: it must fit
  /// one shard's budget and the key's (dataset, scan group) must not be
  /// probe-marked. Lets the miss path skip its population copy for batches
  /// Insert would only reject.
  bool Admits(const DecodeCacheKey& key, uint64_t bytes) const {
    return bytes <= shard_capacity_ &&
           !IsProbeScanGroup(key.dataset_id, key.scan_group);
  }

 private:
  struct Entry {
    DecodeCacheKey key;
    std::shared_ptr<const LoadedBatch> batch;
    uint64_t bytes = 0;
  };
  struct Shard {
    mutable std::mutex mu;
    std::list<Entry> lru;  // Front = most recently used.
    std::unordered_map<DecodeCacheKey, std::list<Entry>::iterator,
                       DecodeCacheKeyHash>
        index;
    uint64_t bytes = 0;
  };

  Shard& ShardFor(const DecodeCacheKey& key) {
    return shards_[DecodeCacheKeyHash()(key) % shards_.size()];
  }
  template <typename Pred>
  size_t InvalidateMatching(Pred pred);

  /// Adjusts a capped dataset's resident-byte account (no-op for uncapped
  /// datasets). Safe to call with a shard mutex held: lock order is always
  /// shard.mu -> share_mu_.
  void ShareCharge(uint64_t dataset_id, int64_t delta);

  DecodeCacheOptions options_;
  uint64_t shard_capacity_;
  std::vector<Shard> shards_;
  std::atomic<uint64_t> next_dataset_id_{1};

  /// Probe-marked (dataset id, scan group) pairs. The set is tiny (a
  /// handful of tuner candidates at most) but sits on the per-insert hot
  /// path, so the no-marks common case short-circuits on a relaxed atomic
  /// count and never touches the mutex.
  std::atomic<int> probe_mark_count_{0};
  mutable std::mutex probe_mu_;
  std::set<std::pair<uint64_t, int>> probe_groups_;

  /// Byte-share accounting, populated only for capped datasets. Like probe
  /// marks, the common uncapped case short-circuits on the atomic count
  /// without touching the mutex.
  struct Share {
    uint64_t cap = 0;
    uint64_t bytes = 0;
  };
  std::atomic<int> share_count_{0};
  mutable std::mutex share_mu_;
  std::unordered_map<uint64_t, Share> shares_;

  mutable std::atomic<int64_t> hits_{0};
  mutable std::atomic<int64_t> misses_{0};
  std::atomic<int64_t> evictions_{0};
  std::atomic<int64_t> inserts_{0};
  std::atomic<int64_t> oversize_rejects_{0};
  std::atomic<int64_t> admission_rejects_{0};
  std::atomic<int64_t> invalidated_{0};
  std::atomic<int64_t> share_evictions_{0};
  std::atomic<int64_t> share_rejects_{0};
};

}  // namespace pcr
