// PcrDaemon: the long-running serving node — one process owning the shared
// storage/decode resources (Env + FdCache via the process Env, one big
// DecodeCache and PrefixCache), feeding many trainer clients over a
// unix-domain socket speaking the serve/protocol.h frame protocol.
//
// Resource model:
//
//   - One LoaderExecutor per daemon owns every loader worker: a fixed set
//     of I/O workers and one decode worker per hardware thread. Each
//     OpenStream admits (or rejects — admission control) one stream, a
//     LoaderPipeline attached to that executor: private epoch/shuffle/
//     scan-group state and output queue, but shared workers and shared
//     caches underneath. The executor issues tickets round-robin over the
//     streams with credit, so a stream whose client stops asking cannot
//     stall the others. Two clients streaming the same dataset share
//     decoded entries: the daemon derives the cache namespace server-side
//     from (canonical path, manifest fingerprint), so the same dataset +
//     writer generation maps to the same id regardless of which client
//     opened it first, and a rewritten dataset gets a fresh id instead of
//     colliding with stale entries.
//   - Admission control: at most `max_streams` live streams, at most
//     `max_inflight_per_stream` queued NextBatch requests per stream
//     (excess requests get ResourceExhausted instead of unbounded daemon
//     memory), and each open dataset is capped to a byte-budget share of
//     the decode cache (DecodeCache::SetDatasetByteCap) so one tenant's
//     working set cannot evict everyone else's.
//   - Fairness has one point: executor admission, where the contended
//     resource (I/O and decode workers) is. I/O workers issue tickets
//     round-robin over the streams with credit, and a stream's credit
//     (output queue depth + in-flight reads) caps how far it can run ahead
//     of its client, so a greedy client pipelining large batches cannot
//     starve a modest one.
//
// Threading: one accept thread, one reader thread per connection
// (demultiplexing Hello/OpenStream/NextBatch/Stats/Close), the executor's
// I/O and decode workers, and one serving thread per stream (NextBatch
// queue -> pipeline -> reply) — a stream costs one thread. The serving
// thread is the one place a reply may block: on the client's socket, or on
// the stream's own shm slot credits. Either wait stalls only that stream:
// no daemon-wide lock is held across it, and the connection's write lock,
// held across send(), is shared only with that client's other streams.
// Stop() is bounded even with clients blocked in NextBatch: it shuts the
// sockets down and stops every pipeline, which unblocks the serving
// threads, then shuts the executor down.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/pcr_dataset.h"
#include "loader/decode_cache.h"
#include "loader/pipeline.h"
#include "loader/prefix_cache.h"
#include "loader/stage_stats.h"
#include "serve/protocol.h"
#include "storage/env.h"
#include "util/result.h"

namespace pcr::serve {

struct DaemonOptions {
  /// Unix-domain socket path the daemon listens on (unlinked on Stop()).
  /// Must fit sockaddr_un (~100 bytes).
  std::string socket_path;
  std::string server_name = "pcrd";

  // Admission control.
  int max_streams = 16;
  int max_inflight_per_stream = 8;
  /// Each open dataset's byte-budget share of the decode cache, as a
  /// fraction of capacity (0 disables per-dataset caps).
  double dataset_cache_share = 0.5;

  // Shared caches (one of each per daemon).
  uint64_t decode_cache_bytes = 256ull << 20;
  uint64_t prefix_cache_bytes = 64ull << 20;

  // Shared-memory data plane (decoded streams only; negotiated per stream).
  /// Offer the shm plane to capable clients that ask for it.
  bool shm_plane = true;
  /// Slots in each stream's ring; 0 derives the granted in-flight cap + 2,
  /// so a well-behaved client never stalls on slot credits.
  int shm_slots_per_stream = 0;
  /// Per-slot capacity. A batch that does not fit falls back to a socket
  /// BatchReply for just that batch. Clamped to >= 4 KiB.
  uint64_t shm_slot_bytes = 4ull << 20;
  /// Deterministic fault injection for tests: pretend the SCM_RIGHTS pass
  /// failed (the daemon withdraws the plane and the stream stays on the
  /// socket), or create the segment at half the advertised size (the client
  /// must reject it at fstat validation and fall back cleanly).
  bool shm_fail_fd_pass_for_test = false;
  bool shm_undersize_segment_for_test = false;
};

class PcrDaemon {
 public:
  /// Binds the socket and starts the accept loop. The returned daemon is
  /// serving; destroy it (or Stop()) to shut down.
  static Result<std::unique_ptr<PcrDaemon>> Start(Env* env,
                                                  DaemonOptions options);

  ~PcrDaemon();
  PcrDaemon(const PcrDaemon&) = delete;
  PcrDaemon& operator=(const PcrDaemon&) = delete;

  /// Stops accepting, disconnects every client (in-flight NextBatch
  /// requests unblock with Aborted), joins all threads, and unlinks the
  /// socket. Bounded and idempotent.
  void Stop();

  const std::string& socket_path() const { return options_.socket_path; }

  /// Live stream count (admission gauge).
  int active_streams() const;

  /// The shared decoded-batch cache (test/diagnostic access).
  const std::shared_ptr<DecodeCache>& decode_cache() const {
    return decode_cache_;
  }

  /// The server-side cache namespace for a dataset directory: a hash of the
  /// canonical path and the metadata manifest's fingerprint (size + CRC).
  /// Same dataset + same writer generation => same id (clients share cache
  /// entries); a rewritten dataset changes the fingerprint, so stale keys
  /// from the old generation can never serve the new one.
  static Result<uint64_t> DeriveCacheDatasetId(Env* env,
                                               const std::string& dataset_dir);

 private:
  struct Connection;
  struct Stream;
  struct DatasetEntry;

  PcrDaemon(Env* env, DaemonOptions options);

  Status Listen();
  void AcceptLoop();
  void ReaderLoop(std::shared_ptr<Connection> conn);
  void HandleFrame(const std::shared_ptr<Connection>& conn,
                   const Frame& frame);
  void HandleHello(const std::shared_ptr<Connection>& conn, Slice payload);
  void HandleOpenStream(const std::shared_ptr<Connection>& conn,
                        Slice payload);
  void HandleNextBatch(const std::shared_ptr<Connection>& conn,
                       Slice payload);
  void HandleShmAck(const std::shared_ptr<Connection>& conn, Slice payload);
  void HandleReleaseSlot(const std::shared_ptr<Connection>& conn,
                         Slice payload);
  void HandleStats(const std::shared_ptr<Connection>& conn, Slice payload);
  void HandleCloseStream(const std::shared_ptr<Connection>& conn,
                         Slice payload);
  void ServeLoop(const std::shared_ptr<Stream>& stream);

  /// Serializes + writes one frame under the connection's write lock.
  Status WriteFrame(Connection& conn, MessageType type, Slice payload);
  /// Like WriteFrame, but attaches `fd` to the frame's first byte as
  /// SCM_RIGHTS ancillary data (the shm segment pass at OpenStream).
  Status WriteFrameWithFd(Connection& conn, MessageType type, Slice payload,
                          int fd);
  void SendError(const std::shared_ptr<Connection>& conn,
                 const Status& status, uint64_t stream_id);

  /// Opens (or refs) the dataset registry entry for `dir`, deriving the
  /// shared cache id and installing its byte share.
  Result<std::shared_ptr<DatasetEntry>> AcquireDataset(
      const std::string& dir);
  void ReleaseDataset(const std::shared_ptr<DatasetEntry>& entry);

  /// Tears one stream down: closes its slot ring and stops its pipeline
  /// (which unblock a serving thread parked on either), joins the serving
  /// thread, and releases the admission slot and dataset ref. A serving
  /// thread blocked in send() returns once its client reads or the socket
  /// is shut down (disconnect, Stop()); no other stream waits on it.
  void TeardownStream(uint64_t stream_id);
  /// Disconnect path: tears down every stream the connection owns.
  void TeardownConnection(const std::shared_ptr<Connection>& conn);

  StatsReply BuildStats(uint64_t stream_id);

  Env* env_;
  DaemonOptions options_;
  std::shared_ptr<DecodeCache> decode_cache_;
  std::shared_ptr<PrefixCache> prefix_cache_;
  /// The loader workers every stream's pipeline runs on (built in Start).
  std::shared_ptr<LoaderExecutor> executor_;

  int listen_fd_ = -1;
  /// True once Listen() bound the socket path; gates the unlink on Stop()
  /// so a daemon that lost the bind race cannot remove the winner's socket.
  bool bound_ = false;
  std::thread accept_thread_;
  std::atomic<bool> stopping_{false};

  std::mutex conns_mu_;
  std::vector<std::shared_ptr<Connection>> conns_;

  mutable std::mutex streams_mu_;
  std::unordered_map<uint64_t, std::shared_ptr<Stream>> streams_;
  /// Reserved admission slots, guarded by streams_mu_. Streams count from
  /// the moment HandleOpenStream reserves an id (before the fully built
  /// stream is published in streams_) until TeardownStream erases it, so
  /// concurrent opens cannot over-admit during initialization.
  int admitted_streams_ = 0;
  uint64_t next_stream_id_ = 1;

  std::mutex datasets_mu_;
  std::unordered_map<std::string, std::shared_ptr<DatasetEntry>> datasets_;
};

}  // namespace pcr::serve
