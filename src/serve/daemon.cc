#include "serve/daemon.h"

#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/uio.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <climits>
#include <condition_variable>
#include <cstdlib>
#include <cstring>
#include <utility>

#include "kv/kv_store.h"
#include "loader/scan_policy.h"
#include "util/crc32c.h"
#include "util/logging.h"
#include "util/shm_ring.h"

namespace pcr::serve {
namespace {

double NowSec() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Canonicalizes a dataset directory so two spellings of one path share a
/// registry entry (and thus a cache namespace). Falls back to the raw
/// spelling when the path does not resolve.
std::string CanonicalPath(const std::string& path) {
  char buf[PATH_MAX];
  if (::realpath(path.c_str(), buf) != nullptr) return std::string(buf);
  return path;
}

/// The executor's I/O workers, shared by every stream. Reads are
/// submission-window driven, so a few workers keep every stream's window
/// full; decode, not I/O, is what needs cores.
constexpr int kExecutorIoThreads = 2;
/// Reads each executor I/O worker keeps in flight across all streams: room
/// for four streams' default windows at once.
constexpr int kExecutorWindow = 16;

/// Sends frame[sent..] with plain send()s, retrying on EINTR. The one send
/// loop behind WriteFrame and WriteFrameWithFd; the caller holds the
/// connection's write lock.
Status SendRemainder(int fd, const std::string& frame, size_t sent) {
  while (sent < frame.size()) {
    const ssize_t n =
        ::send(fd, frame.data() + sent, frame.size() - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IOError("serve: send(): " +
                             std::string(std::strerror(errno)));
    }
    sent += static_cast<size_t>(n);
  }
  return Status::OK();
}

uint64_t Mix64(uint64_t x) {
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

// --- Connection / Stream / DatasetEntry ------------------------------------

struct PcrDaemon::Connection {
  int fd = -1;
  std::string peer_name;  // From Hello.
  bool said_hello = false;
  bool shm_capable = false;  // Hello capability bit.

  std::mutex write_mu;
  std::thread reader;
  std::atomic<bool> done{false};

  std::mutex streams_mu;
  std::vector<uint64_t> stream_ids;
};

struct PcrDaemon::DatasetEntry {
  std::string canonical_dir;
  std::unique_ptr<PcrDataset> dataset;
  uint64_t cache_id = 0;
  int refs = 0;
};

struct PcrDaemon::Stream {
  uint64_t id = 0;
  std::string client_name;
  std::shared_ptr<Connection> conn;
  std::shared_ptr<DatasetEntry> dataset;
  std::unique_ptr<LoaderPipeline> pipeline;
  uint32_t max_inflight = 1;

  std::mutex mu;
  std::condition_variable cv;
  std::deque<double> pending;  // NextBatch receipt times (steady seconds).
  bool closing = false;
  bool end_of_stream = false;

  StageStats stats;  // Serve stage: items = served batches.
  std::atomic<int64_t> served_images{0};

  // Shm data plane. Like the pipeline, segment and ring are assigned before
  // the stream is published and never reset afterwards, so the serving
  // thread and stats readers touch them without stream->mu. Descriptors
  // flow only once shm_active is set (by the client's accepted ShmAck);
  // until then — and forever on the socket plane — both stay unused.
  std::unique_ptr<ShmSegment> shm;
  std::unique_ptr<SlotRing> ring;
  std::atomic<bool> shm_active{false};

  std::thread server;
};

// --- Daemon lifecycle -------------------------------------------------------

PcrDaemon::PcrDaemon(Env* env, DaemonOptions options)
    : env_(env), options_(std::move(options)) {
  DecodeCacheOptions cache_options;
  cache_options.capacity_bytes = std::max<uint64_t>(1, options_.decode_cache_bytes);
  decode_cache_ = std::make_shared<DecodeCache>(cache_options);
  prefix_cache_ = std::make_shared<PrefixCache>(
      PrefixCacheOptions{std::max<uint64_t>(1, options_.prefix_cache_bytes)});
}

Result<std::unique_ptr<PcrDaemon>> PcrDaemon::Start(Env* env,
                                                    DaemonOptions options) {
  if (options.socket_path.empty()) {
    return Status::InvalidArgument("serve: socket_path is required");
  }
  std::unique_ptr<PcrDaemon> daemon(new PcrDaemon(env, std::move(options)));
  PCR_RETURN_IF_ERROR(daemon->Listen());
  LoaderPipelineOptions workers;
  workers.io_threads = kExecutorIoThreads;
  workers.io_inflight = kExecutorWindow;
  workers.decode_threads =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  daemon->executor_ = std::make_shared<LoaderExecutor>(workers);
  daemon->accept_thread_ = std::thread([d = daemon.get()] { d->AcceptLoop(); });
  return daemon;
}

Status PcrDaemon::Listen() {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (options_.socket_path.size() >= sizeof(addr.sun_path)) {
    return Status::InvalidArgument("serve: socket path too long: " +
                                   options_.socket_path);
  }
  std::memcpy(addr.sun_path, options_.socket_path.c_str(),
              options_.socket_path.size() + 1);
  // A file at the socket path may be a LIVE daemon's socket or a stale
  // leftover from a crash. Probe-connect before unlinking: blindly clearing
  // the path would silently steal a running daemon's clients (its listener
  // keeps serving existing connections, but every new connect lands here).
  struct stat st{};
  if (::lstat(options_.socket_path.c_str(), &st) == 0) {
    if (!S_ISSOCK(st.st_mode)) {
      return Status::AlreadyExists("serve: " + options_.socket_path +
                                   " exists and is not a socket");
    }
    const int probe = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (probe < 0) {
      return Status::IOError("serve: socket(): " +
                             std::string(std::strerror(errno)));
    }
    const int connected =
        ::connect(probe, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
    ::close(probe);
    if (connected == 0) {
      return Status::AlreadyExists("serve: a live daemon is already "
                                   "listening on " +
                                   options_.socket_path);
    }
    // ECONNREFUSED (or any connect failure on an existing socket file):
    // nobody is accepting — a stale socket from a crash. Safe to replace.
  }
  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Status::IOError("serve: socket(): " +
                           std::string(std::strerror(errno)));
  }
  ::unlink(options_.socket_path.c_str());
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    const int err = errno;
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::IOError("serve: bind(" + options_.socket_path +
                           "): " + std::strerror(err));
  }
  bound_ = true;  // From here on the socket file is ours to unlink.
  if (::listen(listen_fd_, 64) < 0) {
    const int err = errno;
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::IOError("serve: listen(): " +
                           std::string(std::strerror(err)));
  }
  return Status::OK();
}

PcrDaemon::~PcrDaemon() { Stop(); }

void PcrDaemon::Stop() {
  if (stopping_.exchange(true)) {
    // Second caller (e.g. ~PcrDaemon after an explicit Stop) — already done.
    if (accept_thread_.joinable()) accept_thread_.join();
    return;
  }
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
  if (accept_thread_.joinable()) accept_thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }

  // Unblock everything serve-side first: sever every connection (unblocks
  // serving threads parked in send() against a stalled client and pops the
  // readers out of recv()), then tear the streams down — ring Close() and
  // pipeline Stop() unblock any thread parked on a slot or inside Next(),
  // so the joins below are bounded — and shut the executor's workers down
  // behind them.
  std::vector<std::shared_ptr<Connection>> conns;
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    conns.swap(conns_);
  }
  for (const auto& conn : conns) {
    ::shutdown(conn->fd, SHUT_RDWR);
  }
  std::vector<uint64_t> ids;
  {
    std::lock_guard<std::mutex> lock(streams_mu_);
    ids.reserve(streams_.size());
    for (const auto& [id, stream] : streams_) ids.push_back(id);
  }
  for (uint64_t id : ids) TeardownStream(id);
  if (executor_ != nullptr) executor_->Shutdown();
  for (const auto& conn : conns) {
    if (conn->reader.joinable()) conn->reader.join();
    ::close(conn->fd);  // Readers leave the fd open; the remover closes it.
  }
  // Only remove the socket file if this daemon bound it — a daemon that
  // LOST the Listen() race must not unlink the winner's live socket (or
  // whatever non-socket file blocked the path).
  if (bound_) ::unlink(options_.socket_path.c_str());
}

int PcrDaemon::active_streams() const {
  std::lock_guard<std::mutex> lock(streams_mu_);
  return static_cast<int>(streams_.size());
}

// --- Accept / read / dispatch ----------------------------------------------

void PcrDaemon::AcceptLoop() {
  while (!stopping_.load(std::memory_order_acquire)) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // Listener shut down (or unrecoverable).
    }
    auto conn = std::make_shared<Connection>();
    conn->fd = fd;
    {
      std::lock_guard<std::mutex> lock(conns_mu_);
      // Reap connections whose readers already finished (their streams are
      // torn down by the reader on its way out).
      for (auto it = conns_.begin(); it != conns_.end();) {
        if ((*it)->done.load(std::memory_order_acquire)) {
          if ((*it)->reader.joinable()) (*it)->reader.join();
          ::close((*it)->fd);
          it = conns_.erase(it);
        } else {
          ++it;
        }
      }
      conns_.push_back(conn);
    }
    conn->reader = std::thread([this, conn] { ReaderLoop(conn); });
  }
}

void PcrDaemon::ReaderLoop(std::shared_ptr<Connection> conn) {
  FrameParser parser;
  std::vector<char> buf(256 << 10);
  bool healthy = true;
  while (healthy) {
    const ssize_t n = ::recv(conn->fd, buf.data(), buf.size(), 0);
    if (n <= 0) break;  // Peer closed / connection severed.
    parser.Feed(Slice(buf.data(), static_cast<size_t>(n)));
    Frame frame;
    while (true) {
      const FrameParser::Outcome outcome = parser.Next(&frame);
      if (outcome == FrameParser::Outcome::kNeedMore) break;
      if (outcome == FrameParser::Outcome::kError) {
        // Unrecoverable stream (oversized/garbage header): tell the peer
        // why, then hang up.
        SendError(conn, parser.status(), 0);
        healthy = false;
        break;
      }
      HandleFrame(conn, frame);
    }
  }
  TeardownConnection(conn);
  // Sever the peer — when the reader hangs up first (garbage frames), the
  // client must still see EOF promptly — but do NOT close: closing would
  // free the descriptor number for reuse while this entry lingers in
  // conns_ (done connections are only reaped on the next accept), and
  // Stop()'s shutdown() could then hit an unrelated fd. Whoever removes
  // the connection from conns_ — the accept loop's reap or Stop() —
  // closes it after joining this thread.
  ::shutdown(conn->fd, SHUT_RDWR);
  conn->done.store(true, std::memory_order_release);
}

void PcrDaemon::HandleFrame(const std::shared_ptr<Connection>& conn,
                            const Frame& frame) {
  const Slice payload(frame.payload);
  switch (frame.type) {
    case MessageType::kHello:
      HandleHello(conn, payload);
      return;
    case MessageType::kOpenStream:
      HandleOpenStream(conn, payload);
      return;
    case MessageType::kNextBatch:
      HandleNextBatch(conn, payload);
      return;
    case MessageType::kShmAck:
      HandleShmAck(conn, payload);
      return;
    case MessageType::kReleaseSlot:
      HandleReleaseSlot(conn, payload);
      return;
    case MessageType::kStats:
      HandleStats(conn, payload);
      return;
    case MessageType::kCloseStream:
      HandleCloseStream(conn, payload);
      return;
    default:
      SendError(conn,
                Status::InvalidArgument(
                    "serve: unexpected client message type " +
                    std::to_string(static_cast<int>(frame.type))),
                0);
      return;
  }
}

void PcrDaemon::HandleHello(const std::shared_ptr<Connection>& conn,
                            Slice payload) {
  auto hello = HelloRequest::Decode(payload);
  if (!hello.ok()) {
    SendError(conn, hello.status(), 0);
    return;
  }
  if (hello->protocol_version != kProtocolVersion) {
    SendError(conn,
              Status::InvalidArgument(
                  "serve: protocol version mismatch: client speaks v" +
                  std::to_string(hello->protocol_version) + ", server v" +
                  std::to_string(kProtocolVersion)),
              0);
    return;
  }
  conn->peer_name = hello->client_name;
  conn->said_hello = true;
  conn->shm_capable = hello->shm_capable;
  HelloReply reply;
  reply.server_name = options_.server_name;
  reply.max_streams = static_cast<uint32_t>(options_.max_streams);
  reply.max_inflight_per_stream =
      static_cast<uint32_t>(options_.max_inflight_per_stream);
  reply.shm_supported = options_.shm_plane;
  (void)WriteFrame(*conn, MessageType::kHelloReply, Slice(reply.Encode()));
}

void PcrDaemon::HandleOpenStream(const std::shared_ptr<Connection>& conn,
                                 Slice payload) {
  auto req = OpenStreamRequest::Decode(payload);
  if (!req.ok()) {
    SendError(conn, req.status(), 0);
    return;
  }
  if (!conn->said_hello) {
    SendError(conn,
              Status::FailedPrecondition("serve: OpenStream before Hello"), 0);
    return;
  }
  if (req->max_epochs == 0) {
    SendError(conn,
              Status::InvalidArgument(
                  "serve: max_epochs must be >= 1 (unbounded streams would "
                  "pin an admission slot forever; re-open instead)"),
              0);
    return;
  }
  if (stopping_.load(std::memory_order_acquire)) {
    SendError(conn, Status::Aborted("serve: daemon stopping"), 0);
    return;
  }

  auto dataset = AcquireDataset(req->dataset_dir);
  if (!dataset.ok()) {
    SendError(conn, dataset.status(), 0);
    return;
  }

  const int num_groups = (*dataset)->dataset->num_scan_groups();
  int scan_group = static_cast<int>(req->scan_group);
  if (scan_group <= 0 || scan_group > num_groups) scan_group = num_groups;
  const uint32_t max_inflight = std::max<uint32_t>(
      1, std::min<uint32_t>(
             req->max_inflight,
             static_cast<uint32_t>(options_.max_inflight_per_stream)));

  LoaderPipelineOptions pipe;
  pipe.decode = req->decode;
  pipe.max_epochs = static_cast<int>(req->max_epochs);
  pipe.shuffle = req->shuffle;
  pipe.seed = req->seed;
  pipe.scan_policy = std::make_shared<FixedScanPolicy>(scan_group);
  pipe.decode_cache = decode_cache_;
  pipe.cache_dataset_id = (*dataset)->cache_id;
  pipe.prefix_cache = prefix_cache_;
  pipe.prefix_dataset_id = (*dataset)->cache_id;

  auto stream = std::make_shared<Stream>();
  stream->client_name = conn->peer_name;
  stream->conn = conn;
  stream->dataset = *dataset;
  stream->max_inflight = max_inflight;
  bool admitted = false;
  {
    // Reserve the admission slot and id, but do NOT publish the stream yet:
    // once it is visible in streams_, Stop()/CloseStream may tear it down
    // concurrently, so the pipeline and serving thread must both exist
    // first. admitted_streams_ counts reserved slots (including streams
    // still being initialized) so concurrent opens cannot over-admit in
    // the window before publication.
    std::lock_guard<std::mutex> lock(streams_mu_);
    if (admitted_streams_ < options_.max_streams) {
      stream->id = next_stream_id_++;
      ++admitted_streams_;
      admitted = true;
    }
  }
  if (!admitted) {
    // Admission control: the node is at capacity. Drop the dataset ref; the
    // client can retry after another stream closes.
    ReleaseDataset(*dataset);
    SendError(conn,
              Status::ResourceExhausted(
                  "serve: stream limit reached (" +
                  std::to_string(options_.max_streams) + ")"),
              0);
    return;
  }
  stream->pipeline = std::make_unique<LoaderPipeline>(
      (*dataset)->dataset.get(), pipe, executor_);

  // Shm data plane: decoded streams only (the compressed plane's JPEG bytes
  // are small and variable — the socket serves them fine), and only when
  // both the daemon offers it and the connection's Hello claimed the
  // capability. Segment creation failure (no memfd, /dev/shm exhausted) is
  // never a stream failure — the stream just stays on the socket plane.
  const bool want_shm = options_.shm_plane && req->shm_plane && req->decode &&
                        conn->shm_capable;
  if (want_shm) {
    const uint32_t slots = options_.shm_slots_per_stream > 0
                               ? static_cast<uint32_t>(
                                     options_.shm_slots_per_stream)
                               : max_inflight + 2;
    const uint64_t slot_bytes =
        std::max<uint64_t>(4096, options_.shm_slot_bytes);
    const uint64_t segment_bytes = static_cast<uint64_t>(slots) * slot_bytes;
    const uint64_t create_bytes = options_.shm_undersize_segment_for_test
                                      ? segment_bytes / 2
                                      : segment_bytes;
    auto segment = ShmSegment::Create(
        "pcrd-stream-" + std::to_string(stream->id), create_bytes);
    if (segment.ok()) {
      stream->shm = std::make_unique<ShmSegment>(std::move(segment).MoveValue());
      stream->ring = std::make_unique<SlotRing>(slots, slot_bytes);
    } else {
      PCR_LOG(Warning) << "serve: stream " << stream->id
                       << ": shm segment creation failed ("
                       << segment.status().ToString()
                       << "); falling back to the socket plane";
    }
  }

  {
    std::lock_guard<std::mutex> lock(conn->streams_mu);
    conn->stream_ids.push_back(stream->id);
  }
  stream->server = std::thread([this, stream] { ServeLoop(stream); });

  bool published = false;
  {
    std::lock_guard<std::mutex> lock(streams_mu_);
    if (!stopping_.load(std::memory_order_acquire)) {
      streams_[stream->id] = stream;
      published = true;
    }
  }
  if (!published) {
    // Stop() set stopping_ before snapshotting streams_, so it will never
    // see this stream — unwind it inline instead of leaking a joinable
    // serving thread and a live pipeline.
    {
      std::lock_guard<std::mutex> lock(stream->mu);
      stream->closing = true;
    }
    stream->cv.notify_all();
    if (stream->ring) stream->ring->Close();
    stream->pipeline->Stop();
    stream->server.join();
    {
      std::lock_guard<std::mutex> lock(streams_mu_);
      --admitted_streams_;
    }
    ReleaseDataset(*dataset);
    SendError(conn, Status::Aborted("serve: daemon stopping"), 0);
    return;
  }

  StreamOpenedReply reply;
  reply.stream_id = stream->id;
  reply.num_records =
      static_cast<uint32_t>((*dataset)->dataset->num_records());
  reply.num_images = static_cast<uint32_t>((*dataset)->dataset->num_images());
  reply.num_scan_groups = static_cast<uint32_t>(num_groups);
  reply.scan_group = static_cast<uint32_t>(scan_group);
  reply.max_inflight = max_inflight;
  reply.cache_dataset_id = (*dataset)->cache_id;
  if (stream->ring) {
    reply.shm_slots = stream->ring->num_slots();
    reply.shm_slot_bytes = stream->ring->slot_bytes();
  }
  (void)WriteFrame(*conn, MessageType::kStreamOpened, Slice(reply.Encode()));

  if (stream->ring) {
    // Pass the segment fd. The client answers with ShmAck once it mapped
    // (or failed to map) the segment; descriptors flow only after an
    // accepted ack. If the fd pass itself fails, withdraw the plane with a
    // plain slots=0 ShmSegment frame so the client is not left waiting —
    // the stream continues on the socket plane either way.
    ShmSegmentMsg msg;
    msg.stream_id = stream->id;
    msg.segment_bytes =
        static_cast<uint64_t>(stream->ring->num_slots()) *
        stream->ring->slot_bytes();
    msg.slots = stream->ring->num_slots();
    msg.slot_bytes = stream->ring->slot_bytes();
    Status passed = options_.shm_fail_fd_pass_for_test
                        ? Status::IOError("injected fd-pass failure")
                        : WriteFrameWithFd(*conn, MessageType::kShmSegment,
                                           Slice(msg.Encode()),
                                           stream->shm->fd());
    if (!passed.ok()) {
      PCR_LOG(Warning) << "serve: stream " << stream->id
                       << ": shm fd pass failed (" << passed.ToString()
                       << "); stream stays on the socket plane";
      ShmSegmentMsg withdraw;
      withdraw.stream_id = stream->id;
      withdraw.slots = 0;
      (void)WriteFrame(*conn, MessageType::kShmSegment,
                       Slice(withdraw.Encode()));
    }
  }
}

void PcrDaemon::HandleNextBatch(const std::shared_ptr<Connection>& conn,
                                Slice payload) {
  auto req = NextBatchRequest::Decode(payload);
  if (!req.ok()) {
    SendError(conn, req.status(), 0);
    return;
  }
  std::shared_ptr<Stream> stream;
  {
    std::lock_guard<std::mutex> lock(streams_mu_);
    auto it = streams_.find(req->stream_id);
    if (it != streams_.end()) stream = it->second;
  }
  if (!stream || stream->conn.get() != conn.get()) {
    SendError(conn,
              Status::NotFound("serve: no such stream " +
                               std::to_string(req->stream_id)),
              req->stream_id);
    return;
  }
  bool over_cap = false;
  size_t in_flight = 0;
  {
    std::lock_guard<std::mutex> lock(stream->mu);
    in_flight = stream->pending.size();
    if (in_flight >= stream->max_inflight) {
      over_cap = true;  // In-flight cap: the client overran its budget.
    } else {
      stream->pending.push_back(NowSec());
    }
  }
  if (over_cap) {
    SendError(conn,
              Status::ResourceExhausted(
                  "serve: stream " + std::to_string(stream->id) +
                  " already has " + std::to_string(in_flight) +
                  " requests in flight (cap " +
                  std::to_string(stream->max_inflight) + ")"),
              stream->id);
    return;
  }
  stream->cv.notify_one();
}

void PcrDaemon::HandleShmAck(const std::shared_ptr<Connection>& conn,
                             Slice payload) {
  auto ack = ShmAckRequest::Decode(payload);
  if (!ack.ok()) {
    SendError(conn, ack.status(), 0);
    return;
  }
  std::shared_ptr<Stream> stream;
  {
    std::lock_guard<std::mutex> lock(streams_mu_);
    auto it = streams_.find(ack->stream_id);
    if (it != streams_.end()) stream = it->second;
  }
  if (!stream || stream->conn.get() != conn.get() || !stream->ring) {
    return;  // Unknown/foreign stream or no plane offered: nothing to ack.
  }
  if (ack->accepted) {
    stream->shm_active.store(true, std::memory_order_release);
  }
  // A rejected ack (client could not receive the fd or map the segment)
  // simply leaves shm_active unset: the stream serves over the socket for
  // its whole life, and the segment dies with the Stream.
}

void PcrDaemon::HandleReleaseSlot(const std::shared_ptr<Connection>& conn,
                                  Slice payload) {
  auto req = ReleaseSlotRequest::Decode(payload);
  if (!req.ok()) {
    SendError(conn, req.status(), 0);
    return;
  }
  std::shared_ptr<Stream> stream;
  {
    std::lock_guard<std::mutex> lock(streams_mu_);
    auto it = streams_.find(req->stream_id);
    if (it != streams_.end()) stream = it->second;
  }
  if (!stream || stream->conn.get() != conn.get() || !stream->ring) return;
  // Out-of-range slots and stale/forged generation cookies are dropped by
  // the ring itself — a hostile credit cannot free someone else's tenancy.
  (void)stream->ring->Release(req->slot, req->generation);
}

void PcrDaemon::HandleStats(const std::shared_ptr<Connection>& conn,
                            Slice payload) {
  auto req = StatsRequest::Decode(payload);
  if (!req.ok()) {
    SendError(conn, req.status(), 0);
    return;
  }
  const StatsReply reply = BuildStats(req->stream_id);
  (void)WriteFrame(*conn, MessageType::kStatsReply, Slice(reply.Encode()));
}

void PcrDaemon::HandleCloseStream(const std::shared_ptr<Connection>& conn,
                                  Slice payload) {
  auto req = CloseStreamRequest::Decode(payload);
  if (!req.ok()) {
    SendError(conn, req.status(), 0);
    return;
  }
  bool known = false;
  {
    std::lock_guard<std::mutex> lock(streams_mu_);
    auto it = streams_.find(req->stream_id);
    known = it != streams_.end() && it->second->conn.get() == conn.get();
  }
  if (!known) {
    SendError(conn,
              Status::NotFound("serve: no such stream " +
                               std::to_string(req->stream_id)),
              req->stream_id);
    return;
  }
  TeardownStream(req->stream_id);
  StreamClosedReply reply;
  reply.stream_id = req->stream_id;
  (void)WriteFrame(*conn, MessageType::kStreamClosed, Slice(reply.Encode()));
}

// --- Serving ----------------------------------------------------------------

void PcrDaemon::ServeLoop(const std::shared_ptr<Stream>& stream) {
  while (true) {
    double receipt = 0;
    {
      std::unique_lock<std::mutex> lock(stream->mu);
      stream->cv.wait(lock, [&] {
        return stream->closing || !stream->pending.empty();
      });
      if (stream->closing) return;
      receipt = stream->pending.front();
      stream->pending.pop_front();
    }
    // Queue wait: time spent behind this stream's own earlier requests.
    stream->stats.AddQueueWait(NowSec() - receipt);

    BatchReply reply;             // Socket plane and end-of-stream.
    reply.stream_id = stream->id;
    BatchDescriptorReply desc;    // Shm plane.
    desc.stream_id = stream->id;
    bool use_shm = false;
    bool fatal = false;
    if (stream->end_of_stream) {
      reply.end_of_stream = true;
    } else {
      Result<SharedLoadedBatch> next = stream->pipeline->NextShared();
      if (next.ok()) {
        const LoadedBatch& batch = *next->batch;
        uint64_t pixel_bytes = 0;
        // Slot layout: each image starts cache-line aligned (the placement
        // copy's non-temporal stores want aligned destinations), so the
        // fit check is against the padded end, not the raw byte sum.
        uint64_t placed_end = 0;
        for (const Image& img : batch.images) {
          pixel_bytes += img.size_bytes();
          placed_end = (placed_end + 63) & ~uint64_t{63};
          placed_end += img.size_bytes();
        }

        // The shm plane carries decoded pixels that fit a slot; an
        // oversized batch (or a compressed one) falls back to a socket
        // BatchReply for just this delivery.
        use_shm = stream->shm_active.load(std::memory_order_acquire) &&
                  !batch.images.empty() && batch.jpeg_spans.empty() &&
                  placed_end <= stream->ring->slot_bytes();
        std::optional<std::pair<uint32_t, uint64_t>> slot;
        if (use_shm) {
          slot = stream->ring->TryAcquire();
          if (!slot.has_value()) {
            // Backpressure: every slot is lent out, so the client must
            // return one before this batch can be placed. The wait is this
            // stream's alone; other streams keep flowing.
            stream->stats.AddShmSlotWait();
            slot = stream->ring->Acquire();
            if (!slot.has_value()) return;  // Ring closed: teardown.
          }
        }

        if (use_shm) {
          // One copy, into the registered slot; only placement metadata
          // crosses the socket.
          uint8_t* const base =
              stream->shm->data() + stream->ring->SlotOffset(slot->first);
          uint64_t off = 0;
          for (const Image& img : batch.images) {
            off = (off + 63) & ~uint64_t{63};
            PlacementCopy(base + off, img.data(), img.size_bytes());
            WireImageDesc d;
            d.width = static_cast<uint32_t>(img.width());
            d.height = static_cast<uint32_t>(img.height());
            d.channels = static_cast<uint32_t>(img.channels());
            d.offset = off;
            d.length = img.size_bytes();
            desc.images.push_back(d);
            off += img.size_bytes();
          }
          desc.record_index = batch.record_index;
          desc.scan_group = static_cast<uint32_t>(batch.scan_group);
          desc.labels = batch.labels;
          desc.bytes_read = next->bytes_read;
          desc.slot = slot->first;
          desc.generation = slot->second;
          desc.payload_bytes = pixel_bytes;
          stream->stats.AddBytesCopied(pixel_bytes);
        } else {
          reply.record_index = batch.record_index;
          reply.scan_group = static_cast<uint32_t>(batch.scan_group);
          reply.labels = batch.labels;
          reply.bytes_read = next->bytes_read;
          for (const Image& img : batch.images) {
            WireImage wire;
            wire.width = static_cast<uint32_t>(img.width());
            wire.height = static_cast<uint32_t>(img.height());
            wire.channels = static_cast<uint32_t>(img.channels());
            wire.pixels.assign(reinterpret_cast<const char*>(img.data()),
                               img.size_bytes());
            reply.images.push_back(std::move(wire));
          }
          uint64_t jpeg_bytes = 0;
          for (const ByteSpan& span : batch.jpeg_spans) {
            reply.jpegs.emplace_back(batch.jpeg_backing.data() + span.offset,
                                     span.length);
            jpeg_bytes += span.length;
          }
          // Socket serialization moves the payload twice: into the wire
          // structs above, and again into the encoded frame below.
          stream->stats.AddBytesCopied(2 * (pixel_bytes + jpeg_bytes));
        }
        stream->served_images.fetch_add(
            static_cast<int64_t>(batch.images.size() +
                                 batch.jpeg_spans.size()),
            std::memory_order_relaxed);
      } else if (next.status().IsOutOfRange()) {
        stream->end_of_stream = true;
        reply.end_of_stream = true;
      } else {
        SendError(stream->conn, next.status(), stream->id);
        fatal = true;
      }
    }

    if (!fatal) {
      const std::string payload = use_shm ? desc.Encode() : reply.Encode();
      // Stage bytes count actual service: the frame plus (on the shm plane)
      // the pixels placed in the slot.
      const uint64_t reply_bytes =
          payload.size() + (use_shm ? desc.payload_bytes : 0);
      const Status framable = CheckFramePayloadSize(payload.size());
      if (!framable.ok()) {
        // The batch cannot be framed. Tell the client cleanly (the error
        // reply is tiny) instead of letting an oversized length prefix
        // corrupt the stream; the stream cannot make progress past this
        // batch, so it ends here. Nothing was delivered, so no stats.
        SendError(stream->conn,
                  Status::ResourceExhausted(
                      "serve: stream " + std::to_string(stream->id) +
                      ": batch too large to frame: " + framable.message()),
                  stream->id);
        fatal = true;
      } else {
        // Count the delivery before writing it: the client can observe the
        // frame and immediately query stats, so the counters must already
        // include the batch it is about to receive.
        stream->stats.AddItem(reply_bytes);
        if (use_shm) stream->stats.AddShmBatch();
        const Status write =
            WriteFrame(*stream->conn,
                       use_shm ? MessageType::kBatchDescriptor
                               : MessageType::kBatchReply,
                       Slice(payload));
        if (!write.ok()) fatal = true;  // Peer gone; reader tears us down.
        stream->stats.AddBatchLatency(NowSec() - receipt);
        {
          std::lock_guard<std::mutex> lock(stream->mu);
          stream->stats.SampleQueueDepth(stream->pending.size());
        }
      }
    }
    if (fatal) return;
  }
}

// --- Framing helpers --------------------------------------------------------

Status PcrDaemon::WriteFrame(Connection& conn, MessageType type,
                             Slice payload) {
  // An oversized payload would wrap EncodeFrame's 32-bit length prefix and
  // the peer would kill the connection on Corruption with no hint who
  // produced it — fail here instead, before encoding.
  PCR_RETURN_IF_ERROR(CheckFramePayloadSize(payload.size()));
  const std::string frame = EncodeFrame(type, payload);
  std::lock_guard<std::mutex> lock(conn.write_mu);
  return SendRemainder(conn.fd, frame, 0);
}

Status PcrDaemon::WriteFrameWithFd(Connection& conn, MessageType type,
                                   Slice payload, int fd) {
  PCR_RETURN_IF_ERROR(CheckFramePayloadSize(payload.size()));
  const std::string frame = EncodeFrame(type, payload);
  std::lock_guard<std::mutex> lock(conn.write_mu);
  // The SCM_RIGHTS cmsg rides on the frame's first byte(s); the receiver's
  // recvmsg harvests it no matter where in the frame the kernel attaches
  // it. Any remainder goes out as plain sends.
  struct iovec iov;
  iov.iov_base = const_cast<char*>(frame.data());
  iov.iov_len = frame.size();
  alignas(struct cmsghdr) char cbuf[CMSG_SPACE(sizeof(int))];
  std::memset(cbuf, 0, sizeof(cbuf));
  struct msghdr msg {};
  msg.msg_iov = &iov;
  msg.msg_iovlen = 1;
  msg.msg_control = cbuf;
  msg.msg_controllen = sizeof(cbuf);
  struct cmsghdr* cmsg = CMSG_FIRSTHDR(&msg);
  cmsg->cmsg_level = SOL_SOCKET;
  cmsg->cmsg_type = SCM_RIGHTS;
  cmsg->cmsg_len = CMSG_LEN(sizeof(int));
  std::memcpy(CMSG_DATA(cmsg), &fd, sizeof(int));
  ssize_t n;
  do {
    n = ::sendmsg(conn.fd, &msg, MSG_NOSIGNAL);
  } while (n < 0 && errno == EINTR);
  if (n < 0) {
    return Status::IOError("serve: sendmsg(SCM_RIGHTS): " +
                           std::string(std::strerror(errno)));
  }
  return SendRemainder(conn.fd, frame, static_cast<size_t>(n));
}

void PcrDaemon::SendError(const std::shared_ptr<Connection>& conn,
                          const Status& status, uint64_t stream_id) {
  const ErrorReply reply = ErrorReply::FromStatus(status, stream_id);
  // Best-effort: the peer may already be gone.
  (void)WriteFrame(*conn, MessageType::kError, Slice(reply.Encode()));
}

// --- Dataset registry -------------------------------------------------------

Result<uint64_t> PcrDaemon::DeriveCacheDatasetId(
    Env* env, const std::string& dataset_dir) {
  const std::string canonical = CanonicalPath(dataset_dir);
  // (path hash, manifest fingerprint) -> one 64-bit namespace. The
  // fingerprint covers the manifest's LIVE (key, value) set in sorted
  // order, not the log's raw bytes: KvStore::Open compacts the log, so the
  // byte layout legitimately changes between the writer generation and the
  // first serving open, while the live entries identify the generation
  // exactly. Same dataset + same generation hash identically on every
  // open; a rewrite changes the entries and thus the id.
  PCR_ASSIGN_OR_RETURN(std::unique_ptr<KvStore> manifest,
                       KvStore::Open(env, canonical + "/metadata.kvlog"));
  uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : canonical) {
    h = (h ^ static_cast<unsigned char>(c)) * 0x100000001b3ULL;
  }
  uint32_t crc = 0;
  uint64_t entries = 0;
  for (const auto& [key, value] : manifest->ScanPrefixEntries(Slice())) {
    crc = crc32c::Extend(crc, key.data(), key.size());
    crc = crc32c::Extend(crc, value.data(), value.size());
    ++entries;
  }
  h = Mix64(h + entries);
  h = Mix64(h ^ (static_cast<uint64_t>(crc) << 16));
  // Stay clear of DecodeCache::RegisterDataset's small counter ids.
  return h | (1ull << 63);
}

Result<std::shared_ptr<PcrDaemon::DatasetEntry>> PcrDaemon::AcquireDataset(
    const std::string& dir) {
  const std::string canonical = CanonicalPath(dir);
  std::lock_guard<std::mutex> lock(datasets_mu_);
  auto it = datasets_.find(canonical);
  if (it != datasets_.end()) {
    ++it->second->refs;
    return it->second;
  }
  PCR_ASSIGN_OR_RETURN(uint64_t cache_id,
                       DeriveCacheDatasetId(env_, canonical));
  PCR_ASSIGN_OR_RETURN(std::unique_ptr<PcrDataset> dataset,
                       PcrDataset::Open(env_, canonical));
  auto entry = std::make_shared<DatasetEntry>();
  entry->canonical_dir = canonical;
  entry->dataset = std::move(dataset);
  entry->cache_id = cache_id;
  entry->refs = 1;
  if (options_.dataset_cache_share > 0) {
    decode_cache_->SetDatasetByteCap(
        cache_id,
        static_cast<uint64_t>(options_.dataset_cache_share *
                              static_cast<double>(
                                  options_.decode_cache_bytes)));
  }
  datasets_[canonical] = entry;
  return entry;
}

void PcrDaemon::ReleaseDataset(const std::shared_ptr<DatasetEntry>& entry) {
  std::lock_guard<std::mutex> lock(datasets_mu_);
  if (--entry->refs > 0) return;
  // Last stream over this dataset: release its cache share (entries stay
  // resident for the next open of the same generation — the cap only gates
  // admission) and drop the open dataset.
  decode_cache_->SetDatasetByteCap(entry->cache_id, 0);
  datasets_.erase(entry->canonical_dir);
}

// --- Teardown ---------------------------------------------------------------

void PcrDaemon::TeardownStream(uint64_t stream_id) {
  std::shared_ptr<Stream> stream;
  {
    std::lock_guard<std::mutex> lock(streams_mu_);
    auto it = streams_.find(stream_id);
    if (it == streams_.end()) return;  // Already torn down (idempotent).
    stream = it->second;
    streams_.erase(it);
    --admitted_streams_;
  }
  {
    std::lock_guard<std::mutex> lock(stream->mu);
    stream->closing = true;
  }
  stream->cv.notify_all();
  // Closing the ring unblocks a server thread parked on slot backpressure
  // and reclaims any slots a vanished client never returned.
  if (stream->ring) stream->ring->Close();
  stream->pipeline->Stop();          // Unblocks Next().
  if (stream->server.joinable()) stream->server.join();
  // The pipeline is deliberately NOT reset here: a BuildStats that copied
  // this stream's shared_ptr before the erase above may still be reading
  // io_stats() off the (stopped) pipeline. The Stream destructor frees it
  // when the last reference drops. The dataset stays open with it — the
  // stream's DatasetEntry ref keeps the PcrDataset the pipeline points at
  // alive; ReleaseDataset only drops the registry entry and cache share.
  if (stream->dataset) ReleaseDataset(stream->dataset);
}

void PcrDaemon::TeardownConnection(const std::shared_ptr<Connection>& conn) {
  std::vector<uint64_t> ids;
  {
    std::lock_guard<std::mutex> lock(conn->streams_mu);
    ids.swap(conn->stream_ids);
  }
  for (uint64_t id : ids) TeardownStream(id);
}

// --- Stats ------------------------------------------------------------------

StatsReply PcrDaemon::BuildStats(uint64_t stream_id) {
  StatsReply reply;
  std::vector<std::shared_ptr<Stream>> streams;
  {
    std::lock_guard<std::mutex> lock(streams_mu_);
    reply.active_streams = static_cast<uint32_t>(streams_.size());
    for (const auto& [id, stream] : streams_) {
      if (stream_id == 0 || id == stream_id) streams.push_back(stream);
    }
  }
  reply.max_streams = static_cast<uint32_t>(options_.max_streams);
  const DecodeCacheStats cache = decode_cache_->stats();
  reply.cache_bytes_in_use = cache.bytes_in_use;
  reply.cache_capacity_bytes = cache.capacity_bytes;
  reply.cache_hits = cache.hits;
  reply.cache_misses = cache.misses;
  for (const auto& stream : streams) {
    const StageStatsSnapshot serve =
        stream->stats.Snapshot("serve", 1, stream->max_inflight);
    // Safe without stream->mu even against a concurrent TeardownStream:
    // the pipeline is assigned before the stream is published in streams_
    // and never reset afterwards (teardown only Stop()s it; the Stream
    // destructor frees it), so this shared_ptr copy pins a live pipeline.
    const StageStatsSnapshot io = stream->pipeline->io_stats();
    StreamStats out;
    out.stream_id = stream->id;
    out.client_name = stream->client_name;
    out.served_batches = serve.items;
    out.served_images = stream->served_images.load(std::memory_order_relaxed);
    out.served_bytes = serve.bytes;
    out.queue_wait_p50_sec = serve.queue_wait_p50_sec;
    out.queue_wait_p99_sec = serve.queue_wait_p99_sec;
    out.batch_p50_sec = serve.batch_p50_sec;
    out.batch_p99_sec = serve.batch_p99_sec;
    out.cache_hits = io.cache_hits;
    out.cache_misses = io.cache_misses;
    out.shm_batches = serve.shm_batches;
    out.shm_slot_waits = serve.shm_slot_waits;
    out.bytes_copied = serve.bytes_copied;
    // Zero-copy cache hits happen in the pipeline's IO stage (the cache
    // entry is handed out by reference instead of deep-copied).
    out.zero_copy_hits = io.zero_copy_hits;
    out.zero_copy_bytes = io.zero_copy_bytes;
    reply.streams.push_back(std::move(out));
  }
  return reply;
}

}  // namespace pcr::serve
