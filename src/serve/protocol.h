// Wire protocol of the PCR serving daemon: length-delimited frames over a
// unix-domain stream socket, each carrying one wire-encoded message
// (wire/wire.h — the same protobuf-compatible substrate the PCR metadata
// uses, so the messages round-trip with real protobuf definitions).
//
// Frame layout:
//
//   [4-byte LE payload length][1-byte message type][wire-encoded payload]
//
// The length counts the type byte plus the payload. A reader enforces
// kMaxFrameBytes BEFORE allocating anything: an oversized or absurd length
// prefix (a corrupt peer, a port scanner poking the socket) is rejected from
// the 4 header bytes alone. Truncated frames are distinguishable from
// malformed ones — FrameParser reports kNeedMore for any clean prefix of a
// valid frame, so stream reassembly never mistakes a short read for
// corruption (and the test suite sweeps every byte cut to prove it).
//
// Conversation:
//   client                          daemon
//   Hello                ->
//                        <-         HelloReply
//   OpenStream           ->
//                        <-         StreamOpened | ErrorReply
//   NextBatch            ->         (up to the stream's in-flight cap)
//                        <-         BatchReply (end_of_stream once the
//                                   pipeline's epochs are exhausted)
//   Stats                ->
//                        <-         StatsReply
//   CloseStream          ->
//                        <-         StreamClosed
//
// BatchReply frames for one stream arrive in request order; frames of
// different streams interleave arbitrarily on the shared connection.
//
// Shared-memory data plane (optional, per stream): when Hello advertised
// shm_capable and OpenStream asked for shm_plane on a decoded stream, the
// daemon follows StreamOpened (which carries the slot-ring geometry) with a
// ShmSegment frame whose sendmsg attaches the segment's memfd as SCM_RIGHTS
// ancillary data. The client maps the segment once and answers ShmAck; only
// an accepted ack switches the stream to descriptors — until then (and
// forever after a rejected ack, a failed fd pass, or an undersized segment)
// batches travel as ordinary BatchReply frames on the socket plane:
//
//   OpenStream(shm_plane)->
//                        <-         StreamOpened (slots, slot_bytes)
//                        <-         ShmSegment (+memfd via SCM_RIGHTS)
//   ShmAck(accepted)     ->
//   NextBatch            ->
//                        <-         BatchDescriptor (slot, generation,
//                                   per-image offsets into the slot)
//   ReleaseSlot          ->         (returns the slot for reuse; holding
//                                   every slot backpressures the daemon)
//
// A batch too large for a slot falls back to a BatchReply for just that
// batch; end-of-stream is always a BatchReply. Descriptors carry a
// generation cookie stamped at slot acquisition, so a stale or forged
// ReleaseSlot cannot free a slot that has since been handed out again.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/result.h"
#include "util/slice.h"
#include "util/status.h"

namespace pcr::serve {

/// Protocol revision; Hello negotiates it (the daemon rejects mismatches).
inline constexpr uint32_t kProtocolVersion = 1;

/// Hard ceiling a FrameParser/reader enforces before allocating. Large
/// enough for a decoded record batch of full-resolution images, small
/// enough that a hostile length prefix cannot balloon daemon memory.
inline constexpr uint64_t kMaxFrameBytes = 256ull << 20;

enum class MessageType : uint8_t {
  kHello = 1,
  kHelloReply = 2,
  kOpenStream = 3,
  kStreamOpened = 4,
  kNextBatch = 5,
  kBatchReply = 6,
  kStats = 7,
  kStatsReply = 8,
  kCloseStream = 9,
  kStreamClosed = 10,
  kError = 11,
  // Shared-memory data plane (negotiated per stream; see ShmSegmentMsg).
  kShmSegment = 12,       // Daemon -> client; carries the memfd via SCM_RIGHTS.
  kShmAck = 13,           // Client -> daemon; mapped OK or fall back.
  kBatchDescriptor = 14,  // Daemon -> client; batch lives in a slot.
  kReleaseSlot = 15,      // Client -> daemon; slot credit.
};

/// One decoded frame: the type byte plus the owned payload bytes.
struct Frame {
  MessageType type = MessageType::kError;
  std::string payload;
};

/// Incremental frame reassembly over an arbitrary byte stream. Feed it
/// whatever the socket produced; it consumes at most one frame per Next()
/// call and never buffers more than kMaxFrameBytes.
class FrameParser {
 public:
  enum class Outcome {
    kFrame,     // *frame holds a complete message; bytes were consumed.
    kNeedMore,  // The buffer holds a clean prefix; feed more bytes.
    kError,     // The stream is unrecoverable (oversized/garbage header).
  };

  explicit FrameParser(uint64_t max_frame_bytes = kMaxFrameBytes)
      : max_frame_bytes_(max_frame_bytes) {}

  /// Appends raw socket bytes to the reassembly buffer.
  void Feed(Slice bytes) { buffer_.append(bytes.data(), bytes.size()); }

  /// Extracts the next complete frame if one is buffered. On kError,
  /// status() says why; the parser stays in the error state.
  Outcome Next(Frame* frame);

  const Status& status() const { return status_; }
  size_t buffered_bytes() const { return buffer_.size(); }

 private:
  uint64_t max_frame_bytes_;
  std::string buffer_;
  Status status_;
};

/// Serializes one frame (header + type + payload) ready for write(). The
/// caller must have validated the payload against CheckFramePayloadSize:
/// the length prefix is 32-bit, so an unchecked oversized payload would
/// encode a truncated/wrapped length and the peer would see Corruption.
std::string EncodeFrame(MessageType type, Slice payload);

/// Guards EncodeFrame's length prefix: rejects any payload whose framed
/// size (payload + 1 type byte) exceeds `max_frame_bytes` — the same
/// ceiling FrameParser enforces on the receive side, so a frame that
/// passes here is guaranteed parseable by the peer.
Status CheckFramePayloadSize(uint64_t payload_bytes,
                             uint64_t max_frame_bytes = kMaxFrameBytes);

// --- Messages -------------------------------------------------------------
// Each message is a plain struct with Encode() -> wire bytes and a static
// Decode(payload) that tolerates unknown fields (forward compatibility) but
// rejects malformed wire data.

struct HelloRequest {
  uint32_t protocol_version = kProtocolVersion;
  std::string client_name;
  /// Capability bit: the client can receive SCM_RIGHTS fds and map shm
  /// segments. Defaults to false so a peer that predates the field (and
  /// never encodes it) reads back as incapable.
  bool shm_capable = false;

  std::string Encode() const;
  static Result<HelloRequest> Decode(Slice payload);
};

struct HelloReply {
  uint32_t protocol_version = kProtocolVersion;
  std::string server_name;
  uint32_t max_streams = 0;
  uint32_t max_inflight_per_stream = 0;
  /// The daemon is willing to negotiate the shm data plane (per stream).
  bool shm_supported = false;

  std::string Encode() const;
  static Result<HelloReply> Decode(Slice payload);
};

struct OpenStreamRequest {
  /// Dataset directory on the daemon's filesystem (PCR format).
  std::string dataset_dir;
  /// Fixed scan group for the stream; 0 = full quality.
  uint32_t scan_group = 0;
  /// Epochs to stream; 0 is rejected (an unbounded stream would pin an
  /// admission slot forever — clients re-open instead).
  uint32_t max_epochs = 1;
  bool shuffle = true;
  uint64_t seed = 42;
  /// Serve decoded pixels (true) or assembled JPEG streams (false).
  bool decode = true;
  /// NextBatch requests the client may keep outstanding; clamped to the
  /// daemon's per-client cap.
  uint32_t max_inflight = 1;
  /// Ask for the shared-memory data plane (decoded streams only; the daemon
  /// grants it only when the connection's Hello said shm_capable).
  bool shm_plane = false;

  std::string Encode() const;
  static Result<OpenStreamRequest> Decode(Slice payload);
};

struct StreamOpenedReply {
  uint64_t stream_id = 0;
  uint32_t num_records = 0;
  uint32_t num_images = 0;
  uint32_t num_scan_groups = 0;
  uint32_t scan_group = 0;     // Clamped group the stream serves.
  uint32_t max_inflight = 0;   // Granted in-flight cap.
  /// Server-derived shared-cache namespace (same dataset + generation =>
  /// same id across clients) — informational for the client.
  uint64_t cache_dataset_id = 0;
  /// Shm data plane granted for this stream when shm_slots > 0: a ShmSegment
  /// frame with the memfd follows this reply. 0 = socket plane.
  uint32_t shm_slots = 0;
  uint64_t shm_slot_bytes = 0;

  std::string Encode() const;
  static Result<StreamOpenedReply> Decode(Slice payload);
};

struct NextBatchRequest {
  uint64_t stream_id = 0;

  std::string Encode() const;
  static Result<NextBatchRequest> Decode(Slice payload);
};

/// One decoded image of a served batch.
struct WireImage {
  uint32_t width = 0;
  uint32_t height = 0;
  uint32_t channels = 0;
  std::string pixels;  // Interleaved 8-bit, width*height*channels bytes.
};

struct BatchReply {
  uint64_t stream_id = 0;
  /// Terminal marker: the stream delivered its configured epochs. No batch
  /// fields are set; subsequent NextBatch requests return this again.
  bool end_of_stream = false;
  int32_t record_index = -1;
  uint32_t scan_group = 0;
  std::vector<int64_t> labels;
  std::vector<WireImage> images;  // Decoded mode.
  std::vector<std::string> jpegs; // Compressed mode (decode = false).
  uint64_t bytes_read = 0;

  std::string Encode() const;
  static Result<BatchReply> Decode(Slice payload);
};

/// Daemon -> client, right after StreamOpened when the shm plane was
/// granted. The frame's sendmsg carries the segment's memfd as SCM_RIGHTS
/// ancillary data; the payload repeats the geometry so the client can
/// validate the received fd (fstat size >= segment_bytes) before mapping.
struct ShmSegmentMsg {
  uint64_t stream_id = 0;
  uint64_t segment_bytes = 0;
  uint32_t slots = 0;
  uint64_t slot_bytes = 0;

  std::string Encode() const;
  static Result<ShmSegmentMsg> Decode(Slice payload);
};

/// Client -> daemon verdict after attempting to map the segment. The daemon
/// serves descriptors only after an accepted ack; a rejected ack (fd never
/// arrived, mmap failed, segment undersized) pins the stream to the socket
/// plane and frees the segment.
struct ShmAckRequest {
  uint64_t stream_id = 0;
  bool accepted = false;

  std::string Encode() const;
  static Result<ShmAckRequest> Decode(Slice payload);
};

/// One image's placement inside a slot (offsets relative to the slot base).
struct WireImageDesc {
  uint32_t width = 0;
  uint32_t height = 0;
  uint32_t channels = 0;
  uint64_t offset = 0;
  uint64_t length = 0;  // == width*height*channels; enforced on decode.
};

/// Descriptor-plane sibling of BatchReply: the batch's pixels live in the
/// stream's shm slot; only placement metadata crosses the socket. The
/// client must send ReleaseSlot(slot, generation) once the trainer is done
/// with the view — the daemon will not reuse the slot until then.
struct BatchDescriptorReply {
  uint64_t stream_id = 0;
  int32_t record_index = -1;
  uint32_t scan_group = 0;
  std::vector<int64_t> labels;
  uint64_t bytes_read = 0;
  uint32_t slot = 0;
  uint64_t generation = 0;
  uint64_t payload_bytes = 0;  // Total pixel bytes placed in the slot.
  std::vector<WireImageDesc> images;

  std::string Encode() const;
  static Result<BatchDescriptorReply> Decode(Slice payload);
};

/// Client -> daemon slot credit. A release whose generation does not match
/// the slot's live tenancy is ignored (stale or forged).
struct ReleaseSlotRequest {
  uint64_t stream_id = 0;
  uint32_t slot = 0;
  uint64_t generation = 0;

  std::string Encode() const;
  static Result<ReleaseSlotRequest> Decode(Slice payload);
};

/// Bounds-checks a decoded descriptor against the negotiated ring geometry:
/// slot index in range, every image inside [0, slot_bytes), lengths
/// consistent with geometry and payload_bytes. A client MUST validate before
/// dereferencing slot memory — a malicious or corrupt descriptor must fail
/// here, not fault on the mapping.
Status ValidateBatchDescriptor(const BatchDescriptorReply& desc,
                               uint32_t num_slots, uint64_t slot_bytes);

struct StatsRequest {
  /// 0 = daemon-wide stats (all live streams); else just that stream.
  uint64_t stream_id = 0;

  std::string Encode() const;
  static Result<StatsRequest> Decode(Slice payload);
};

/// Per-stream serving counters (the serve-stage StageStats snapshot).
struct StreamStats {
  uint64_t stream_id = 0;
  std::string client_name;
  int64_t served_batches = 0;
  int64_t served_images = 0;
  uint64_t served_bytes = 0;
  /// Request receipt -> service start: time spent behind the stream's own
  /// earlier requests (each stream's serving thread takes them in order).
  double queue_wait_p50_sec = 0;
  double queue_wait_p99_sec = 0;
  /// Request receipt -> reply written (the client-visible service tail).
  double batch_p50_sec = 0;
  double batch_p99_sec = 0;
  int64_t cache_hits = 0;
  int64_t cache_misses = 0;
  /// Data-plane accounting: batches that went out as shm descriptors (the
  /// rest used the socket plane), serve-stage blocks waiting for a slot
  /// credit, payload bytes the serve stage memcpy'd, and pipeline cache
  /// hits delivered zero-copy with the bytes those hits did not copy.
  int64_t shm_batches = 0;
  int64_t shm_slot_waits = 0;
  uint64_t bytes_copied = 0;
  int64_t zero_copy_hits = 0;
  uint64_t zero_copy_bytes = 0;
};

struct StatsReply {
  uint32_t active_streams = 0;
  uint32_t max_streams = 0;
  uint64_t cache_bytes_in_use = 0;
  uint64_t cache_capacity_bytes = 0;
  int64_t cache_hits = 0;
  int64_t cache_misses = 0;
  std::vector<StreamStats> streams;

  std::string Encode() const;
  static Result<StatsReply> Decode(Slice payload);
};

struct CloseStreamRequest {
  uint64_t stream_id = 0;

  std::string Encode() const;
  static Result<CloseStreamRequest> Decode(Slice payload);
};

struct StreamClosedReply {
  uint64_t stream_id = 0;

  std::string Encode() const;
  static Result<StreamClosedReply> Decode(Slice payload);
};

struct ErrorReply {
  uint32_t code = 0;  // StatusCode numeric value.
  std::string message;
  /// Stream the error concerns (0 = connection-level).
  uint64_t stream_id = 0;

  std::string Encode() const;
  static Result<ErrorReply> Decode(Slice payload);

  Status ToStatus() const;
  static ErrorReply FromStatus(const Status& status, uint64_t stream_id = 0);
};

}  // namespace pcr::serve
