// Tests for the serving daemon: wire-protocol robustness (every-byte-cut
// truncation sweep, oversized length prefixes rejected before allocation,
// garbage headers), message round-trips, and the daemon's resource model —
// admission control, mid-stream disconnects releasing slots and cache
// shares, server-derived cache namespaces shared across clients, bounded
// Stop() with clients mid-stream, clients that stop reading stalling only
// their own streams, and a multi-client hammer the TSan CI pass leans on.
//
// With PCR_SERVE_SOCKET set, the client-facing cases run against that
// already-running daemon (the CI daemon-integration job launches
// examples/serve_daemon and points this suite at its socket); cases that
// need daemon internals (active_streams, the decode cache, custom
// DaemonOptions) skip themselves in that mode.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <future>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/pcr_dataset.h"
#include "data/dataset_spec.h"
#include "jpeg/codec.h"
#include "serve/client.h"
#include "serve/daemon.h"
#include "serve/protocol.h"
#include "storage/env.h"
#include "test_util.h"
#include "util/shm_ring.h"

namespace pcr::serve {
namespace {

// --- Protocol robustness (no daemon) --------------------------------------

TEST(FrameParserTest, RoundTripsFrames) {
  const std::string payload = "hello wire";
  const std::string encoded = EncodeFrame(MessageType::kHello, Slice(payload));
  FrameParser parser;
  parser.Feed(Slice(encoded));
  Frame frame;
  ASSERT_EQ(parser.Next(&frame), FrameParser::Outcome::kFrame);
  EXPECT_EQ(frame.type, MessageType::kHello);
  EXPECT_EQ(frame.payload, payload);
  EXPECT_EQ(parser.Next(&frame), FrameParser::Outcome::kNeedMore);
  EXPECT_EQ(parser.buffered_bytes(), 0u);
}

TEST(FrameParserTest, TruncationSweepEveryByteCut) {
  // Any clean prefix of a valid frame must read as "need more", never as an
  // error and never as a (partial) frame — a short read is not corruption.
  OpenStreamRequest request;
  request.dataset_dir = "/data/set";
  request.scan_group = 3;
  request.seed = 99;
  const std::string encoded =
      EncodeFrame(MessageType::kOpenStream, Slice(request.Encode()));
  for (size_t cut = 0; cut < encoded.size(); ++cut) {
    FrameParser parser;
    parser.Feed(Slice(encoded.data(), cut));
    Frame frame;
    ASSERT_EQ(parser.Next(&frame), FrameParser::Outcome::kNeedMore)
        << "cut at byte " << cut;
    // Feeding the remainder completes the frame from where it left off.
    parser.Feed(Slice(encoded.data() + cut, encoded.size() - cut));
    ASSERT_EQ(parser.Next(&frame), FrameParser::Outcome::kFrame)
        << "cut at byte " << cut;
    auto decoded = OpenStreamRequest::Decode(Slice(frame.payload));
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(decoded->dataset_dir, request.dataset_dir);
    EXPECT_EQ(decoded->seed, request.seed);
  }
}

TEST(FrameParserTest, OversizedLengthRejectedWithoutAllocation) {
  for (const uint32_t length : {static_cast<uint32_t>(kMaxFrameBytes + 1),
                                0x7fffffffu, 0xffffffffu}) {
    FrameParser parser;
    char header[4] = {static_cast<char>(length & 0xff),
                      static_cast<char>((length >> 8) & 0xff),
                      static_cast<char>((length >> 16) & 0xff),
                      static_cast<char>((length >> 24) & 0xff)};
    parser.Feed(Slice(header, 4));
    Frame frame;
    EXPECT_EQ(parser.Next(&frame), FrameParser::Outcome::kError);
    EXPECT_TRUE(parser.status().IsInvalidArgument()) << parser.status();
    // The rejection came from the 4 header bytes alone — the claimed
    // payload was never buffered, let alone allocated.
    EXPECT_EQ(parser.buffered_bytes(), 4u);
    // The parser stays poisoned; later feeds cannot resurrect the stream.
    parser.Feed(Slice("more", 4));
    EXPECT_EQ(parser.Next(&frame), FrameParser::Outcome::kError);
  }
}

TEST(FrameParserTest, OversizedPayloadRejectedBeforeEncoding) {
  // Send-side mirror of the parser's ceiling: EncodeFrame's length prefix
  // is 32-bit, so a payload that fails CheckFramePayloadSize would encode
  // a truncated/wrapped length and the peer would see Corruption with no
  // hint the sender produced it. The guard must reject it first.
  EXPECT_TRUE(CheckFramePayloadSize(0).ok());
  EXPECT_TRUE(CheckFramePayloadSize(kMaxFrameBytes - 1).ok());
  EXPECT_FALSE(CheckFramePayloadSize(kMaxFrameBytes).ok());
  EXPECT_FALSE(CheckFramePayloadSize(1ull << 32).ok());
  const Status oversized = CheckFramePayloadSize(kMaxFrameBytes);
  EXPECT_TRUE(oversized.IsInvalidArgument()) << oversized;

  // Boundary parity with a small ceiling (no 256 MiB allocations): the
  // largest payload the check passes is exactly the largest frame a
  // parser with the same ceiling accepts.
  EXPECT_TRUE(CheckFramePayloadSize(15, 16).ok());
  EXPECT_FALSE(CheckFramePayloadSize(16, 16).ok());
  const std::string payload(15, 'x');
  FrameParser parser(/*max_frame_bytes=*/16);
  parser.Feed(Slice(EncodeFrame(MessageType::kHello, Slice(payload))));
  Frame frame;
  ASSERT_EQ(parser.Next(&frame), FrameParser::Outcome::kFrame);
  EXPECT_EQ(frame.payload, payload);
}

TEST(FrameParserTest, ZeroLengthAndUnknownTypeAreErrors) {
  {
    FrameParser parser;
    const char zeros[4] = {0, 0, 0, 0};  // Length 0 cannot carry a type.
    parser.Feed(Slice(zeros, 4));
    Frame frame;
    EXPECT_EQ(parser.Next(&frame), FrameParser::Outcome::kError);
  }
  {
    FrameParser parser;
    std::string frame_bytes = EncodeFrame(MessageType::kHello, Slice(""));
    frame_bytes[4] = 99;  // No such message type.
    parser.Feed(Slice(frame_bytes));
    Frame frame;
    EXPECT_EQ(parser.Next(&frame), FrameParser::Outcome::kError);
    EXPECT_TRUE(parser.status().IsCorruption()) << parser.status();
  }
}

TEST(FrameParserTest, CoalescedFramesParseIndividually) {
  std::string bytes = EncodeFrame(MessageType::kNextBatch,
                                  Slice(NextBatchRequest{7}.Encode()));
  bytes += EncodeFrame(MessageType::kStats, Slice(StatsRequest{0}.Encode()));
  FrameParser parser;
  parser.Feed(Slice(bytes));
  Frame frame;
  ASSERT_EQ(parser.Next(&frame), FrameParser::Outcome::kFrame);
  EXPECT_EQ(frame.type, MessageType::kNextBatch);
  ASSERT_EQ(parser.Next(&frame), FrameParser::Outcome::kFrame);
  EXPECT_EQ(frame.type, MessageType::kStats);
  EXPECT_EQ(parser.Next(&frame), FrameParser::Outcome::kNeedMore);
}

TEST(ProtocolTest, MessageDecodeSurvivesPayloadTruncation) {
  // Cutting a wire payload at every byte must yield a Status, never a
  // crash; cuts inside a varint or length-delimited field must fail.
  BatchReply reply;
  reply.stream_id = 12;
  reply.record_index = 3;
  reply.labels = {1, 2, 3};
  WireImage img;
  img.width = 4;
  img.height = 2;
  img.channels = 3;
  img.pixels.assign(24, '\x7f');
  reply.images.push_back(img);
  reply.jpegs.push_back("not-really-jpeg-bytes");
  const std::string payload = reply.Encode();
  for (size_t cut = 0; cut + 1 < payload.size(); ++cut) {
    auto decoded = BatchReply::Decode(Slice(payload.data(), cut));
    // Some cuts land on field boundaries and decode as a valid shorter
    // message; the invariant is no crash and no torn field contents.
    if (decoded.ok() && !decoded->images.empty()) {
      EXPECT_EQ(decoded->images[0].pixels.size(),
                decoded->images[0].width * decoded->images[0].height *
                    decoded->images[0].channels);
    }
  }
  auto full = BatchReply::Decode(Slice(payload));
  ASSERT_TRUE(full.ok());
  EXPECT_EQ(full->stream_id, 12u);
  EXPECT_EQ(full->labels, reply.labels);
  ASSERT_EQ(full->images.size(), 1u);
  EXPECT_EQ(full->images[0].pixels, img.pixels);
  ASSERT_EQ(full->jpegs.size(), 1u);
  EXPECT_EQ(full->jpegs[0], reply.jpegs[0]);
}

TEST(ProtocolTest, ErrorReplyCarriesStatus) {
  const Status status = Status::ResourceExhausted("stream table full");
  const ErrorReply reply = ErrorReply::FromStatus(status, 5);
  auto decoded = ErrorReply::Decode(Slice(reply.Encode()));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->stream_id, 5u);
  const Status restored = decoded->ToStatus();
  EXPECT_TRUE(restored.code() == StatusCode::kResourceExhausted) << restored;
  EXPECT_NE(restored.ToString().find("stream table full"), std::string::npos);
}

TEST(ProtocolTest, WireImageGeometryValidatedOnConversion) {
  WireImage wire;
  wire.width = 8;
  wire.height = 8;
  wire.channels = 3;
  wire.pixels.assign(8 * 8 * 3, '\x10');
  ASSERT_TRUE(PcrClient::ToImage(wire).ok());
  wire.pixels.resize(17);  // Size no longer matches the geometry.
  EXPECT_FALSE(PcrClient::ToImage(wire).ok());
  wire.pixels.assign(8 * 8 * 2, '\x10');
  wire.channels = 2;  // Unsupported channel count.
  EXPECT_FALSE(PcrClient::ToImage(wire).ok());
}

// --- Daemon integration ---------------------------------------------------

/// Fixture: a tiny on-disk dataset plus either an in-process daemon or (in
/// PCR_SERVE_SOCKET mode) a connection to the externally launched one.
class ServeDaemonTest : public ::testing::Test {
 protected:
  void SetUp() override {
    env_ = Env::Default();
    root_ = PerProcessTempDir("pcr_serve_test");
    dataset_dir_ = root_ + "/ds";
    BuildDataset(dataset_dir_, /*num_images=*/16, /*seed_base=*/0);
    const char* external = std::getenv("PCR_SERVE_SOCKET");
    if (external != nullptr && external[0] != '\0') {
      external_socket_ = external;
    }
  }

  void TearDown() override {
    daemon_.reset();
    std::error_code ec;
    std::filesystem::remove_all(root_, ec);
  }

  /// Builds `num_images` procedural width x height JPEGs (4 per record)
  /// into env:dir.
  void BuildDataset(const std::string& dir, int num_images,
                    uint64_t seed_base, int width = 48, int height = 32) {
    DatasetSpec spec = DatasetSpec::TestTiny();
    spec.base_width = width;
    spec.base_height = height;
    spec.size_jitter = 0;
    PcrWriterOptions options;
    options.images_per_record = 4;
    auto writer = PcrDatasetWriter::Create(env_, dir, options).MoveValue();
    for (int i = 0; i < num_images; ++i) {
      const int label = i % spec.num_classes;
      const Image img =
          GenerateImage(spec, label, seed_base + static_cast<uint64_t>(i));
      jpeg::EncodeOptions encode;
      encode.quality = 85;
      const std::string bytes = jpeg::Encode(img, encode).MoveValue();
      ASSERT_TRUE(writer->AddImage(Slice(bytes), label).ok());
    }
    ASSERT_TRUE(writer->Finish().ok());
  }

  /// The socket to test against: the external daemon's when set, else an
  /// in-process daemon started with `options` (socket_path filled in).
  std::string Socket(DaemonOptions options = {}) {
    if (!external_socket_.empty()) return external_socket_;
    if (daemon_ == nullptr) {
      options.socket_path = root_ + "/pcrd.sock";
      daemon_ = PcrDaemon::Start(env_, options).MoveValue();
    }
    return daemon_->socket_path();
  }

  /// Skips the calling test in external-daemon mode (needs internals).
  bool RequireInternalDaemon() {
    if (!external_socket_.empty()) return false;
    return true;
  }

  Env* env_ = nullptr;
  std::string root_;
  std::string dataset_dir_;
  std::string external_socket_;
  std::unique_ptr<PcrDaemon> daemon_;
};

TEST_F(ServeDaemonTest, StreamsOneEpochDecoded) {
  auto client = PcrClient::Connect(Socket(), "epoch-test").MoveValue();
  EXPECT_GT(client->server().max_streams, 0u);

  OpenStreamRequest open;
  open.dataset_dir = dataset_dir_;
  open.max_epochs = 1;
  open.shuffle = false;
  auto stream = client->OpenStream(open).MoveValue();
  EXPECT_EQ(stream.num_images, 16u);
  EXPECT_EQ(stream.num_records, 4u);
  EXPECT_EQ(stream.scan_group, stream.num_scan_groups);  // 0 = full quality.
  EXPECT_NE(stream.cache_dataset_id, 0u);

  int images = 0;
  for (uint32_t k = 0; k < stream.num_records; ++k) {
    auto batch = client->NextBatch(stream.stream_id).MoveValue();
    ASSERT_FALSE(batch.end_of_stream);
    ASSERT_EQ(batch.images.size(), batch.labels.size());
    for (const WireImage& wire : batch.images) {
      const Image img = PcrClient::ToImage(wire).MoveValue();
      EXPECT_EQ(img.width(), 48);
      EXPECT_EQ(img.height(), 32);
      ++images;
    }
  }
  EXPECT_EQ(images, 16);
  auto last = client->NextBatch(stream.stream_id).MoveValue();
  EXPECT_TRUE(last.end_of_stream);

  auto stats = client->GetStats(stream.stream_id).MoveValue();
  ASSERT_EQ(stats.streams.size(), 1u);
  EXPECT_EQ(stats.streams[0].served_images, 16);
  EXPECT_GE(stats.streams[0].batch_p99_sec, 0.0);
  auto closed = client->CloseStream(stream.stream_id).MoveValue();
  EXPECT_EQ(closed.stream_id, stream.stream_id);
}

TEST_F(ServeDaemonTest, CompressedModeShipsDecodableJpegs) {
  auto client = PcrClient::Connect(Socket(), "jpeg-test").MoveValue();
  OpenStreamRequest open;
  open.dataset_dir = dataset_dir_;
  open.max_epochs = 1;
  open.shuffle = false;
  open.decode = false;
  auto stream = client->OpenStream(open).MoveValue();
  int jpegs = 0;
  for (uint32_t k = 0; k < stream.num_records; ++k) {
    auto batch = client->NextBatch(stream.stream_id).MoveValue();
    ASSERT_FALSE(batch.end_of_stream);
    EXPECT_TRUE(batch.images.empty());
    ASSERT_EQ(batch.jpegs.size(), batch.labels.size());
    for (const std::string& bytes : batch.jpegs) {
      // The daemon assembled a standalone progressive stream per image.
      auto img = jpeg::Decode(Slice(bytes));
      ASSERT_TRUE(img.ok()) << img.status();
      EXPECT_EQ(img->width(), 48);
      ++jpegs;
    }
  }
  EXPECT_EQ(jpegs, 16);
  client->CloseStream(stream.stream_id).MoveValue();
}

TEST_F(ServeDaemonTest, RejectsBadOpenRequests) {
  auto client = PcrClient::Connect(Socket(), "reject-test").MoveValue();
  {
    OpenStreamRequest open;  // Unbounded streams pin admission slots.
    open.dataset_dir = dataset_dir_;
    open.max_epochs = 0;
    auto result = client->OpenStream(open);
    ASSERT_FALSE(result.ok());
    EXPECT_TRUE(result.status().IsInvalidArgument()) << result.status();
  }
  {
    OpenStreamRequest open;
    open.dataset_dir = root_ + "/definitely-not-a-dataset";
    auto result = client->OpenStream(open);
    ASSERT_FALSE(result.ok());
  }
  // The connection survived both rejections.
  OpenStreamRequest open;
  open.dataset_dir = dataset_dir_;
  open.max_epochs = 1;
  auto stream = client->OpenStream(open).MoveValue();
  client->CloseStream(stream.stream_id).MoveValue();
}

TEST_F(ServeDaemonTest, AdmissionCapRejectsAndRecovers) {
  if (!RequireInternalDaemon()) {
    GTEST_SKIP() << "needs custom DaemonOptions (max_streams)";
  }
  DaemonOptions options;
  options.max_streams = 2;
  const std::string socket = Socket(options);

  auto client = PcrClient::Connect(socket, "admission-test").MoveValue();
  OpenStreamRequest open;
  open.dataset_dir = dataset_dir_;
  open.max_epochs = 4;
  auto first = client->OpenStream(open).MoveValue();
  auto second = client->OpenStream(open).MoveValue();
  auto third = client->OpenStream(open);
  ASSERT_FALSE(third.ok());
  EXPECT_TRUE(third.status().code() == StatusCode::kResourceExhausted) << third.status();
  EXPECT_EQ(daemon_->active_streams(), 2);

  // Closing a stream frees its slot for the next admission.
  client->CloseStream(first.stream_id).MoveValue();
  auto fourth = client->OpenStream(open).MoveValue();
  EXPECT_NE(fourth.stream_id, second.stream_id);
  EXPECT_EQ(daemon_->active_streams(), 2);
}

TEST_F(ServeDaemonTest, DisconnectReleasesSlotsAndCacheShare) {
  if (!RequireInternalDaemon()) {
    GTEST_SKIP() << "needs daemon internals (active_streams, decode cache)";
  }
  const std::string socket = Socket();
  uint64_t cache_id = 0;
  {
    auto client = PcrClient::Connect(socket, "vanishing").MoveValue();
    OpenStreamRequest open;
    open.dataset_dir = dataset_dir_;
    open.max_epochs = 8;
    auto stream = client->OpenStream(open).MoveValue();
    cache_id = stream.cache_dataset_id;
    // Pull a couple of batches so the stream owns cache residency, then
    // hang up without CloseStream — a crashed trainer.
    client->NextBatch(stream.stream_id).MoveValue();
    client->NextBatch(stream.stream_id).MoveValue();
    // The decode workers insert into the cache asynchronously relative to
    // batch delivery, so poll for residency instead of asserting it.
    const auto warm_deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (std::chrono::steady_clock::now() < warm_deadline &&
           daemon_->decode_cache()->DatasetShareBytes(cache_id) == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    EXPECT_GT(daemon_->decode_cache()->DatasetShareBytes(cache_id), 0u);
    client->Close();
  }
  // The daemon notices the hangup and releases the admission slot, the
  // dataset registration, and the dataset's decode-cache byte share.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (std::chrono::steady_clock::now() < deadline &&
         (daemon_->active_streams() != 0 ||
          daemon_->decode_cache()->DatasetShareBytes(cache_id) != 0)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(daemon_->active_streams(), 0);
  EXPECT_EQ(daemon_->decode_cache()->DatasetShareBytes(cache_id), 0u);
}

TEST_F(ServeDaemonTest, ClientsShareServerDerivedCacheNamespace) {
  if (!RequireInternalDaemon()) {
    GTEST_SKIP() << "asserts against the in-process decode cache";
  }
  const std::string socket = Socket();
  uint64_t first_id = 0;
  {
    auto warm = PcrClient::Connect(socket, "warm").MoveValue();
    OpenStreamRequest open;
    open.dataset_dir = dataset_dir_;
    open.max_epochs = 1;
    open.shuffle = false;
    auto stream = warm->OpenStream(open).MoveValue();
    first_id = stream.cache_dataset_id;
    for (uint32_t k = 0; k < stream.num_records; ++k) {
      warm->NextBatch(stream.stream_id).MoveValue();
    }
    warm->CloseStream(stream.stream_id).MoveValue();
  }
  // A different client opening the same dataset lands in the same
  // namespace and is served from the first client's decoded entries.
  auto reuse = PcrClient::Connect(socket, "reuse").MoveValue();
  OpenStreamRequest open;
  open.dataset_dir = dataset_dir_;
  open.max_epochs = 1;
  open.shuffle = false;
  auto stream = reuse->OpenStream(open).MoveValue();
  EXPECT_EQ(stream.cache_dataset_id, first_id);
  for (uint32_t k = 0; k < stream.num_records; ++k) {
    reuse->NextBatch(stream.stream_id).MoveValue();
  }
  auto stats = reuse->GetStats(stream.stream_id).MoveValue();
  ASSERT_EQ(stats.streams.size(), 1u);
  EXPECT_GT(stats.streams[0].cache_hits, 0);
  EXPECT_EQ(stats.streams[0].cache_misses, 0);
  reuse->CloseStream(stream.stream_id).MoveValue();
}

TEST_F(ServeDaemonTest, DerivedIdStableAcrossCallsAndGenerations) {
  const auto first = PcrDaemon::DeriveCacheDatasetId(env_, dataset_dir_);
  const auto again = PcrDaemon::DeriveCacheDatasetId(env_, dataset_dir_);
  ASSERT_TRUE(first.ok()) << first.status();
  EXPECT_EQ(*first, *again);

  // A rewritten dataset at the SAME path is a new writer generation: its
  // id must change so stale decoded entries cannot serve the new bytes.
  const std::string dir = root_ + "/regen";
  BuildDataset(dir, 16, /*seed_base=*/0);
  const uint64_t gen1 = PcrDaemon::DeriveCacheDatasetId(env_, dir).MoveValue();
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  BuildDataset(dir, 16, /*seed_base=*/1000);  // Different content.
  const uint64_t gen2 = PcrDaemon::DeriveCacheDatasetId(env_, dir).MoveValue();
  EXPECT_NE(gen1, gen2);

  // Missing dataset: an error, not a synthetic id.
  EXPECT_FALSE(
      PcrDaemon::DeriveCacheDatasetId(env_, root_ + "/nope").ok());
}

TEST_F(ServeDaemonTest, GarbageFramesGetErrorThenDisconnect) {
  const std::string socket = Socket();
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, socket.c_str(), sizeof(addr.sun_path) - 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  // A hostile 4 GiB length prefix: the daemon must answer with an error
  // frame and hang up without ever allocating the claimed payload.
  const char hostile[8] = {'\xff', '\xff', '\xff', '\xff', 1, 2, 3, 4};
  ASSERT_EQ(::send(fd, hostile, sizeof(hostile), MSG_NOSIGNAL), 8);
  FrameParser parser;
  char buf[4096];
  bool saw_eof = false;
  bool saw_error_frame = false;
  for (int i = 0; i < 100 && !saw_eof; ++i) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) {
      saw_eof = true;
      break;
    }
    parser.Feed(Slice(buf, static_cast<size_t>(n)));
    Frame frame;
    while (parser.Next(&frame) == FrameParser::Outcome::kFrame) {
      if (frame.type == MessageType::kError) saw_error_frame = true;
    }
  }
  ::close(fd);
  EXPECT_TRUE(saw_eof);
  EXPECT_TRUE(saw_error_frame);
  // The daemon is still healthy: a well-behaved client connects and works.
  auto client = PcrClient::Connect(socket, "after-garbage").MoveValue();
  OpenStreamRequest open;
  open.dataset_dir = dataset_dir_;
  open.max_epochs = 1;
  auto stream = client->OpenStream(open).MoveValue();
  client->CloseStream(stream.stream_id).MoveValue();
}

TEST_F(ServeDaemonTest, StopIsBoundedWithClientsMidStream) {
  if (!RequireInternalDaemon()) {
    GTEST_SKIP() << "stops the in-process daemon";
  }
  const std::string socket = Socket();
  auto client = PcrClient::Connect(socket, "stop-test").MoveValue();
  OpenStreamRequest open;
  open.dataset_dir = dataset_dir_;
  open.max_epochs = 1000;  // Far more than the test will consume.
  auto stream = client->OpenStream(open).MoveValue();

  std::atomic<bool> got_error{false};
  std::thread consumer([&] {
    for (int k = 0; k < 1000000; ++k) {
      auto batch = client->NextBatch(stream.stream_id);
      if (!batch.ok()) {
        got_error.store(true);
        return;
      }
    }
  });
  // Let the consumer get properly mid-stream, then pull the plug.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  const auto t0 = std::chrono::steady_clock::now();
  daemon_->Stop();
  const double stop_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  consumer.join();
  EXPECT_TRUE(got_error.load());
  EXPECT_LT(stop_seconds, 10.0);
  daemon_->Stop();  // Idempotent.
}

TEST_F(ServeDaemonTest, StatsSurviveStreamChurn) {
  // Regression shape for a use-after-free: BuildStats snapshots stream
  // shared_ptrs under streams_mu_, then reads pipeline->io_stats() after
  // dropping the lock — racing another connection's teardown. The fix
  // keeps the pipeline alive until the last Stream reference drops;
  // daemon-wide Stats hammered against open/close/disconnect churn lets
  // the ASan and TSan CI passes prove it.
  const std::string socket = Socket();
  std::atomic<bool> done{false};
  std::atomic<int> stats_failures{0};
  std::thread stats_thread([&] {
    auto client = PcrClient::Connect(socket, "stats-hammer").MoveValue();
    while (!done.load(std::memory_order_acquire)) {
      if (!client->GetStats(0).ok()) {
        stats_failures.fetch_add(1);
        return;
      }
    }
  });
  for (int round = 0; round < 30; ++round) {
    auto client =
        PcrClient::Connect(socket, "churn-" + std::to_string(round))
            .MoveValue();
    OpenStreamRequest open;
    open.dataset_dir = dataset_dir_;
    open.max_epochs = 1;
    open.shuffle = false;
    auto stream = client->OpenStream(open).MoveValue();
    client->NextBatch(stream.stream_id).MoveValue();
    if (round % 2 == 0) {
      client->CloseStream(stream.stream_id).MoveValue();
    }
    // Odd rounds hang up without CloseStream — the disconnect teardown
    // path, which used to reset the pipeline out from under Stats.
  }
  done.store(true, std::memory_order_release);
  stats_thread.join();
  EXPECT_EQ(stats_failures.load(), 0);
}

TEST_F(ServeDaemonTest, MultiClientHammer) {
  // Concurrent clients on one daemon — the shape the TSan CI pass runs to
  // shake out races between reader threads, serve loops, and the caches.
  const std::string socket = Socket();
  constexpr int kHammerClients = 4;
  constexpr int kEpochs = 2;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int i = 0; i < kHammerClients; ++i) {
    threads.emplace_back([&, i] {
      auto client =
          PcrClient::Connect(socket, "hammer-" + std::to_string(i))
              .MoveValue();
      OpenStreamRequest open;
      open.dataset_dir = dataset_dir_;
      open.max_epochs = kEpochs;
      open.shuffle = true;
      open.seed = 100 + static_cast<uint64_t>(i);
      open.decode = (i % 2 == 0);   // Mix decoded and compressed streams,
      open.shm_plane = open.decode;  // and shm + socket data planes.
      auto stream = client->OpenStream(open).MoveValue();
      int images = 0;
      // The streams' tickets interleave on the daemon's one executor; each
      // stream still sees every record exactly once per epoch.
      std::map<int64_t, int> deliveries;
      for (;;) {
        auto batch = client->NextBatch(stream.stream_id);
        if (!batch.ok()) {
          failures.fetch_add(1);
          return;
        }
        if (batch->end_of_stream) break;
        images += static_cast<int>(batch->images.size() +
                                   batch->jpegs.size());
        ++deliveries[batch->record_index];
      }
      if (images != 16 * kEpochs) failures.fetch_add(1);
      if (deliveries.size() != stream.num_records) failures.fetch_add(1);
      for (const auto& [record, count] : deliveries) {
        if (count != kEpochs) failures.fetch_add(1);
      }
      client->GetStats(stream.stream_id).MoveValue();
      client->CloseStream(stream.stream_id).MoveValue();
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST_F(ServeDaemonTest, StreamsCostOneThreadEach) {
  if (!RequireInternalDaemon()) {
    GTEST_SKIP() << "counts the in-process daemon's threads";
  }
  auto client = PcrClient::Connect(Socket(), "thread-count").MoveValue();
  auto count_threads = [] {
    int threads = 0;
    for (const auto& entry :
         std::filesystem::directory_iterator("/proc/self/task")) {
      (void)entry;
      ++threads;
    }
    return threads;
  };
  OpenStreamRequest open;
  open.dataset_dir = dataset_dir_;
  open.max_epochs = 1;
  open.shuffle = false;
  // The first stream reads the whole epoch, so the later streams' batches
  // come from the caches: no read starts an I/O service thread mid-count.
  auto first = client->OpenStream(open).MoveValue();
  for (uint32_t k = 0; k < first.num_records; ++k) {
    ASSERT_FALSE(client->NextBatch(first.stream_id).MoveValue().end_of_stream);
  }
  const int with_one = count_threads();
  for (int i = 1; i < 8; ++i) {
    auto stream = client->OpenStream(open).MoveValue();
    ASSERT_FALSE(
        client->NextBatch(stream.stream_id).MoveValue().end_of_stream);
  }
  const int with_eight = count_threads();
  EXPECT_LE(with_eight - with_one, 7)
      << with_one << " threads with 1 stream, " << with_eight << " with 8";
}

// --- Shared-memory data plane ----------------------------------------------

TEST(SlotRingTest, GenerationCookiesGateReleases) {
  SlotRing ring(2, 4096);
  auto a = ring.TryAcquire();
  auto b = ring.TryAcquire();
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  EXPECT_NE(a->second, b->second);  // Distinct live cookies.
  EXPECT_FALSE(ring.TryAcquire().has_value());  // All slots held.

  EXPECT_FALSE(ring.Release(a->first, a->second + 100));  // Forged cookie.
  EXPECT_FALSE(ring.Release(99, 1));                      // Out of range.
  EXPECT_EQ(ring.held_slots(), 2u);
  EXPECT_TRUE(ring.Release(a->first, a->second));
  EXPECT_FALSE(ring.Release(a->first, a->second));  // Double release.

  // The freed slot comes back with a NEW generation, so the old cookie is
  // dead even though the slot index recurs.
  auto c = ring.TryAcquire();
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(c->first, a->first);
  EXPECT_NE(c->second, a->second);

  ring.ReclaimAll();
  EXPECT_EQ(ring.held_slots(), 0u);
  EXPECT_FALSE(ring.Release(b->first, b->second));  // Invalidated by reclaim.
  ring.Close();
  EXPECT_FALSE(ring.Acquire().has_value());
}

TEST(ShmSegmentTest, AdoptRejectsUndersizedSegment) {
  auto segment = ShmSegment::Create("adopt-test", 8192);
  ASSERT_TRUE(segment.ok()) << segment.status();
  // Adopt wants its own fd (it takes ownership either way).
  const int dup_fd = ::dup(segment->fd());
  ASSERT_GE(dup_fd, 0);
  auto bigger = ShmSegment::Adopt(dup_fd, 16384);
  EXPECT_FALSE(bigger.ok());  // fstat says 8 KiB < 16 KiB demanded.
  const int dup2_fd = ::dup(segment->fd());
  ASSERT_GE(dup2_fd, 0);
  auto exact = ShmSegment::Adopt(dup2_fd, 8192);
  ASSERT_TRUE(exact.ok()) << exact.status();
  // Same pages: a write through the creator is visible to the adopter.
  segment->data()[17] = 0xab;
  EXPECT_EQ(exact->data()[17], 0xab);
}

TEST(ProtocolTest, ShmMessagesRoundTrip) {
  ShmSegmentMsg seg;
  seg.stream_id = 7;
  seg.segment_bytes = 1 << 20;
  seg.slots = 4;
  seg.slot_bytes = 1 << 18;
  auto seg2 = ShmSegmentMsg::Decode(Slice(seg.Encode()));
  ASSERT_TRUE(seg2.ok());
  EXPECT_EQ(seg2->segment_bytes, seg.segment_bytes);
  EXPECT_EQ(seg2->slots, seg.slots);

  ShmAckRequest ack;
  ack.stream_id = 7;
  ack.accepted = true;
  auto ack2 = ShmAckRequest::Decode(Slice(ack.Encode()));
  ASSERT_TRUE(ack2.ok());
  EXPECT_TRUE(ack2->accepted);

  ReleaseSlotRequest rel;
  rel.stream_id = 7;
  rel.slot = 3;
  rel.generation = 12345;
  auto rel2 = ReleaseSlotRequest::Decode(Slice(rel.Encode()));
  ASSERT_TRUE(rel2.ok());
  EXPECT_EQ(rel2->slot, 3u);
  EXPECT_EQ(rel2->generation, 12345u);

  BatchDescriptorReply desc;
  desc.stream_id = 7;
  desc.record_index = 11;
  desc.scan_group = 2;
  desc.labels = {4, -1, 9};
  desc.bytes_read = 777;
  desc.slot = 1;
  desc.generation = 99;
  desc.payload_bytes = 24 + 6;
  desc.images.push_back({4, 2, 3, 0, 24});
  desc.images.push_back({2, 1, 3, 24, 6});
  auto desc2 = BatchDescriptorReply::Decode(Slice(desc.Encode()));
  ASSERT_TRUE(desc2.ok());
  EXPECT_EQ(desc2->labels, desc.labels);
  EXPECT_EQ(desc2->slot, 1u);
  EXPECT_EQ(desc2->generation, 99u);
  ASSERT_EQ(desc2->images.size(), 2u);
  EXPECT_EQ(desc2->images[1].offset, 24u);
  EXPECT_TRUE(ValidateBatchDescriptor(*desc2, 4, 4096).ok());

  // A client that predates the shm fields must read a capability-less
  // Hello, not garbage.
  HelloRequest hello;
  auto hello2 = HelloRequest::Decode(Slice(hello.Encode()));
  ASSERT_TRUE(hello2.ok());
  EXPECT_FALSE(hello2->shm_capable);
}

TEST(ProtocolTest, ValidateBatchDescriptorRejectsBadGeometry) {
  BatchDescriptorReply desc;
  desc.stream_id = 1;
  desc.slot = 0;
  desc.generation = 5;
  desc.payload_bytes = 24;
  desc.images.push_back({4, 2, 3, 0, 24});
  ASSERT_TRUE(ValidateBatchDescriptor(desc, 2, 4096).ok());

  BatchDescriptorReply bad = desc;
  bad.slot = 2;  // Out of range for a 2-slot ring.
  EXPECT_FALSE(ValidateBatchDescriptor(bad, 2, 4096).ok());
  bad = desc;
  bad.generation = 0;  // Never a live cookie.
  EXPECT_FALSE(ValidateBatchDescriptor(bad, 2, 4096).ok());
  bad = desc;
  bad.images[0].offset = 4096 - 23;  // offset + length spills past the slot.
  EXPECT_FALSE(ValidateBatchDescriptor(bad, 2, 4096).ok());
  bad = desc;
  bad.images[0].offset = ~0ull - 8;  // Offset chosen to wrap if added naively.
  EXPECT_FALSE(ValidateBatchDescriptor(bad, 2, 4096).ok());
  bad = desc;
  bad.payload_bytes = 23;  // Image bytes disagree with the total.
  EXPECT_FALSE(ValidateBatchDescriptor(bad, 2, 4096).ok());
}

TEST(ProtocolTest, DescriptorFrameByteFuzz) {
  // Flip every byte of a valid descriptor payload through a few patterns:
  // Decode must never crash, and anything it accepts must either pass the
  // bounds validation or be rejected by it — the client dereferences slot
  // memory only after ValidateBatchDescriptor approves.
  BatchDescriptorReply desc;
  desc.stream_id = 3;
  desc.record_index = 2;
  desc.labels = {1, 2, 3, 4};
  desc.slot = 1;
  desc.generation = 42;
  desc.payload_bytes = 48;
  desc.images.push_back({4, 2, 3, 0, 24});
  desc.images.push_back({4, 2, 3, 24, 24});
  const std::string payload = desc.Encode();
  constexpr uint32_t kSlots = 4;
  constexpr uint64_t kSlotBytes = 4096;
  for (size_t pos = 0; pos < payload.size(); ++pos) {
    for (const uint8_t pattern : {0x01, 0x80, 0xff}) {
      std::string mutated = payload;
      mutated[pos] = static_cast<char>(mutated[pos] ^ pattern);
      auto decoded = BatchDescriptorReply::Decode(Slice(mutated));
      if (!decoded.ok()) continue;
      const Status valid =
          ValidateBatchDescriptor(*decoded, kSlots, kSlotBytes);
      if (!valid.ok()) continue;
      // Survivors must be safe to dereference: every image inside the
      // slot, totals consistent.
      uint64_t total = 0;
      for (const WireImageDesc& img : decoded->images) {
        ASSERT_LE(img.length, kSlotBytes);
        ASSERT_LE(img.offset, kSlotBytes - img.length);
        total += img.length;
      }
      ASSERT_EQ(total, decoded->payload_bytes);
      ASSERT_LT(decoded->slot, kSlots);
    }
  }
  // Truncation sweep: a cut payload must never crash the decoder.
  for (size_t cut = 0; cut < payload.size(); ++cut) {
    (void)BatchDescriptorReply::Decode(Slice(payload.data(), cut));
  }
}

TEST_F(ServeDaemonTest, ListenRefusesLiveDaemonSocket) {
  if (!RequireInternalDaemon()) {
    GTEST_SKIP() << "starts daemons on controlled socket paths";
  }
  const std::string socket = Socket();  // First daemon, live.
  DaemonOptions second;
  second.socket_path = socket;
  auto clash = PcrDaemon::Start(env_, second);
  ASSERT_FALSE(clash.ok());
  EXPECT_TRUE(clash.status().IsAlreadyExists()) << clash.status();
  // The loser must not have unlinked the winner's socket out from under it.
  auto client = PcrClient::Connect(socket, "post-clash");
  EXPECT_TRUE(client.ok()) << client.status();

  // A stale socket file (bound once, no live listener) is taken over.
  const std::string stale = root_ + "/stale.sock";
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, stale.c_str(), stale.size() + 1);
  ASSERT_EQ(::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  ::close(fd);  // File stays behind; nobody listens.
  DaemonOptions takeover;
  takeover.socket_path = stale;
  auto revived = PcrDaemon::Start(env_, takeover);
  ASSERT_TRUE(revived.ok()) << revived.status();
  (*revived)->Stop();

  // A non-socket file at the path is refused outright.
  const std::string plain = root_ + "/not-a-socket";
  { std::ofstream(plain) << "precious"; }
  DaemonOptions blocked;
  blocked.socket_path = plain;
  auto refused = PcrDaemon::Start(env_, blocked);
  ASSERT_FALSE(refused.ok());
  EXPECT_TRUE(refused.status().IsAlreadyExists()) << refused.status();
  EXPECT_TRUE(std::filesystem::exists(plain));  // Untouched.
}

TEST_F(ServeDaemonTest, ShmPlaneDeliversDecodedBatches) {
  auto client = PcrClient::Connect(Socket(), "shm-happy").MoveValue();
  OpenStreamRequest open;
  open.dataset_dir = dataset_dir_;
  open.max_epochs = 1;
  open.shuffle = false;
  open.shm_plane = true;
  auto stream = client->OpenStream(open).MoveValue();
  ASSERT_GT(stream.shm_slots, 0u) << "daemon did not grant the shm plane";
  ASSERT_GT(stream.shm_slot_bytes, 0u);

  int images = 0;
  int shm_batches = 0;
  for (;;) {
    ASSERT_TRUE(client->SendNextBatchRequest(stream.stream_id).ok());
    auto batch = client->ReceiveServedBatch(stream.stream_id);
    ASSERT_TRUE(batch.ok()) << batch.status();
    if (batch->end_of_stream) break;
    if (batch->via_shm()) ++shm_batches;
    for (const ServedImageView& view : batch->images()) {
      const Image img = PcrClient::ToImage(view).MoveValue();
      EXPECT_EQ(img.width(), 48);
      EXPECT_EQ(img.height(), 32);
      ++images;
    }
  }
  EXPECT_EQ(images, 16);
  EXPECT_GT(shm_batches, 0);

  auto stats = client->GetStats(stream.stream_id).MoveValue();
  ASSERT_EQ(stats.streams.size(), 1u);
  EXPECT_EQ(stats.streams[0].shm_batches,
            static_cast<uint64_t>(shm_batches));
  // The shm plane copies each payload once (into the slot); the socket
  // plane would have moved it at least twice.
  EXPECT_GT(stats.streams[0].bytes_copied, 0u);
  client->CloseStream(stream.stream_id).MoveValue();
}

TEST_F(ServeDaemonTest, ShmCompatReceiveBatchStillDeepCopies) {
  // The pre-shm API keeps working against a shm stream: ReceiveBatch
  // resolves descriptors into self-contained BatchReply copies and returns
  // the slots immediately.
  auto client = PcrClient::Connect(Socket(), "shm-compat").MoveValue();
  OpenStreamRequest open;
  open.dataset_dir = dataset_dir_;
  open.max_epochs = 1;
  open.shuffle = false;
  open.shm_plane = true;
  auto stream = client->OpenStream(open).MoveValue();
  int images = 0;
  for (;;) {
    auto batch = client->NextBatch(stream.stream_id).MoveValue();
    if (batch.end_of_stream) break;
    for (const WireImage& wire : batch.images) {
      EXPECT_TRUE(PcrClient::ToImage(wire).ok());
      ++images;
    }
  }
  EXPECT_EQ(images, 16);
  client->CloseStream(stream.stream_id).MoveValue();
}

TEST_F(ServeDaemonTest, ShmSlotExhaustionBackpressures) {
  if (!RequireInternalDaemon()) {
    GTEST_SKIP() << "needs custom DaemonOptions (shm_slots_per_stream)";
  }
  DaemonOptions options;
  options.shm_slots_per_stream = 1;  // Every delivery contends for one slot.
  auto client = PcrClient::Connect(Socket(options), "shm-squeeze").MoveValue();
  OpenStreamRequest open;
  open.dataset_dir = dataset_dir_;
  open.max_epochs = 1;
  open.shuffle = false;
  open.shm_plane = true;
  open.max_inflight = 2;  // Two queued requests against one slot.
  auto stream = client->OpenStream(open).MoveValue();
  ASSERT_EQ(stream.shm_slots, 1u);

  // Pipeline two requests, then sit on the first delivery. The daemon
  // cannot place the second batch until the slot comes back, so it must
  // record a slot wait and park — NOT fail the stream.
  ASSERT_TRUE(client->SendNextBatchRequest(stream.stream_id).ok());
  ASSERT_TRUE(client->SendNextBatchRequest(stream.stream_id).ok());
  auto first = client->ReceiveServedBatch(stream.stream_id);
  ASSERT_TRUE(first.ok()) << first.status();
  ASSERT_TRUE(first->via_shm());
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  first->Release();  // Unblocks the parked delivery.
  auto second = client->ReceiveServedBatch(stream.stream_id);
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_FALSE(second->end_of_stream);
  second->Release();

  auto stats = client->GetStats(stream.stream_id).MoveValue();
  ASSERT_EQ(stats.streams.size(), 1u);
  EXPECT_GE(stats.streams[0].shm_slot_waits, 1u);
  client->CloseStream(stream.stream_id).MoveValue();
}

TEST_F(ServeDaemonTest, DisconnectWhileHoldingSlotsReclaims) {
  if (!RequireInternalDaemon()) {
    GTEST_SKIP() << "needs daemon internals (active_streams)";
  }
  const std::string socket = Socket();
  {
    auto client = PcrClient::Connect(socket, "slot-hoarder").MoveValue();
    OpenStreamRequest open;
    open.dataset_dir = dataset_dir_;
    open.max_epochs = 1;
    open.shuffle = false;
    open.shm_plane = true;
    auto stream = client->OpenStream(open).MoveValue();
    ASSERT_GT(stream.shm_slots, 0u);
    ASSERT_TRUE(client->SendNextBatchRequest(stream.stream_id).ok());
    auto held = client->ReceiveServedBatch(stream.stream_id);
    ASSERT_TRUE(held.ok()) << held.status();
    ASSERT_TRUE(held->via_shm());
    client->Close();  // Hang up WITHOUT releasing the slot.
    // `held` dies after the hangup; its release credit has nowhere to go.
  }
  // The daemon's disconnect teardown must reclaim the stream (and with it
  // the lent slot) without waiting on the credit that will never arrive.
  for (int i = 0; i < 200 && daemon_->active_streams() != 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(daemon_->active_streams(), 0);

  // And the daemon is still fully serviceable on the shm plane.
  auto client = PcrClient::Connect(socket, "after-hoarder").MoveValue();
  OpenStreamRequest open;
  open.dataset_dir = dataset_dir_;
  open.max_epochs = 1;
  open.shuffle = false;
  open.shm_plane = true;
  auto stream = client->OpenStream(open).MoveValue();
  auto batch = client->NextBatch(stream.stream_id).MoveValue();
  EXPECT_FALSE(batch.end_of_stream);
  EXPECT_FALSE(batch.images.empty());
}

TEST_F(ServeDaemonTest, FdPassFailureFallsBackToSocketPlane) {
  if (!RequireInternalDaemon()) {
    GTEST_SKIP() << "needs fault injection (shm_fail_fd_pass_for_test)";
  }
  DaemonOptions options;
  options.shm_fail_fd_pass_for_test = true;
  auto client = PcrClient::Connect(Socket(options), "fd-fail").MoveValue();
  OpenStreamRequest open;
  open.dataset_dir = dataset_dir_;
  open.max_epochs = 1;
  open.shuffle = false;
  open.shm_plane = true;
  auto stream = client->OpenStream(open).MoveValue();
  // The daemon advertised slots, then "failed" the fd pass and withdrew
  // the plane. The stream must keep working on the socket, not error.
  int images = 0;
  for (;;) {
    ASSERT_TRUE(client->SendNextBatchRequest(stream.stream_id).ok());
    auto batch = client->ReceiveServedBatch(stream.stream_id);
    ASSERT_TRUE(batch.ok()) << batch.status();
    if (batch->end_of_stream) break;
    EXPECT_FALSE(batch->via_shm());
    images += static_cast<int>(batch->images().size());
  }
  EXPECT_EQ(images, 16);
  auto stats = client->GetStats(stream.stream_id).MoveValue();
  ASSERT_EQ(stats.streams.size(), 1u);
  EXPECT_EQ(stats.streams[0].shm_batches, 0u);
}

TEST_F(ServeDaemonTest, UndersizedSegmentFallsBackToSocketPlane) {
  if (!RequireInternalDaemon()) {
    GTEST_SKIP() << "needs fault injection (shm_undersize_segment_for_test)";
  }
  DaemonOptions options;
  options.shm_undersize_segment_for_test = true;
  auto client = PcrClient::Connect(Socket(options), "undersized").MoveValue();
  OpenStreamRequest open;
  open.dataset_dir = dataset_dir_;
  open.max_epochs = 1;
  open.shuffle = false;
  open.shm_plane = true;
  auto stream = client->OpenStream(open).MoveValue();
  // The client's fstat validation must reject the too-small segment and
  // answer a rejecting ShmAck; the stream stays on the socket plane.
  int images = 0;
  for (;;) {
    auto batch = client->NextBatch(stream.stream_id).MoveValue();
    if (batch.end_of_stream) break;
    images += static_cast<int>(batch.images.size());
  }
  EXPECT_EQ(images, 16);
  auto stats = client->GetStats(stream.stream_id).MoveValue();
  ASSERT_EQ(stats.streams.size(), 1u);
  EXPECT_EQ(stats.streams[0].shm_batches, 0u);
}

TEST_F(ServeDaemonTest, ClientRejectingAckStaysOnSocketPlane) {
  auto client = PcrClient::Connect(Socket(), "shm-refusenik").MoveValue();
  client->set_reject_shm_for_test(true);
  OpenStreamRequest open;
  open.dataset_dir = dataset_dir_;
  open.max_epochs = 1;
  open.shuffle = false;
  open.shm_plane = true;
  auto stream = client->OpenStream(open).MoveValue();
  int images = 0;
  for (;;) {
    ASSERT_TRUE(client->SendNextBatchRequest(stream.stream_id).ok());
    auto batch = client->ReceiveServedBatch(stream.stream_id);
    ASSERT_TRUE(batch.ok()) << batch.status();
    if (batch->end_of_stream) break;
    EXPECT_FALSE(batch->via_shm());
    images += static_cast<int>(batch->images().size());
  }
  EXPECT_EQ(images, 16);
  client->CloseStream(stream.stream_id).MoveValue();
}

TEST_F(ServeDaemonTest, ZeroCopyCacheHitsCounted) {
  if (!RequireInternalDaemon()) {
    GTEST_SKIP() << "asserts against per-stream cache-hit stats";
  }
  // Two passes over the same records: the second stream's batches come out
  // of the decode cache by reference (no deep copy on the consumer path),
  // visible as zero_copy_hits in its stream stats. Sequential streams (not
  // one two-epoch stream) so every insert finishes before the rereads.
  auto client = PcrClient::Connect(Socket(), "zero-copy").MoveValue();
  OpenStreamRequest open;
  open.dataset_dir = dataset_dir_;
  open.max_epochs = 1;
  open.shuffle = false;
  open.shm_plane = true;
  for (int round = 0; round < 2; ++round) {
    auto stream = client->OpenStream(open).MoveValue();
    for (;;) {
      auto batch = client->NextBatch(stream.stream_id).MoveValue();
      if (batch.end_of_stream) break;
    }
    auto stats = client->GetStats(stream.stream_id).MoveValue();
    ASSERT_EQ(stats.streams.size(), 1u);
    if (round == 1) {
      EXPECT_GT(stats.streams[0].cache_hits, 0u);
      EXPECT_EQ(stats.streams[0].zero_copy_hits, stats.streams[0].cache_hits);
      EXPECT_GT(stats.streams[0].zero_copy_bytes, 0u);
    }
    client->CloseStream(stream.stream_id).MoveValue();
  }
}

TEST_F(ServeDaemonTest, StoppedReadersDoNotFreezeOtherStreams) {
  // A client that stops reading stalls only its own stream. Four socket
  // clients leave 768 KiB decoded replies unread, more than a socket
  // buffer holds, so their serve threads block in send(); four shm clients
  // hold every slot, so theirs park on the slot ring. A fifth client must
  // still read a whole epoch.
  const std::string big_dir = root_ + "/big";
  BuildDataset(big_dir, /*num_images=*/16, /*seed_base=*/100, 256, 256);
  const std::string socket = Socket();
  {
    // Decode the big dataset once, so the stalled streams are served from
    // the decode cache and the test checks the reply path alone. Cold, their
    // decodes would also queue ahead of the fifth stream's in the executor's
    // one raw-record queue.
    auto warm = PcrClient::Connect(socket, "warm").MoveValue();
    OpenStreamRequest open;
    open.dataset_dir = big_dir;
    open.max_epochs = 1;
    open.shuffle = false;
    auto stream = warm->OpenStream(open).MoveValue();
    while (!warm->NextBatch(stream.stream_id).MoveValue().end_of_stream) {
    }
  }
  constexpr int kStalled = 4;
  for (const bool shm : {false, true}) {
    SCOPED_TRACE(shm ? "shm plane" : "socket plane");
    struct Stalled {
      std::unique_ptr<PcrClient> client;
      std::vector<ServedBatch> held;  // Destroyed before the client.
    };
    std::vector<Stalled> stalled(kStalled);
    for (int i = 0; i < kStalled; ++i) {
      Stalled& s = stalled[i];
      s.client =
          PcrClient::Connect(socket, "stalled-" + std::to_string(i))
              .MoveValue();
      OpenStreamRequest open;
      open.dataset_dir = big_dir;
      open.max_epochs = 8;  // More batches than the client will ask for.
      open.shuffle = false;
      open.max_inflight = 8;
      open.shm_plane = shm;
      auto stream = s.client->OpenStream(open).MoveValue();
      if (shm) {
        ASSERT_GT(stream.shm_slots, 0u) << "daemon did not grant the shm plane";
        for (uint32_t k = 0; k < stream.shm_slots; ++k) {
          ASSERT_TRUE(s.client->SendNextBatchRequest(stream.stream_id).ok());
          auto batch = s.client->ReceiveServedBatch(stream.stream_id);
          ASSERT_TRUE(batch.ok()) << batch.status();
          ASSERT_TRUE(batch->via_shm());
          s.held.push_back(std::move(batch).MoveValue());
        }
      }
      for (uint32_t k = 0; k < stream.max_inflight; ++k) {
        ASSERT_TRUE(s.client->SendNextBatchRequest(stream.stream_id).ok());
      }
    }

    std::promise<int> read_images;
    std::future<int> images = read_images.get_future();
    std::thread reader([&] {
      int count = -1;
      auto client = PcrClient::Connect(socket, "unstalled");
      if (client.ok()) {
        OpenStreamRequest open;
        open.dataset_dir = dataset_dir_;
        open.max_epochs = 1;
        open.shuffle = false;
        open.shm_plane = shm;
        auto stream = (*client)->OpenStream(open);
        if (stream.ok()) count = 0;
        while (count >= 0) {
          auto batch = (*client)->NextBatch(stream->stream_id);
          if (!batch.ok()) {
            count = -1;
          } else if (batch->end_of_stream) {
            break;
          } else {
            count += static_cast<int>(batch->images.size());
          }
        }
      }
      read_images.set_value(count);
    });
    const bool in_time = images.wait_for(std::chrono::seconds(5)) ==
                         std::future_status::ready;
    if (!in_time) {
      // Hang the stalled clients up so the reader finishes and the test
      // fails instead of hanging.
      for (Stalled& s : stalled) s.client->Close();
    }
    reader.join();
    EXPECT_TRUE(in_time) << "the fifth client read no epoch within 5 s";
    EXPECT_EQ(images.get(), 16);
  }
}

}  // namespace
}  // namespace pcr::serve
