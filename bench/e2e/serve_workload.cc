// The serving-daemon workloads: one in-process PcrDaemon feeding decoded
// streams over the shm plane to closed-loop trainers, one thread and one
// connection per trainer.
#include <unistd.h>

#include <algorithm>
#include <deque>
#include <filesystem>
#include <mutex>
#include <thread>

#include "harness.h"
#include "serve/client.h"
#include "serve/daemon.h"

namespace pcr::e2e {

namespace {

constexpr int kConnections = 4;
constexpr int kStreamsPerConnection = 2;
constexpr uint32_t kInflightPerStream = 2;
/// serve-cold trainers re-open each stream after 2 epochs, so every stream
/// that ends in the run is checked exactly.
constexpr uint32_t kColdEpochs = 2;
/// serve-warm streams run ~5 epochs/s each, so this many outlast any run
/// (the watchdog ends one after 130 s): no re-open lands in the window.
constexpr uint32_t kWarmEpochs = 1'000'000;

/// Each of the four trainers reads two streams (say, two shards) and takes
/// one batch from each per step. serve-cold: a cache of 70% of the decoded
/// working set with the daemon's default half of it per dataset (for 1,024
/// images that is the default 256 MiB), at full quality. serve-warm: a
/// cache holding the whole decoded dataset, filled by one epoch during
/// setup, at scan group 2.
class ServeWorkload : public Workload {
 public:
  ServeWorkload(Run* run, bool warm)
      : Workload(run),
        warm_(warm),
        group_(warm ? kPartialGroup : kFullGroup),
        epochs_(warm ? kWarmEpochs : kColdEpochs) {}

  ~ServeWorkload() override {
    Stop();
    Teardown();
  }

  Status Init() override {
    std::error_code ec;
    dataset_dir_ =
        std::filesystem::canonical(run_->config.seed_dir.pcr(), ec).string();
    if (ec) {
      return Status::NotFound("no dataset at " + run_->config.seed_dir.pcr());
    }
    env_ = Env::Default();
    if (run_->config.traced) {
      traced_env_ = std::make_unique<TracedEnv>(env_, &run_->recorder);
      env_ = traced_env_.get();
    }
    if (warm_) {
      options_.decode_cache_bytes = 2ull << 30;
      options_.dataset_cache_share = 1.0;
    } else {
      options_.decode_cache_bytes = run_->ref.dataset_pixel_bytes * 7 / 10;
    }
    // Size the slots for the largest decoded record (each image starts
    // cache-line aligned), so no batch falls back to the socket plane.
    size_t max_images = 0;
    for (const auto& [key, images] : run_->ref.batches) {
      max_images = std::max(max_images, images.size());
    }
    const uint64_t need = run_->ref.max_record_pixel_bytes + 64 * max_images;
    options_.shm_slot_bytes = (need + 4095) & ~uint64_t{4095};
    return Status::OK();
  }

  Status Setup() override {
    ledgers_.clear();
    conns_.clear();
    options_.socket_path = run_->config.run_dir + "/pcrd-" +
                           std::to_string(::getpid()) + "-" +
                           std::to_string(++setups_) + ".sock";
    const int64_t t0 = NowNanos();
    PCR_ASSIGN_OR_RETURN(daemon_, serve::PcrDaemon::Start(env_, options_));
    daemon_start_ms_.push_back((NowNanos() - t0) * 1e-6);
    // One epoch through one stream, so every later batch is a cache hit.
    if (warm_) PCR_RETURN_IF_ERROR(ExactEpoch("fill"));

    for (int c = 0; c < kConnections; ++c) {
      auto conn = std::make_unique<Conn>();
      PCR_ASSIGN_OR_RETURN(
          conn->client,
          serve::PcrClient::Connect(daemon_->socket_path(),
                                    "trainer-" + std::to_string(c)));
      conn->streams.resize(kStreamsPerConnection);
      for (int s = 0; s < kStreamsPerConnection; ++s) {
        Stream& stream = conn->streams[s];
        stream.seed_offset = static_cast<uint64_t>(c * 16 + s);
        stream.ledger = AddLedger("connection " + std::to_string(c) +
                                  " stream " + std::to_string(s));
        PCR_RETURN_IF_ERROR(Open(conn.get(), &stream));
      }
      conns_.push_back(std::move(conn));
    }
    for (auto& conn : conns_) {
      for (Stream& stream : conn->streams) {
        if (!ReceiveOne(conn.get(), &stream)) {
          return Status::Aborted("no first batch on " + stream.ledger->name);
        }
      }
    }
    PCR_ASSIGN_OR_RETURN(stats_client_,
                         serve::PcrClient::Connect(daemon_->socket_path(),
                                                   "bench-stats"));
    return Status::OK();
  }

  void Start() override {
    for (auto& conn : conns_) {
      Conn* c = conn.get();
      c->thread = std::thread([this, c] {
        while (run_->phase() < kDone && !run_->fatal()) {
          int64_t blocked = 0;
          for (Stream& stream : c->streams) {
            if (!ReceiveOne(c, &stream, &blocked)) return;
          }
          c->streams.front().ledger->tally[run_->phase()].wait_ms.push_back(
              blocked * 1e-6);
        }
      });
    }
  }

  void Stop() override {
    for (auto& conn : conns_) {
      if (conn->thread.joinable()) conn->thread.join();
    }
  }

  void Verify() override {
    // serve-warm's trainer streams never end, so one more epoch of the
    // all-hit path they ran is checked exactly, outside the window.
    if (!warm_ || daemon_ == nullptr || run_->fatal()) return;
    Status status = ExactEpoch("hits");
    if (!status.ok()) run_->Fail("hit epoch: " + status.ToString());
  }

  void Teardown() override {
    stats_client_.reset();
    conns_.clear();  // Hanging up releases each connection's streams.
    if (daemon_ != nullptr) daemon_->Stop();
    daemon_.reset();
  }

  Counters Sample() override {
    Counters c;
    {
      std::lock_guard<std::mutex> lock(mu_);
      c = closed_;
    }
    auto stats = stats_client_->GetStats();
    if (!stats.ok()) {
      run_->Fail("stats: " + stats.status().ToString());
      return c;
    }
    std::vector<double> queue_p50, queue_p99, reply_p50, reply_p99;
    for (const serve::StreamStats& s : stats->streams) {
      if (s.client_name.rfind("trainer-", 0) != 0) continue;
      AddStreamCounters(s, &c);
      queue_p50.push_back(s.queue_wait_p50_sec);
      queue_p99.push_back(s.queue_wait_p99_sec);
      reply_p50.push_back(s.batch_p50_sec);
      reply_p99.push_back(s.batch_p99_sec);
    }
    // Ring-windowed percentiles: the median stream's p50, the worst p99.
    c["queue_wait_p50"] = PercentileOf(queue_p50, 50);
    c["queue_wait_p99"] = PercentileOf(queue_p99, 100);
    c["reply_p50"] = PercentileOf(reply_p50, 50);
    c["reply_p99"] = PercentileOf(reply_p99, 100);
    if (traced_env_ != nullptr) {
      c["env.reads"] = static_cast<double>(traced_env_->counters().reads);
    }
    return c;
  }

  void LayerMetrics(const Counters& a, const Counters& b, const Tally& t,
                    double seconds, Metrics* out) override {
    (void)seconds;
    const double images = static_cast<double>(t.images);
    const double batches = Delta(a, b, "served_batches");
    const double hits = Delta(a, b, "cache_hits");
    PutMetric(out, "storage.reads_per_image",
              Ratio(Delta(a, b, "env.reads"), images), "count");
    PutMetric(out, "storage.bytes_per_image", Ratio(t.bytes_read, images), "B");
    PutMetric(out, "storage.space_amplification",
              Ratio(run_->ref.dataset_bytes, run_->ref.input_jpeg_bytes),
              "ratio");
    PutMetric(out, "serve.decode_cache_hit_rate",
              Ratio(hits, hits + Delta(a, b, "cache_misses")), "ratio");
    PutMetric(out, "serve.shm_batch_share", Ratio(t.shm_batches, t.batches),
              "ratio");
    PutMetric(out, "serve.shm_slot_waits_per_batch",
              Ratio(Delta(a, b, "shm_slot_waits"), batches), "count");
    PutMetric(out, "serve.bytes_copied_per_image",
              Ratio(Delta(a, b, "bytes_copied"), images), "B");
    PutMetric(out, "serve.zero_copy_share",
              Ratio(Delta(a, b, "zero_copy_hits"), batches), "ratio");
    double lo = 0, hi = 0;
    for (const auto& [name, n] : t.stream_images) {
      lo = lo == 0 ? n : std::min<double>(lo, n);
      hi = std::max<double>(hi, n);
    }
    PutMetric(out, "serve.fairness", Ratio(lo, hi), "ratio");
    PutMetric(out, "serve.request_p50_ms", PercentileOf(t.request_ms, 50),
              "ms");
    PutMetric(out, "serve.request_p99_ms", PercentileOf(t.request_ms, 99),
              "ms");
    PutMetric(out, "serve.queue_wait_p50_ms", b.at("queue_wait_p50") * 1e3,
              "ms");
    PutMetric(out, "serve.queue_wait_p99_ms", b.at("queue_wait_p99") * 1e3,
              "ms");
    PutMetric(out, "serve.reply_p50_ms", b.at("reply_p50") * 1e3, "ms");
    PutMetric(out, "serve.reply_p99_ms", b.at("reply_p99") * 1e3, "ms");
    PutMetric(out, "consume.window_us_per_image",
              Ratio(t.consume_ns * 1e-3, images), "us");
  }

  void ExtraMetrics(Metrics* out) override {
    PutMetric(out, "serve.daemon_start_ms", PercentileOf(daemon_start_ms_, 50),
              "ms");
    PutMetric(out, "serve.open_stream_ms", PercentileOf(open_stream_ms_, 50),
              "ms");
  }

  WalkTarget Walk(const Tally& window) override {
    WalkTarget target;
    target.env = env_;
    target.dataset_dir = dataset_dir_;
    for (const auto& step : window.sequence) {
      if (static_cast<int>(target.sequence.size()) >= run_->ref.num_records) {
        break;
      }
      target.sequence.push_back(step);
    }
    return target;
  }

 private:
  struct Stream {
    uint64_t id = 0;
    StreamLedger* ledger = nullptr;
    std::deque<int64_t> sent;  // Request send times; replies are FIFO.
    uint64_t seed_offset = 0;
    int incarnation = 0;
  };
  struct Conn {
    std::unique_ptr<serve::PcrClient> client;
    std::vector<Stream> streams;
    std::thread thread;
  };

  serve::OpenStreamRequest Request(uint32_t max_epochs, bool shuffle,
                                   uint64_t seed) const {
    serve::OpenStreamRequest request;
    request.dataset_dir = dataset_dir_;
    request.scan_group = static_cast<uint32_t>(group_);
    request.max_epochs = max_epochs;
    request.shuffle = shuffle;
    request.seed = seed;
    request.decode = true;
    request.max_inflight = kInflightPerStream;
    request.shm_plane = true;
    return request;
  }

  Status Send(Conn* conn, Stream* stream) {
    stream->sent.push_back(NowNanos());
    return conn->client->SendNextBatchRequest(stream->id);
  }

  /// Receives, verifies and releases one batch, then keeps the stream's
  /// request window full. False when the stream failed or ended.
  bool ReceiveOne(Conn* conn, Stream* stream, int64_t* blocked = nullptr) {
    ConsumerProgress* progress = stream->ledger->progress;
    const int64_t start = NowNanos();
    progress->blocked_since.store(start, std::memory_order_release);
    Result<serve::ServedBatch> batch =
        conn->client->ReceiveServedBatch(stream->id);
    while (batch.ok() && batch->end_of_stream) {
      // The trainer re-opens its stream once the epochs it asked for are
      // delivered; the wait for the new stream's first batch is its stall.
      Status reopened = Reopen(conn, stream);
      if (!reopened.ok()) {
        batch = reopened;
        break;
      }
      progress->blocked_since.store(NowNanos(), std::memory_order_release);
      batch = conn->client->ReceiveServedBatch(stream->id);
    }
    const int64_t end = NowNanos();
    progress->blocked_since.store(0, std::memory_order_release);
    if (blocked != nullptr) *blocked += end - start;
    if (!batch.ok()) {
      run_->Abort(stream->ledger->name + ": " + batch.status().ToString());
      return false;
    }
    const int at = run_->phase();
    Tally& t = stream->ledger->tally[at];
    if (!stream->sent.empty()) {
      t.request_ms.push_back((end - stream->sent.front()) * 1e-6);
      stream->sent.pop_front();
    }
    if (batch->via_shm()) {
      ++t.shm_batches;
    } else {
      run_->Fail(stream->ledger->name +
                 ": batch fell back to the socket plane");
    }
    std::vector<ImageView> views;
    for (const serve::ServedImageView& v : batch->images()) {
      views.push_back({v.width, v.height, v.channels, v.data, v.length});
    }
    run_->Deliver(stream->ledger, static_cast<int>(batch->record_index),
                  static_cast<int>(batch->scan_group), batch->labels, views,
                  batch->bytes_read, start, end);
    batch->Release();
    Status sent = Send(conn, stream);
    if (!sent.ok()) {
      run_->Abort(stream->ledger->name + ": " + sent.ToString());
      return false;
    }
    return true;
  }

  /// Opens a stream of `epochs_` epochs for `stream` and fills its request
  /// window.
  Status Open(Conn* conn, Stream* stream) {
    const int64_t start = NowNanos();
    PCR_ASSIGN_OR_RETURN(
        serve::StreamOpenedReply opened,
        conn->client->OpenStream(Request(
            epochs_, /*shuffle=*/true,
            run_->config.seed * 1000003 + stream->seed_offset +
                stream->incarnation++ * 7919)));
    {
      std::lock_guard<std::mutex> lock(mu_);
      open_stream_ms_.push_back((NowNanos() - start) * 1e-6);
    }
    if (opened.shm_slots == 0) {
      run_->Fail(stream->ledger->name + ": daemon did not grant the shm plane");
      return Status::FailedPrecondition("shm plane not granted");
    }
    stream->id = opened.stream_id;
    stream->sent.clear();
    for (uint32_t k = 0; k < kInflightPerStream; ++k) {
      PCR_RETURN_IF_ERROR(Send(conn, stream));
    }
    return Status::OK();
  }

  /// At end of stream: checks it delivered every record exactly once per
  /// epoch, drains the remaining replies and replaces the stream.
  Status Reopen(Conn* conn, Stream* stream) {
    CheckExactlyOnce(stream->ledger, static_cast<int>(epochs_));
    stream->sent.pop_front();  // The end-of-stream reply.
    while (!stream->sent.empty()) {
      stream->sent.pop_front();
      PCR_ASSIGN_OR_RETURN(serve::ServedBatch extra,
                           conn->client->ReceiveServedBatch(stream->id));
      if (!extra.end_of_stream) {
        run_->Fail(stream->ledger->name + ": batch after end of stream");
      }
    }
    // A closed stream leaves the daemon's stats; keep its final counters.
    PCR_ASSIGN_OR_RETURN(serve::StatsReply stats,
                         conn->client->GetStats(stream->id));
    {
      std::lock_guard<std::mutex> lock(mu_);
      for (const serve::StreamStats& s : stats.streams) {
        AddStreamCounters(s, &closed_);
      }
    }
    PCR_RETURN_IF_ERROR(conn->client->CloseStream(stream->id).status());
    return Open(conn, stream);
  }

  static void AddStreamCounters(const serve::StreamStats& s, Counters* c) {
    (*c)["cache_hits"] += static_cast<double>(s.cache_hits);
    (*c)["cache_misses"] += static_cast<double>(s.cache_misses);
    (*c)["served_batches"] += static_cast<double>(s.served_batches);
    (*c)["shm_slot_waits"] += static_cast<double>(s.shm_slot_waits);
    (*c)["bytes_copied"] += static_cast<double>(s.bytes_copied);
    (*c)["zero_copy_hits"] += static_cast<double>(s.zero_copy_hits);
  }

  /// One epoch through a stream of its own, on a connection of its own,
  /// checked exactly once per record.
  Status ExactEpoch(const std::string& name) {
    auto conn = std::make_unique<Conn>();
    PCR_ASSIGN_OR_RETURN(conn->client,
                         serve::PcrClient::Connect(daemon_->socket_path(),
                                                   name));
    PCR_ASSIGN_OR_RETURN(serve::StreamOpenedReply opened,
                         conn->client->OpenStream(Request(1, false, 1)));
    Stream stream;
    stream.id = opened.stream_id;
    stream.ledger = AddLedger(name);
    for (uint32_t k = 0; k < kInflightPerStream; ++k) {
      PCR_RETURN_IF_ERROR(Send(conn.get(), &stream));
    }
    for (uint32_t k = 0; k < opened.num_records; ++k) {
      if (!ReceiveOne(conn.get(), &stream)) {
        return Status::Aborted(name + " epoch failed");
      }
    }
    CheckExactlyOnce(stream.ledger, 1);
    return Status::OK();
  }

  const bool warm_;
  const int group_;
  /// Epochs per trainer stream before the trainer re-opens it.
  const uint32_t epochs_;
  std::string dataset_dir_;
  Env* env_ = nullptr;
  std::unique_ptr<TracedEnv> traced_env_;
  serve::DaemonOptions options_;
  std::unique_ptr<serve::PcrDaemon> daemon_;
  std::vector<std::unique_ptr<Conn>> conns_;
  std::unique_ptr<serve::PcrClient> stats_client_;
  int setups_ = 0;
  std::vector<double> daemon_start_ms_;
  /// Guards what the connection threads share: the final counters of
  /// streams already closed, and OpenStream times.
  std::mutex mu_;
  Counters closed_;
  std::vector<double> open_stream_ms_;
};

}  // namespace

std::unique_ptr<Workload> MakeServeWorkload(Run* run, bool warm) {
  return std::make_unique<ServeWorkload>(run, warm);
}

}  // namespace pcr::e2e
