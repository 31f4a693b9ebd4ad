// Outside-in tracing: a span store, and Env / RecordSource wrappers that time
// calls into the storage and core layers without touching them.
#include <sys/syscall.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <deque>
#include <unordered_map>

#include "e2e.h"

namespace pcr::e2e {

int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {

uint32_t ThreadId() {
  thread_local const uint32_t tid =
      static_cast<uint32_t>(::syscall(SYS_gettid));
  return tid;
}

}  // namespace

uint64_t SpanRecorder::Record(const char* name, int64_t start, int64_t end,
                              uint64_t parent, uint64_t batch, uint64_t id) {
  if (!enabled()) return 0;
  Span span;
  span.name = name;
  span.start = start;
  span.end = end;
  span.id = id != 0 ? id : NewId();
  span.parent = parent;
  span.batch = batch;
  span.tid = ThreadId();
  std::lock_guard<std::mutex> lock(mu_);
  if (spans_.size() >= kMaxSpans) return 0;
  spans_.push_back(span);
  return span.id;
}

std::vector<Span> SpanRecorder::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

Status SpanRecorder::WriteChromeTrace(const std::string& path) const {
  const std::vector<Span> spans = Snapshot();
  FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return Status::IOError("cannot write " + path);
  const int64_t origin = spans.empty() ? 0 : spans.front().start;
  std::fprintf(out, "{\"traceEvents\":[\n");
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(out,
                 "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                 "\"parent\":%llu,\"batch\":%llu}}%s\n",
                 s.name, s.tid, (s.start - origin) * 1e-3,
                 (s.end - s.start) * 1e-3,
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.batch),
                 i + 1 < spans.size() ? "," : "");
  }
  std::fprintf(out, "]}\n");
  if (std::fclose(out) != 0) return Status::IOError("cannot close " + path);
  return Status::OK();
}

// ---------------------------------------------------------------- TracedEnv

namespace {

class TracedFile : public RandomAccessFile {
 public:
  TracedFile(std::unique_ptr<RandomAccessFile> base, TracedEnv* env)
      : base_(std::move(base)), env_(env) {}

  Status Read(uint64_t offset, size_t n, char* scratch,
              Slice* out) const override {
    const int64_t start = NowNanos();
    Status status = base_->Read(offset, n, scratch, out);
    env_->recorder()->Record("storage.file_read", start, NowNanos());
    env_->counters().reads.fetch_add(1, std::memory_order_relaxed);
    return status;
  }
  Result<uint64_t> Size() const override { return base_->Size(); }

 private:
  std::unique_ptr<RandomAccessFile> base_;
  TracedEnv* env_;
};

class TracedWritableFile : public WritableFile {
 public:
  TracedWritableFile(std::unique_ptr<WritableFile> base, TracedEnv* env)
      : base_(std::move(base)), env_(env) {}

  Status Append(Slice data) override {
    const int64_t start = NowNanos();
    Status status = base_->Append(data);
    Count("storage.append", start, data.size());
    return status;
  }
  Status Flush() override {
    const int64_t start = NowNanos();
    Status status = base_->Flush();
    Count("storage.flush", start, 0);
    return status;
  }
  Status Close() override {
    const int64_t start = NowNanos();
    Status status = base_->Close();
    Count("storage.close", start, 0);
    return status;
  }
  uint64_t BytesWritten() const override { return base_->BytesWritten(); }

 private:
  void Count(const char* name, int64_t start, size_t bytes) {
    env_->recorder()->Record(name, start, NowNanos());
    env_->counters().write_ops.fetch_add(1, std::memory_order_relaxed);
    env_->counters().write_bytes.fetch_add(static_cast<int64_t>(bytes),
                                           std::memory_order_relaxed);
  }

  std::unique_ptr<WritableFile> base_;
  TracedEnv* env_;
};

/// Times each read from SubmitRead to the completion that carries its
/// user_data. Schedulers are single-owner, so the pending table needs no
/// lock.
class TracedIoScheduler : public IoScheduler {
 public:
  TracedIoScheduler(std::unique_ptr<IoScheduler> base, TracedEnv* env)
      : base_(std::move(base)), env_(env) {}

  Status SubmitRead(ReadRequest request) override {
    const uint64_t user_data = request.user_data;
    const int64_t start = NowNanos();
    Status status = base_->SubmitRead(std::move(request));
    if (status.ok()) pending_[user_data].push_back(start);
    return status;
  }
  Result<ReadCompletion> WaitCompletion() override {
    Result<ReadCompletion> completion = base_->WaitCompletion();
    if (completion.ok()) Complete(*completion);
    return completion;
  }
  std::optional<ReadCompletion> PollCompletion() override {
    std::optional<ReadCompletion> completion = base_->PollCompletion();
    if (completion.has_value()) Complete(*completion);
    return completion;
  }
  Result<std::optional<ReadCompletion>> WaitCompletionFor(
      int64_t timeout_nanos) override {
    auto completion = base_->WaitCompletionFor(timeout_nanos);
    if (completion.ok() && completion->has_value()) Complete(**completion);
    return completion;
  }
  int in_flight() const override { return base_->in_flight(); }
  const char* backend_name() const override { return base_->backend_name(); }
  IoSchedulerStats stats() const override { return base_->stats(); }

 private:
  void Complete(const ReadCompletion& completion) {
    auto it = pending_.find(completion.user_data);
    if (it == pending_.end() || it->second.empty()) return;
    const int64_t start = it->second.front();
    it->second.pop_front();
    if (it->second.empty()) pending_.erase(it);
    env_->recorder()->Record("storage.read", start, NowNanos());
    env_->counters().reads.fetch_add(1, std::memory_order_relaxed);
  }

  std::unique_ptr<IoScheduler> base_;
  TracedEnv* env_;
  std::unordered_map<uint64_t, std::deque<int64_t>> pending_;
};

}  // namespace

Result<std::unique_ptr<RandomAccessFile>> TracedEnv::NewRandomAccessFile(
    const std::string& path) {
  PCR_ASSIGN_OR_RETURN(auto file, base_->NewRandomAccessFile(path));
  return std::unique_ptr<RandomAccessFile>(
      new TracedFile(std::move(file), this));
}

Result<std::unique_ptr<WritableFile>> TracedEnv::NewWritableFile(
    const std::string& path) {
  PCR_ASSIGN_OR_RETURN(auto file, base_->NewWritableFile(path));
  return std::unique_ptr<WritableFile>(
      new TracedWritableFile(std::move(file), this));
}

std::unique_ptr<IoScheduler> TracedEnv::NewIoScheduler(
    const IoSchedulerOptions& options) {
  return std::make_unique<TracedIoScheduler>(base_->NewIoScheduler(options),
                                             this);
}

// ------------------------------------------------------- TracedRecordSource

Result<FetchPlan> TracedRecordSource::PlanFetch(
    int record, int scan_group, const FetchResident* resident) const {
  const int64_t start = NowNanos();
  Result<FetchPlan> plan = base_->PlanFetch(record, scan_group, resident);
  recorder_->Record("core.plan", start, NowNanos(), 0, record + 1);
  return plan;
}

Result<RawRecord> TracedRecordSource::CompleteFetch(const FetchPlan& plan,
                                                    std::string bytes) const {
  const int64_t start = NowNanos();
  Result<RawRecord> raw = base_->CompleteFetch(plan, std::move(bytes));
  recorder_->Record("core.complete", start, NowNanos(), 0, plan.record + 1);
  return raw;
}

Result<RecordBatch> TracedRecordSource::AssembleRecord(RawRecord raw) const {
  const int record = raw.record;
  const int64_t start = NowNanos();
  Result<RecordBatch> batch = base_->AssembleRecord(std::move(raw));
  recorder_->Record("core.assemble", start, NowNanos(), 0, record + 1);
  return batch;
}

// ---------------------------------------------------------------- Progress

ConsumerProgress* ProgressBoard::Add(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  consumers_.push_back(std::make_unique<ConsumerProgress>());
  consumers_.back()->name = name;
  return consumers_.back().get();
}

std::vector<std::string> ProgressBoard::Stalled(int64_t now,
                                                int64_t deadline_nanos) const {
  std::vector<std::string> stalled;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& c : consumers_) {
    const int64_t since = c->blocked_since.load(std::memory_order_acquire);
    if (since != 0 && now - since > deadline_nanos) {
      stalled.push_back(c->name);
    }
  }
  return stalled;
}

std::string ProgressBoard::Describe() const {
  std::string out;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& c : consumers_) {
    out += "  " + c->name + ": " +
           std::to_string(c->delivered.load(std::memory_order_relaxed)) +
           " batches delivered" +
           (c->blocked_since.load(std::memory_order_relaxed) != 0
                ? " (blocked)\n"
                : "\n");
  }
  return out;
}

void ProgressBoard::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  consumers_.clear();
}

ProgressBoard& Board() {
  // Never destroyed: the watchdog may read it while the process exits.
  static ProgressBoard* board = new ProgressBoard();
  return *board;
}

}  // namespace pcr::e2e
