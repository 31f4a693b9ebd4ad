#include "core/pcr_dataset.h"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <system_error>
#include <thread>

#include "jpeg/codec.h"
#include "jpeg/scan_parser.h"
#include "util/string_util.h"
#include "wire/wire.h"

namespace pcr {

namespace {

constexpr char kDbName[] = "metadata.kvlog";

// Wire fields for the per-record manifest entry.
constexpr int kRecFieldPath = 1;
constexpr int kRecFieldNumImages = 2;
constexpr int kRecFieldPrefixBytes = 3;
constexpr int kRecFieldFileBytes = 4;
constexpr int kRecFieldHeaderBytes = 5;

std::string RecordKey(int index) { return StrFormat("rec/%08d", index); }
std::string RecordFileName(int index) {
  return StrFormat("record-%06d.pcr", index);
}

}  // namespace

// ----------------------------------------------------------------- Writer

PcrDatasetWriter::PcrDatasetWriter(Env* env, std::string dir,
                                   PcrWriterOptions options)
    : env_(env), dir_(std::move(dir)), options_(options) {}

Result<std::unique_ptr<PcrDatasetWriter>> PcrDatasetWriter::Create(
    Env* env, const std::string& dir, const PcrWriterOptions& options) {
  if (options.images_per_record < 1) {
    return Status::InvalidArgument("images_per_record must be >= 1");
  }
  if (options.num_scan_groups < 1 ||
      options.num_scan_groups > kMaxScanGroups) {
    return Status::InvalidArgument("num_scan_groups out of range");
  }
  PCR_RETURN_IF_ERROR(env->CreateDir(dir));
  std::unique_ptr<PcrDatasetWriter> writer(
      new PcrDatasetWriter(env, dir, options));
  PCR_ASSIGN_OR_RETURN(writer->db_, KvStore::Open(env, dir + "/" + kDbName));
  return writer;
}

Status PcrDatasetWriter::AddImage(Slice jpeg, int64_t label) {
  if (finished_) return Status::FailedPrecondition("writer already finished");
  PCR_RETURN_IF_ERROR(status_);
  PCR_ASSIGN_OR_RETURN(auto index, jpeg::IndexScans(jpeg));
  if (!index.progressive && !options_.transcode_to_progressive) {
    return Status::InvalidArgument("baseline input with transcoding disabled");
  }
  StagedImage staged;
  staged.label = label;
  staged.bytes = jpeg.ToString();
  staged_.push_back(std::move(staged));
  ++images_added_;

  if (static_cast<int>(staged_.size()) >= options_.images_per_record) {
    return FlushRecord();
  }
  return Status::OK();
}

namespace {

// Ensures progressive form ("Our implementation uses JPEGTRAN to losslessly
// transform JPEG images into progressive JPEG images"), then compacts the
// image in place to its header followed by every scan in order. Scan s goes
// to group s; surplus scans merge into the last group, missing groups stay
// empty.
Status SplitIntoScanGroups(int num_groups, std::string* bytes,
                           size_t* header_size,
                           std::vector<uint64_t>* group_sizes) {
  PCR_ASSIGN_OR_RETURN(auto index, jpeg::IndexScans(*bytes));
  if (!index.progressive) {
    PCR_ASSIGN_OR_RETURN(std::string progressive,
                         jpeg::TranscodeToProgressive(*bytes));
    PCR_ASSIGN_OR_RETURN(index, jpeg::IndexScans(progressive));
    bytes->assign(progressive);  // Reuses the staged buffer when it fits.
  }
  // Scans only move towards the front, so the compaction runs in place.
  size_t end = index.header_end;
  group_sizes->assign(num_groups, 0);
  for (size_t s = 0; s < index.scans.size(); ++s) {
    const jpeg::ScanRange& scan = index.scans[s];
    std::memmove(bytes->data() + end, bytes->data() + scan.start,
                 scan.size());
    end += scan.size();
    (*group_sizes)[std::min<size_t>(s, num_groups - 1)] += scan.size();
  }
  bytes->resize(end);
  *header_size = index.header_end;
  return Status::OK();
}

}  // namespace

Status PcrDatasetWriter::FlushRecord() {
  PCR_RETURN_IF_ERROR(status_);
  if (staged_.empty()) return Status::OK();
  status_ = SplitStaged();
  if (status_.ok()) status_ = WriteRecord();
  return status_;
}

Status PcrDatasetWriter::SplitStaged() {
  // Workers claim images from one counter; the calling thread is one of
  // them. Each image's result lands in its own slot, so the output and the
  // returned error (the lowest failing index) do not depend on scheduling.
  const size_t n = staged_.size();
  std::vector<Status> statuses(n);
  std::atomic<size_t> next{0};
  auto work = [&] {
    for (size_t i; (i = next.fetch_add(1, std::memory_order_relaxed)) < n;) {
      StagedImage& image = staged_[i];
      statuses[i] = SplitIntoScanGroups(options_.num_scan_groups, &image.bytes,
                                        &image.header_size,
                                        &image.group_sizes);
    }
  };
  const size_t cores = std::max(1u, std::thread::hardware_concurrency());
  std::vector<std::thread> helpers;
  for (size_t t = 1; t < std::min(cores, n); ++t) {
    try {
      helpers.emplace_back(work);
    } catch (const std::system_error&) {
      break;  // Out of threads: those started, and this one, share the work.
    }
  }
  work();
  for (std::thread& helper : helpers) helper.join();
  for (Status& status : statuses) PCR_RETURN_IF_ERROR(status);
  return Status::OK();
}

Status PcrDatasetWriter::WriteRecord() {
  PcrHeader header;
  header.num_images = static_cast<int>(staged_.size());
  header.num_groups = options_.num_scan_groups;
  header.group_sizes.assign(options_.num_scan_groups,
                            std::vector<uint64_t>(staged_.size(), 0));
  for (size_t i = 0; i < staged_.size(); ++i) {
    header.labels.push_back(staged_[i].label);
    header.jpeg_headers.emplace_back(staged_[i].bytes.data(),
                                     staged_[i].header_size);
    for (int g = 0; g < options_.num_scan_groups; ++g) {
      header.group_sizes[g][i] = staged_[i].group_sizes[g];
    }
  }

  const std::string header_bytes = SerializePcrHeader(&header);
  const std::string file_name = RecordFileName(records_written_);
  const std::string path = dir_ + "/" + file_name;
  PCR_ASSIGN_OR_RETURN(auto file, env_->NewWritableFile(path));
  PCR_RETURN_IF_ERROR(file->Append(header_bytes));
  // Scan groups in quality order, each holding every image's delta.
  std::vector<size_t> offsets;
  for (const auto& staged : staged_) offsets.push_back(staged.header_size);
  for (int g = 0; g < options_.num_scan_groups; ++g) {
    for (size_t i = 0; i < staged_.size(); ++i) {
      const uint64_t size = staged_[i].group_sizes[g];
      PCR_RETURN_IF_ERROR(
          file->Append(Slice(staged_[i].bytes.data() + offsets[i], size)));
      offsets[i] += size;
    }
  }
  PCR_RETURN_IF_ERROR(file->Close());

  // Manifest entry with precomputed prefix byte counts so the loader can
  // issue a single partial sequential read per (record, scan group).
  wire::WireWriter entry;
  entry.PutString(kRecFieldPath, file_name);
  entry.PutUint64(kRecFieldNumImages, staged_.size());
  std::vector<uint64_t> prefix_bytes;
  for (int g = 1; g <= options_.num_scan_groups; ++g) {
    prefix_bytes.push_back(header.header_bytes +
                           header.PrefixPayloadBytes(g));
  }
  entry.PutPackedUint64(kRecFieldPrefixBytes, prefix_bytes);
  entry.PutUint64(kRecFieldFileBytes, prefix_bytes.back());
  // Header size lets the reader plan header and scan-group payload as
  // separate scatter-gather segments.
  entry.PutUint64(kRecFieldHeaderBytes, header.header_bytes);
  PCR_RETURN_IF_ERROR(
      db_->Put(RecordKey(records_written_), Slice(entry.buffer())));

  ++records_written_;
  staged_.clear();
  return Status::OK();
}

Status PcrDatasetWriter::Finish() {
  if (finished_) return Status::OK();
  PCR_RETURN_IF_ERROR(FlushRecord());
  wire::WireWriter meta;
  meta.PutUint64(1, records_written_);
  meta.PutUint64(2, images_added_);
  meta.PutUint64(3, options_.num_scan_groups);
  PCR_RETURN_IF_ERROR(db_->Put("meta", Slice(meta.buffer())));
  PCR_RETURN_IF_ERROR(db_->Flush());
  finished_ = true;
  return Status::OK();
}

// ----------------------------------------------------------------- Reader

Result<std::unique_ptr<PcrDataset>> PcrDataset::Open(Env* env,
                                                     const std::string& dir) {
  std::unique_ptr<PcrDataset> ds(new PcrDataset(env, dir));
  PCR_ASSIGN_OR_RETURN(auto db, KvStore::Open(env, dir + "/" + kDbName));

  PCR_ASSIGN_OR_RETURN(std::string meta_bytes, db->Get("meta"));
  int num_records = 0;
  {
    wire::WireReader reader((Slice(meta_bytes)));
    wire::WireField field;
    while (reader.Next(&field)) {
      if (field.field == 1) num_records = static_cast<int>(field.varint);
      if (field.field == 2) ds->num_images_ = static_cast<int>(field.varint);
      if (field.field == 3) ds->num_groups_ = static_cast<int>(field.varint);
    }
    PCR_RETURN_IF_ERROR(reader.status());
  }
  if (num_records <= 0 || ds->num_groups_ <= 0) {
    return Status::Corruption("pcr dataset: bad manifest meta");
  }

  ds->records_.reserve(num_records);
  for (int r = 0; r < num_records; ++r) {
    PCR_ASSIGN_OR_RETURN(std::string entry, db->Get(RecordKey(r)));
    RecordMeta meta;
    wire::WireReader reader((Slice(entry)));
    wire::WireField field;
    while (reader.Next(&field)) {
      switch (field.field) {
        case kRecFieldPath:
          meta.path = ds->dir_ + "/" + field.bytes.ToString();
          break;
        case kRecFieldNumImages:
          meta.num_images = static_cast<int>(field.varint);
          break;
        case kRecFieldPrefixBytes: {
          PCR_ASSIGN_OR_RETURN(
              meta.prefix_bytes,
              wire::WireReader::DecodePackedUint64(field.bytes));
          break;
        }
        case kRecFieldFileBytes:
          meta.file_bytes = field.varint;
          break;
        case kRecFieldHeaderBytes:
          meta.header_bytes = field.varint;
          break;
        default:
          break;
      }
    }
    PCR_RETURN_IF_ERROR(reader.status());
    if (meta.path.empty() ||
        static_cast<int>(meta.prefix_bytes.size()) != ds->num_groups_) {
      return Status::Corruption("pcr dataset: bad record entry");
    }
    ds->records_.push_back(std::move(meta));
  }
  return ds;
}

uint64_t PcrDataset::RecordReadBytes(int record, int scan_group) const {
  PCR_CHECK(record >= 0 && record < num_records());
  scan_group = std::clamp(scan_group, 1, num_groups_);
  return records_[record].prefix_bytes[scan_group - 1];
}

Result<FetchPlan> PcrDataset::PlanFetch(int record, int scan_group,
                                        const FetchResident* resident) const {
  if (record < 0 || record >= num_records()) {
    return Status::OutOfRange("record index out of range");
  }
  scan_group = std::clamp(scan_group, 1, num_groups_);
  const RecordMeta& meta = records_[record];
  const uint64_t want = meta.prefix_bytes[scan_group - 1];
  FetchPlan plan;
  plan.record = record;
  plan.scan_group = scan_group;
  plan.env = env_;

  // An in-memory prefix from an earlier fetch covers the file's first
  // prefix_bytes[g'-1] bytes; only the delta up to the requested group needs
  // I/O. Bytes shorter than the claimed group are ignored defensively.
  uint64_t covered = 0;
  if (resident != nullptr && resident->bytes != nullptr &&
      resident->scan_group >= 1) {
    const int have = std::min(resident->scan_group, num_groups_);
    const uint64_t have_bytes = meta.prefix_bytes[have - 1];
    if (resident->bytes->size() >= have_bytes) {
      covered = std::min(have_bytes, want);
    }
  }
  if (covered > 0) {
    plan.resident_bytes = resident->bytes;
    plan.segments.push_back(FetchSegment{meta.path, 0, covered, true});
    if (covered < want) {
      plan.segments.push_back(
          FetchSegment{meta.path, covered, want - covered, false});
    }
    return plan;
  }

  // Cold read: header and scan-group payload as separate segments. They are
  // adjacent on disk, so a vectored backend still serves them with one op,
  // while the split keeps each range individually skippable/cacheable.
  if (meta.header_bytes > 0 && meta.header_bytes < want) {
    plan.segments.push_back(
        FetchSegment{meta.path, 0, meta.header_bytes, false});
    plan.segments.push_back(FetchSegment{
        meta.path, meta.header_bytes, want - meta.header_bytes, false});
  } else {
    // Manifest predates the header-size field (or the prefix is all
    // header): one sequential read of the prefix.
    plan.segments.push_back(FetchSegment{meta.path, 0, want, false});
  }
  return plan;
}


Result<RecordBatch> PcrDataset::AssembleRecord(RawRecord raw) const {
  PCR_ASSIGN_OR_RETURN(
      PcrRecordContent content,
      AssembleRecordPrefix(Slice(raw.payload), raw.scan_group));
  RecordBatch batch;
  batch.labels = std::move(content.labels);
  batch.spans = std::move(content.spans);
  batch.backing = std::move(content.arena);
  batch.bytes_read = raw.bytes_read;
  return batch;
}

uint64_t PcrDataset::total_bytes() const {
  uint64_t total = 0;
  for (const auto& r : records_) total += r.file_bytes;
  return total;
}

}  // namespace pcr
