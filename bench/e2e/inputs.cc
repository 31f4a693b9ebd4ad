// Seeded inputs, the one-time `prepare` ingest, and the reference every
// delivered batch is checked against.
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <thread>

#include "core/pcr_dataset.h"
#include "data/dataset_spec.h"
#include "e2e.h"
#include "jpeg/codec.h"
#include "jpeg/reference_codec.h"
#include "util/crc32c.h"

namespace pcr::e2e {

namespace {

constexpr char kInputsMagic[8] = {'P', 'C', 'R', 'E', '2', 'E', 'I', 'N'};
constexpr int kGroups[] = {kPartialGroup, kFullGroup};

/// Runs fn(i) for i in [0, n) on `threads` threads; returns the first error.
template <typename Fn>
Status ParallelFor(int n, int threads, Fn fn) {
  std::atomic<int> next{0};
  std::mutex mu;
  Status first;
  std::vector<std::thread> pool;
  for (int t = 0; t < std::max(1, threads); ++t) {
    pool.emplace_back([&] {
      for (int i = next.fetch_add(1); i < n; i = next.fetch_add(1)) {
        Status status = fn(i);
        if (!status.ok()) {
          std::lock_guard<std::mutex> lock(mu);
          if (first.ok()) first = status;
          return;
        }
      }
    });
  }
  for (std::thread& t : pool) t.join();
  return first;
}

Status WriteInputs(const std::string& path, const Inputs& inputs) {
  std::ofstream out(path, std::ios::binary);
  out.write(kInputsMagic, sizeof(kInputsMagic));
  const uint32_t count = static_cast<uint32_t>(inputs.jpegs.size());
  out.write(reinterpret_cast<const char*>(&count), sizeof(count));
  for (size_t i = 0; i < inputs.jpegs.size(); ++i) {
    const int64_t label = inputs.labels[i];
    const uint32_t length = static_cast<uint32_t>(inputs.jpegs[i].size());
    out.write(reinterpret_cast<const char*>(&label), sizeof(label));
    out.write(reinterpret_cast<const char*>(&length), sizeof(length));
    out.write(inputs.jpegs[i].data(), length);
  }
  out.close();
  return out ? Status::OK() : Status::IOError("cannot write " + path);
}

Status WriteReference(const std::string& path, const Reference& ref) {
  std::ofstream out(path);
  out << "pcr-e2e-reference 1\n"
      << "images " << ref.num_images << " records " << ref.num_records
      << " per_record " << ref.images_per_record << "\n"
      << "input_jpeg_bytes " << ref.input_jpeg_bytes << "\n"
      << "dataset_bytes " << ref.dataset_bytes << "\n"
      << "max_record_pixel_bytes " << ref.max_record_pixel_bytes << "\n"
      << "dataset_pixel_bytes " << ref.dataset_pixel_bytes << "\n";
  for (size_t r = 0; r < ref.record_crc.size(); ++r) {
    out << "crc " << r << " " << ref.record_crc[r] << "\n";
  }
  for (const auto& [key, images] : ref.batches) {
    out << "batch " << key.first << " " << key.second << " " << images.size()
        << "\n";
    for (const RefImage& img : images) {
      out << img.label << " " << img.width << " " << img.height << " "
          << img.channels << " " << img.checksum << "\n";
    }
  }
  out.close();
  return out ? Status::OK() : Status::IOError("cannot write " + path);
}

/// Reference decode of one record at one group on the serial read path.
Result<std::vector<RefImage>> ReferenceBatch(PcrDataset* dataset, int record,
                                             int group) {
  PCR_ASSIGN_OR_RETURN(RecordBatch batch, dataset->ReadRecord(record, group));
  std::vector<RefImage> images;
  for (int i = 0; i < batch.size(); ++i) {
    PCR_ASSIGN_OR_RETURN(Image img,
                         jpeg::ReferenceCodec::Decode(batch.jpeg(i)));
    RefImage ref;
    ref.label = batch.labels[i];
    ref.width = static_cast<uint32_t>(img.width());
    ref.height = static_cast<uint32_t>(img.height());
    ref.channels = static_cast<uint32_t>(img.channels());
    ref.checksum = FoldPixels(img.data(), img.size_bytes());
    images.push_back(ref);
  }
  return images;
}

Status BuildSeedDir(const SeedDir& dir, uint64_t seed, int num_images,
                    int images_per_record, int threads) {
  DatasetSpec spec = DatasetSpec::ImageNetLike();
  spec.seed = seed;
  spec.num_images = num_images;
  spec.images_per_record = images_per_record;

  Inputs inputs;
  inputs.jpegs.resize(num_images);
  inputs.labels.resize(num_images);
  jpeg::EncodeOptions encode;
  encode.quality = spec.jpeg_quality;
  PCR_RETURN_IF_ERROR(ParallelFor(num_images, threads, [&](int i) {
    const int label = ClassForImage(spec, i);
    const Image img = GenerateImage(spec, label, spec.seed * 100000 + i);
    PCR_ASSIGN_OR_RETURN(inputs.jpegs[i], jpeg::Encode(img, encode));
    inputs.labels[i] = label;
    return Status::OK();
  }));
  PCR_RETURN_IF_ERROR(WriteInputs(dir.inputs(), inputs));

  // The writer transcodes baseline inputs itself; transcoding them here in
  // parallel first yields the same record bytes in a quarter of the time.
  std::vector<std::string> progressive(num_images);
  PCR_RETURN_IF_ERROR(ParallelFor(num_images, threads, [&](int i) {
    PCR_ASSIGN_OR_RETURN(progressive[i],
                         jpeg::TranscodeToProgressive(inputs.jpegs[i]));
    return Status::OK();
  }));
  Env* env = Env::Default();
  PcrWriterOptions writer_options;
  writer_options.images_per_record = spec.images_per_record;
  PCR_ASSIGN_OR_RETURN(auto writer,
                       PcrDatasetWriter::Create(env, dir.pcr(),
                                                writer_options));
  for (int i = 0; i < num_images; ++i) {
    PCR_RETURN_IF_ERROR(writer->AddImage(progressive[i], inputs.labels[i]));
  }
  PCR_RETURN_IF_ERROR(writer->Finish());

  PCR_ASSIGN_OR_RETURN(auto dataset, PcrDataset::Open(env, dir.pcr()));
  Reference ref;
  ref.num_images = dataset->num_images();
  ref.num_records = dataset->num_records();
  ref.images_per_record = images_per_record;
  ref.dataset_bytes = dataset->total_bytes();
  for (const std::string& jpeg : inputs.jpegs) {
    ref.input_jpeg_bytes += jpeg.size();
  }
  ref.record_crc.resize(ref.num_records);
  const int jobs = ref.num_records * static_cast<int>(std::size(kGroups));
  std::vector<std::vector<RefImage>> batches(jobs);
  PCR_RETURN_IF_ERROR(ParallelFor(jobs, threads, [&](int job) {
    const int record = job / static_cast<int>(std::size(kGroups));
    const int group = kGroups[job % std::size(kGroups)];
    PCR_ASSIGN_OR_RETURN(batches[job],
                         ReferenceBatch(dataset.get(), record, group));
    if (group == kFullGroup) {
      PCR_ASSIGN_OR_RETURN(RawRecord raw,
                           dataset->FetchRecord(record, kFullGroup));
      ref.record_crc[record] = crc32c::Value(Slice(raw.payload));
    }
    return Status::OK();
  }));
  for (int job = 0; job < jobs; ++job) {
    const int record = job / static_cast<int>(std::size(kGroups));
    const int group = kGroups[job % std::size(kGroups)];
    uint64_t pixel_bytes = 0;
    for (const RefImage& img : batches[job]) {
      pixel_bytes += static_cast<uint64_t>(img.width) * img.height *
                     img.channels;
    }
    ref.max_record_pixel_bytes =
        std::max(ref.max_record_pixel_bytes, pixel_bytes);
    if (group == kFullGroup) ref.dataset_pixel_bytes += pixel_bytes;
    ref.batches[{record, group}] = std::move(batches[job]);
  }
  return WriteReference(dir.reference(), ref);
}

}  // namespace

uint64_t FoldPixels(const uint8_t* data, uint64_t length) {
  constexpr uint64_t kMul = 0x9e3779b97f4a7c15ULL;
  uint64_t h = 0x243f6a8885a308d3ULL ^ length;
  uint64_t off = 0;
  for (; off + 8 <= length; off += 64) {
    uint64_t word;
    std::memcpy(&word, data + off, sizeof(word));
    h = (h ^ word) * kMul;
    h ^= h >> 29;
  }
  if (off < length) {
    uint64_t word = 0;
    std::memcpy(&word, data + off, static_cast<size_t>(length - off));
    h = (h ^ word) * kMul;
    h ^= h >> 29;
  }
  return h;
}

std::string CheckBatch(const Reference& ref, int record, int group,
                       const std::vector<int64_t>& labels,
                       const std::vector<ImageView>& images) {
  const auto it = ref.batches.find({record, group});
  if (it == ref.batches.end()) {
    return "no reference for record " + std::to_string(record) + " group " +
           std::to_string(group);
  }
  const std::vector<RefImage>& want = it->second;
  if (labels.size() != want.size() || images.size() != want.size()) {
    return "record " + std::to_string(record) + ": " +
           std::to_string(images.size()) + " images, want " +
           std::to_string(want.size());
  }
  for (size_t i = 0; i < want.size(); ++i) {
    const ImageView& got = images[i];
    const uint64_t checksum = FoldPixels(got.data, got.length);
    if (labels[i] != want[i].label || got.width != want[i].width ||
        got.height != want[i].height || got.channels != want[i].channels ||
        got.length != static_cast<uint64_t>(got.width) * got.height *
                          got.channels ||
        checksum != want[i].checksum) {
      return "record " + std::to_string(record) + " group " +
             std::to_string(group) + " image " + std::to_string(i) +
             " differs from the reference decode";
    }
  }
  return "";
}

Status Prepare(const SeedDir& dir, uint64_t seed, int num_images,
               int images_per_record, int threads) {
  namespace fs = std::filesystem;
  if (fs::exists(dir.reference())) return Status::OK();
  // Build beside the final directory and rename it into place, so an
  // interrupted prepare never leaves a half-built seed that looks complete.
  SeedDir staging{dir.root + ".tmp" + std::to_string(::getpid())};
  std::error_code ec;
  fs::remove_all(staging.root, ec);
  fs::create_directories(staging.root, ec);
  if (ec) return Status::IOError("cannot create " + staging.root);
  Status status =
      BuildSeedDir(staging, seed, num_images, images_per_record, threads);
  if (status.ok()) {
    fs::remove_all(dir.root, ec);
    fs::rename(staging.root, dir.root, ec);
    if (ec) status = Status::IOError("cannot rename into " + dir.root);
  }
  if (!status.ok()) fs::remove_all(staging.root, ec);
  return status;
}

Result<Reference> LoadReference(const SeedDir& dir) {
  std::ifstream in(dir.reference());
  if (!in) return Status::NotFound("no reference at " + dir.reference());
  Reference ref;
  std::string word;
  std::string version;
  in >> word >> version;
  if (word != "pcr-e2e-reference" || version != "1") {
    return Status::Corruption("bad reference header in " + dir.reference());
  }
  while (in >> word) {
    if (word == "images") {
      in >> ref.num_images >> word >> ref.num_records >> word >>
          ref.images_per_record;
      ref.record_crc.assign(std::max(0, ref.num_records), 0);
    } else if (word == "input_jpeg_bytes") {
      in >> ref.input_jpeg_bytes;
    } else if (word == "dataset_bytes") {
      in >> ref.dataset_bytes;
    } else if (word == "max_record_pixel_bytes") {
      in >> ref.max_record_pixel_bytes;
    } else if (word == "dataset_pixel_bytes") {
      in >> ref.dataset_pixel_bytes;
    } else if (word == "crc") {
      int record = -1;
      uint32_t crc = 0;
      in >> record >> crc;
      if (record < 0 || record >= ref.num_records) {
        return Status::Corruption("reference crc record out of range");
      }
      ref.record_crc[record] = crc;
    } else if (word == "batch") {
      int record = -1;
      int group = 0;
      size_t count = 0;
      in >> record >> group >> count;
      std::vector<RefImage>& images = ref.batches[{record, group}];
      images.resize(count);
      for (RefImage& img : images) {
        in >> img.label >> img.width >> img.height >> img.channels >>
            img.checksum;
      }
    } else {
      return Status::Corruption("unknown reference entry '" + word + "'");
    }
    if (!in) return Status::Corruption("truncated " + dir.reference());
  }
  if (ref.num_records <= 0 || ref.images_per_record <= 0 ||
      ref.batches.empty()) {
    return Status::Corruption("empty reference " + dir.reference());
  }
  return ref;
}

Result<Inputs> LoadInputs(const SeedDir& dir) {
  std::ifstream in(dir.inputs(), std::ios::binary);
  char magic[sizeof(kInputsMagic)] = {};
  uint32_t count = 0;
  in.read(magic, sizeof(magic));
  in.read(reinterpret_cast<char*>(&count), sizeof(count));
  if (!in || std::memcmp(magic, kInputsMagic, sizeof(magic)) != 0) {
    return Status::Corruption("bad inputs file " + dir.inputs());
  }
  Inputs inputs;
  for (uint32_t i = 0; i < count; ++i) {
    int64_t label = 0;
    uint32_t length = 0;
    in.read(reinterpret_cast<char*>(&label), sizeof(label));
    in.read(reinterpret_cast<char*>(&length), sizeof(length));
    if (!in || length > (64u << 20)) {
      return Status::Corruption("truncated inputs file " + dir.inputs());
    }
    std::string jpeg(length, '\0');
    in.read(jpeg.data(), length);
    if (!in) return Status::Corruption("truncated inputs file");
    inputs.labels.push_back(label);
    inputs.jpegs.push_back(std::move(jpeg));
  }
  return inputs;
}

}  // namespace pcr::e2e
