#include "data/dataset_builder.h"

#include <chrono>

#include "core/file_per_image.h"
#include "core/pcr_dataset.h"
#include "core/record_dataset.h"
#include "jpeg/codec.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace pcr {

namespace {

double NowSec() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

bool DatasetComplete(Env* env, const std::string& root,
                     const BuildFormats& formats) {
  auto has_manifest = [&](const std::string& dir) {
    return env->FileExists(dir + "/metadata.kvlog");
  };
  if (formats.pcr && !has_manifest(root + "/pcr")) return false;
  if (formats.record && !has_manifest(root + "/record")) return false;
  if (formats.file_per_image && !has_manifest(root + "/fpi")) return false;
  return true;
}

}  // namespace

std::string DefaultDatasetCacheRoot(const DatasetSpec& spec) {
  // Bump when the writers change what they put on disk (new manifest
  // fields, layout changes): the cache key must distinguish generations or
  // stale /tmp caches keep serving the old format. Generation 2 added the
  // per-record header-bytes manifest field (scatter-gather fetch plans).
  constexpr uint64_t kWriterFormatGeneration = 2;
  // Key on the parameters that change the generated bytes.
  uint64_t key = kWriterFormatGeneration * 7777777ULL +
                 spec.seed * 1000003ULL + spec.num_images * 131ULL +
                 spec.num_classes * 17ULL + spec.base_width * 7ULL +
                 spec.base_height + spec.jpeg_quality * 31ULL +
                 static_cast<uint64_t>(spec.noise_stddev * 8) * 257ULL +
                 static_cast<uint64_t>(spec.background_contrast * 4) * 11ULL;
  for (const BlobLevel& level : spec.levels) {
    key = key * 131ULL + static_cast<uint64_t>(level.radius_px * 16) +
          level.count * 31ULL + static_cast<uint64_t>(level.amplitude * 8) +
          level.classes_per_group * 7ULL;
  }
  return StrFormat("/tmp/pcr_dataset_cache/%s-%llu", spec.name.c_str(),
                   static_cast<unsigned long long>(key));
}

Result<BuiltDataset> BuildSyntheticDataset(Env* env, const std::string& root,
                                           const DatasetSpec& spec,
                                           const BuildFormats& formats) {
  BuiltDataset built;
  built.root = root;
  built.pcr_dir = root + "/pcr";
  built.record_dir = root + "/record";
  built.file_per_image_dir = root + "/fpi";

  if (DatasetComplete(env, root, formats)) return built;

  const double t_start = NowSec();
  PCR_RETURN_IF_ERROR(env->CreateDir(root));

  std::unique_ptr<PcrDatasetWriter> pcr_writer;
  std::unique_ptr<RecordDatasetWriter> record_writer;
  std::unique_ptr<FilePerImageWriter> fpi_writer;
  if (formats.pcr) {
    PcrWriterOptions options;
    options.images_per_record = spec.images_per_record;
    PCR_ASSIGN_OR_RETURN(pcr_writer,
                         PcrDatasetWriter::Create(env, built.pcr_dir, options));
  }
  if (formats.record) {
    RecordWriterOptions options;
    options.images_per_record = spec.images_per_record;
    PCR_ASSIGN_OR_RETURN(
        record_writer,
        RecordDatasetWriter::Create(env, built.record_dir, options));
  }
  if (formats.file_per_image) {
    PCR_ASSIGN_OR_RETURN(
        fpi_writer, FilePerImageWriter::Create(env, built.file_per_image_dir));
  }

  jpeg::EncodeOptions encode_options;
  encode_options.quality = spec.jpeg_quality;

  for (int i = 0; i < spec.num_images; ++i) {
    const int label = ClassForImage(spec, i);
    const Image img = GenerateImage(spec, label, spec.seed * 100000 + i);
    PCR_ASSIGN_OR_RETURN(std::string jpeg, jpeg::Encode(img, encode_options));
    if (pcr_writer != nullptr) {
      PCR_RETURN_IF_ERROR(pcr_writer->AddImage(Slice(jpeg), label));
    }
    if (record_writer != nullptr) {
      PCR_RETURN_IF_ERROR(record_writer->AddImage(Slice(jpeg), label));
    }
    if (fpi_writer != nullptr) {
      PCR_RETURN_IF_ERROR(fpi_writer->AddImage(Slice(jpeg), label));
    }
  }
  if (pcr_writer != nullptr) PCR_RETURN_IF_ERROR(pcr_writer->Finish());
  if (record_writer != nullptr) PCR_RETURN_IF_ERROR(record_writer->Finish());
  if (fpi_writer != nullptr) PCR_RETURN_IF_ERROR(fpi_writer->Finish());

  built.build_seconds = NowSec() - t_start;
  return built;
}

}  // namespace pcr
