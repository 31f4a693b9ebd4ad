// Figure 15 + §A.4: dataset encoding cost — static re-encoding at several
// qualities vs a single lossless PCR conversion, and the space-amplification
// comparison (the Progressive-GAN example: multiple static copies vs one
// PCR).
//
// Times here are real wall-clock times of our own codec on a subset of the
// ImageNet-like dataset; the paper's check is relative: one PCR conversion
// costs no more than ~2x ONE static re-encode (1.13x-2.05x there), far less
// than the sum over quality levels, and avoids any space amplification. The
// lossless transcode skips the DCT a re-encode pays, so here it can come in
// well under one static encode.
//
// The "PCR writer" rows time the same conversion as a dataset is written:
// PcrDatasetWriter into a RAM device, which transcodes each record's images
// on every core, against the serial transcode (plus scan index) the writer
// would run per image on one core.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <thread>

#include "bench_common.h"
#include "core/pcr_dataset.h"
#include "jpeg/codec.h"
#include "jpeg/scan_parser.h"
#include "storage/sim_env.h"

using namespace pcr;
using namespace pcr::bench;

namespace {
double NowSec() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}
}  // namespace

int main(int argc, char** argv) {
  pcr::bench::InitBench(argc, argv);
  printf("Figure 15 / §A.4: encoding time and space, static re-encoding vs "
         "PCR conversion\n\n");
  const DatasetSpec spec = DatasetSpec::ImageNetLike();
  // This bench times our own codec directly (no dataset cache), so the
  // central smoke clamps don't apply; shrink the sample here instead. The
  // writer rows keep two full records even under --smoke, so their ratio is
  // stable.
  const int sample = SmokeMode() ? 16 : 192;
  const int writer_sample = std::max(sample, 2 * spec.images_per_record);

  // Generate the source JPEGs once (plays the role of the original dataset);
  // the static and transcode rows use the first `sample`.
  std::vector<std::string> originals;
  double original_bytes = 0;
  for (int i = 0; i < writer_sample; ++i) {
    const Image img = GenerateImage(spec, ClassForImage(spec, i),
                                    spec.seed * 100000 + i);
    jpeg::EncodeOptions options;
    options.quality = spec.jpeg_quality;
    originals.push_back(jpeg::Encode(img, options).MoveValue());
    if (i < sample) original_bytes += originals.back().size();
  }
  const std::vector<std::string> writer_inputs = originals;
  originals.resize(sample);

  TablePrinter table({"conversion", "wall time (s)", "output bytes",
                      "space vs original"});
  double static_total_time = 0, static_total_bytes = 0;

  // Static re-encoding at the paper's quality ladder.
  for (int quality : {50, 75, 90, 95}) {
    const double t0 = NowSec();
    double bytes = 0;
    for (const auto& original : originals) {
      const Image img = jpeg::Decode(Slice(original)).MoveValue();
      jpeg::EncodeOptions options;
      options.quality = quality;
      bytes += jpeg::Encode(img, options).MoveValue().size();
    }
    const double elapsed = NowSec() - t0;
    static_total_time += elapsed;
    static_total_bytes += bytes;
    table.AddRow({StrFormat("static re-encode q=%d", quality),
                  StrFormat("%.2f", elapsed), HumanBytes(bytes),
                  StrFormat("%.2fx", bytes / original_bytes)});
  }

  // PCR conversion: one lossless transcode, all qualities served.
  double pcr_time, pcr_bytes = 0;
  {
    const double t0 = NowSec();
    for (const auto& original : originals) {
      pcr_bytes += jpeg::TranscodeToProgressive(original).MoveValue().size();
    }
    pcr_time = NowSec() - t0;
    table.AddRow({"PCR (lossless transcode)", StrFormat("%.2f", pcr_time),
                  HumanBytes(pcr_bytes),
                  StrFormat("%.2fx", pcr_bytes / original_bytes)});
  }
  // The same conversion through the dataset writer, best of three runs each:
  // serial transcode + scan index on this thread, then PcrDatasetWriter
  // (transcodes in parallel at each record flush) into a RAM device.
  double serial_time = 1e30, writer_time = 1e30, writer_bytes = 0;
  for (int rep = 0; rep < 3; ++rep) {
    double t0 = NowSec();
    for (const auto& original : writer_inputs) {
      const std::string progressive =
          jpeg::TranscodeToProgressive(original).MoveValue();
      PCR_CHECK(jpeg::IndexScans(progressive).ok());
    }
    serial_time = std::min(serial_time, NowSec() - t0);

    VirtualClock clock;
    SimEnv env(DeviceProfile::Ram(), &clock);
    PcrWriterOptions options;
    options.images_per_record = spec.images_per_record;
    t0 = NowSec();
    auto writer = PcrDatasetWriter::Create(&env, "fig15", options).MoveValue();
    for (size_t i = 0; i < writer_inputs.size(); ++i) {
      PCR_CHECK(writer->AddImage(Slice(writer_inputs[i]), i % 10).ok());
    }
    PCR_CHECK(writer->Finish().ok());
    writer_time = std::min(writer_time, NowSec() - t0);
    writer_bytes = 0;
    for (int r = 0; r < writer->records_written(); ++r) {
      writer_bytes += env.GetFileSize(StrFormat("fig15/record-%06d.pcr", r))
                          .MoveValue();
    }
  }
  const int cores =
      static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  double writer_input_bytes = 0;
  for (const auto& input : writer_inputs) writer_input_bytes += input.size();
  table.AddRow({StrFormat("serial transcode + index, %d images",
                          writer_sample),
                StrFormat("%.2f", serial_time), "-", "-"});
  table.AddRow({StrFormat("PCR writer, %d images, %d cores", writer_sample,
                          cores),
                StrFormat("%.2f", writer_time), HumanBytes(writer_bytes),
                StrFormat("%.2fx", writer_bytes / writer_input_bytes)});
  table.AddRow({"static total (4 qualities)",
                StrFormat("%.2f", static_total_time),
                HumanBytes(static_total_bytes),
                StrFormat("%.2fx", static_total_bytes / original_bytes)});
  table.Print();

  ReportMetric("static_reencode_total/wall_seconds", sample * 4,
               static_total_time, static_total_bytes,
               sample * 4 / static_total_time);
  ReportMetric("pcr_transcode/wall_seconds", sample, pcr_time, pcr_bytes,
               sample / pcr_time);
  // The writer-vs-serial ratio gates parallel transcode; one core has
  // nothing to gain, so the rates are left out there and the check skips.
  if (cores >= 2) {
    ReportMetric("writer/images_per_sec", writer_sample, writer_time,
                 writer_bytes, writer_sample / writer_time);
    ReportMetric("serial_transcode/images_per_sec", writer_sample,
                 serial_time, 0, writer_sample / serial_time);
  }
  printf("\nPCR writer vs serial transcode: %.2fx images/s on %d cores\n",
         serial_time / writer_time, cores);
  printf("\nPCR vs one static encode: %.2fx time (paper: one PCR conversion "
         "costs no more than ~2x one static encode; measured there "
         "1.13x-2.05x)\n",
         pcr_time / (static_total_time / 4));
  printf("PCR vs all static encodes: %.2fx time, %.2fx space\n",
         pcr_time / static_total_time, pcr_bytes / static_total_bytes);
  printf("paper check: one PCR conversion serves every quality; the static "
         "approach pays each ladder step in both time and space "
         "(1.5x-40x amplification in the paper's §A.4 example).\n");
  return 0;
}
