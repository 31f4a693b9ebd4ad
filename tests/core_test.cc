// Tests for the PCR core: header serialization, prefix assembly, the writer
// and reader, the baseline formats, and format-level invariants
// (property-style over several record/image shapes).
#include <gtest/gtest.h>

#include <chrono>

#include "core/file_per_image.h"
#include "core/pcr_dataset.h"
#include "core/pcr_format.h"
#include "core/record_dataset.h"
#include "data/dataset_spec.h"
#include "jpeg/codec.h"
#include "jpeg/scan_parser.h"
#include "storage/sim_env.h"
#include "util/crc32c.h"
#include "util/random.h"
#include "util/string_util.h"

namespace pcr {
namespace {

std::string MakeJpeg(int w, int h, uint64_t seed, bool progressive) {
  DatasetSpec spec = DatasetSpec::TestTiny();
  spec.base_width = w;
  spec.base_height = h;
  spec.size_jitter = 0;
  const Image img = GenerateImage(spec, static_cast<int>(seed % 3), seed);
  jpeg::EncodeOptions options;
  options.quality = 85;
  options.progressive = progressive;
  return jpeg::Encode(img, options).MoveValue();
}

// ------------------------------------------------------------- Header

TEST(PcrFormat, HeaderRoundTrip) {
  PcrHeader header;
  header.num_images = 3;
  header.num_groups = 4;
  header.labels = {7, -2, 0};
  header.jpeg_headers = {"HDR0", "HDR11", "H"};
  header.group_sizes = {
      {10, 20, 30}, {1, 2, 3}, {0, 0, 5}, {100, 200, 300}};
  const std::string bytes = SerializePcrHeader(&header);
  EXPECT_EQ(header.header_bytes, bytes.size());

  const PcrHeader parsed = ParsePcrHeader(Slice(bytes)).MoveValue();
  EXPECT_EQ(parsed.num_images, 3);
  EXPECT_EQ(parsed.num_groups, 4);
  EXPECT_EQ(parsed.labels, header.labels);
  EXPECT_EQ(parsed.jpeg_headers, header.jpeg_headers);
  EXPECT_EQ(parsed.group_sizes, header.group_sizes);
  EXPECT_EQ(parsed.GroupStart(0), 0u);
  EXPECT_EQ(parsed.GroupStart(1), 60u);
  EXPECT_EQ(parsed.GroupStart(2), 66u);
  EXPECT_EQ(parsed.PrefixPayloadBytes(4), 671u);
}

TEST(PcrFormat, RejectsBadMagic) {
  EXPECT_FALSE(ParsePcrHeader(Slice("XXXX12345")).ok());
  EXPECT_FALSE(ParsePcrHeader(Slice("PC")).ok());
}

TEST(PcrFormat, RejectsInconsistentHeader) {
  PcrHeader header;
  header.num_images = 2;
  header.num_groups = 1;
  header.labels = {1};  // Wrong count.
  header.jpeg_headers = {"a", "b"};
  header.group_sizes = {{1, 2}};
  const std::string bytes = SerializePcrHeader(&header);
  EXPECT_TRUE(ParsePcrHeader(Slice(bytes)).status().IsCorruption());
}

TEST(PcrFormat, AssembleRejectsShortPrefix) {
  PcrHeader header;
  header.num_images = 1;
  header.num_groups = 2;
  header.labels = {0};
  header.jpeg_headers = {"HD"};
  header.group_sizes = {{4}, {4}};
  std::string file = SerializePcrHeader(&header);
  file += "abcd";  // Only group 1 payload present.
  EXPECT_TRUE(AssembleRecordPrefix(Slice(file), 2).status().IsOutOfRange());
  EXPECT_TRUE(AssembleRecordPrefix(Slice(file), 1).ok());
}

// ------------------------------------------------------------- Writer/Reader

class PcrDatasetShapes
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(PcrDatasetShapes, WriteReadInvariants) {
  const auto [num_images, images_per_record] = GetParam();
  VirtualClock clock;
  SimEnv env(DeviceProfile::Ram(), &clock);

  PcrWriterOptions options;
  options.images_per_record = images_per_record;
  auto writer = PcrDatasetWriter::Create(&env, "ds", options).MoveValue();
  std::vector<int64_t> labels;
  for (int i = 0; i < num_images; ++i) {
    const std::string jpeg =
        MakeJpeg(40 + 8 * (i % 3), 32 + 8 * (i % 2), i, i % 2 == 0);
    labels.push_back(i % 5);
    ASSERT_TRUE(writer->AddImage(Slice(jpeg), labels.back()).ok());
  }
  ASSERT_TRUE(writer->Finish().ok());

  auto ds = PcrDataset::Open(&env, "ds").MoveValue();
  EXPECT_EQ(ds->num_images(), num_images);
  const int expected_records =
      (num_images + images_per_record - 1) / images_per_record;
  EXPECT_EQ(ds->num_records(), expected_records);

  // Property: prefix bytes strictly increase with scan group; every image
  // decodes at every group; labels round-trip in order.
  int seen = 0;
  for (int r = 0; r < ds->num_records(); ++r) {
    uint64_t prev = 0;
    for (int g = 1; g <= ds->num_scan_groups(); ++g) {
      EXPECT_GT(ds->RecordReadBytes(r, g), prev);
      prev = ds->RecordReadBytes(r, g);
    }
    auto batch = ds->ReadRecord(r, 3).MoveValue();
    for (int i = 0; i < batch.size(); ++i) {
      EXPECT_EQ(batch.labels[i], labels[seen + i]);
      auto decoded = jpeg::DecodeFull(batch.jpeg(i));
      ASSERT_TRUE(decoded.ok()) << decoded.status();
      EXPECT_GE(decoded->scans_decoded, 1);
    }
    seen += batch.size();
  }
  EXPECT_EQ(seen, num_images);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, PcrDatasetShapes,
    ::testing::Values(std::make_tuple(1, 1), std::make_tuple(5, 2),
                      std::make_tuple(8, 8), std::make_tuple(9, 4),
                      std::make_tuple(16, 16)));

TEST(PcrDatasetWriter, RejectsBaselineWhenTranscodeDisabled) {
  VirtualClock clock;
  SimEnv env(DeviceProfile::Ram(), &clock);
  PcrWriterOptions options;
  options.transcode_to_progressive = false;
  auto writer = PcrDatasetWriter::Create(&env, "ds", options).MoveValue();
  const std::string baseline = MakeJpeg(40, 32, 1, /*progressive=*/false);
  EXPECT_TRUE(writer->AddImage(Slice(baseline), 0)
                  .IsInvalidArgument());
  const std::string progressive = MakeJpeg(40, 32, 1, /*progressive=*/true);
  EXPECT_TRUE(writer->AddImage(Slice(progressive), 0).ok());
}

TEST(PcrDatasetWriter, RejectsGarbageImage) {
  VirtualClock clock;
  SimEnv env(DeviceProfile::Ram(), &clock);
  auto writer =
      PcrDatasetWriter::Create(&env, "ds", PcrWriterOptions{}).MoveValue();
  EXPECT_FALSE(writer->AddImage(Slice("not a jpeg"), 0).ok());
}

// A baseline input at the edge of JPEG's value range (15-bit DC
// differences and AC magnitudes) still transcodes into a record that reads
// back to the input's coefficients: the default script's point transform
// keeps every progressive pass within 15 bits.
TEST(PcrDatasetWriter, FullRangeCoefficientsStayReadable) {
  jpeg::JpegData data =
      jpeg::DecodeToCoefficients(MakeJpeg(48, 40, 7, /*progressive=*/false))
          .MoveValue();
  data.coefficients.block(0, 0, 0)[0] = 32767;
  data.coefficients.block(0, 1, 0)[0] = 0;
  data.coefficients.block(0, 2, 0)[9] = -32767;
  data.coefficients.block(1, 0, 0)[63] = 32767;
  const std::string baseline =
      jpeg::EncodeFromData(data, false, {}, /*optimize_huffman=*/true)
          .MoveValue();

  VirtualClock clock;
  SimEnv env(DeviceProfile::Ram(), &clock);
  auto writer =
      PcrDatasetWriter::Create(&env, "ds", PcrWriterOptions{}).MoveValue();
  ASSERT_TRUE(writer->AddImage(Slice(baseline), 3).ok());
  ASSERT_TRUE(writer->Finish().ok());
  auto ds = PcrDataset::Open(&env, "ds").MoveValue();
  auto batch = ds->ReadRecord(0, ds->num_scan_groups()).MoveValue();
  ASSERT_EQ(batch.size(), 1);
  auto read = jpeg::DecodeToCoefficients(batch.jpeg(0));
  ASSERT_TRUE(read.ok()) << read.status();
  EXPECT_TRUE(read->frame.progressive);
  for (size_t c = 0; c < data.frame.components.size(); ++c) {
    const auto& info = data.frame.components[c];
    for (int by = 0; by < info.height_blocks; ++by) {
      for (int bx = 0; bx < info.width_blocks; ++bx) {
        ASSERT_EQ(read->coefficients.block(static_cast<int>(c), bx, by),
                  data.coefficients.block(static_cast<int>(c), bx, by))
            << "comp " << c << " block (" << bx << "," << by << ")";
      }
    }
  }
}

// ------------------------------------------------------------- Writer bytes

// CRC32C over a sequence of files, each prefixed by its length so that bytes
// moving across a file boundary still change the digest.
class FileDigest {
 public:
  void Add(const std::string& bytes) {
    const uint64_t n = bytes.size();
    crc_ = crc32c::Extend(crc_, &n, sizeof(n));
    crc_ = crc32c::Extend(crc_, bytes.data(), bytes.size());
  }
  uint32_t value() const { return crc_; }

 private:
  uint32_t crc_ = 0;
};

// Baseline inputs (transcoded by the writer) interleaved with progressive
// ones (split as they are), in four shapes.
std::vector<std::string> MixedInputs(int n) {
  std::vector<std::string> inputs;
  for (int i = 0; i < n; ++i) {
    inputs.push_back(MakeJpeg(40 + 16 * (i % 4), 32 + 8 * (i % 3), 100 + i,
                              /*progressive=*/i % 3 == 2));
  }
  return inputs;
}

// The writer's output is pinned byte for byte: every .pcr file, in record
// order, and the manifest log. The digests were recorded from the serial
// writer that transcoded inside AddImage; staging inputs and transcoding a
// record's images in parallel at flush must reproduce them unchanged.
TEST(PcrDatasetWriter, OutputIsByteStable) {
  struct Case {
    int images_per_record;
    int records;
    uint32_t records_crc;
    uint32_t manifest_crc;
  };
  const Case cases[] = {
      {1, 11, 0x774ee0e4u, 0x94538ef1u},
      {3, 4, 0x4421b1cau, 0x0fc27debu},   // 3 + 3 + 3 + 2.
      {64, 1, 0x1605d573u, 0xbb3e27a8u},  // One partial record.
  };
  const std::vector<std::string> inputs = MixedInputs(11);
  for (const Case& c : cases) {
    VirtualClock clock;
    SimEnv env(DeviceProfile::Ram(), &clock);
    PcrWriterOptions options;
    options.images_per_record = c.images_per_record;
    auto writer = PcrDatasetWriter::Create(&env, "ds", options).MoveValue();
    for (size_t i = 0; i < inputs.size(); ++i) {
      ASSERT_TRUE(writer->AddImage(Slice(inputs[i]), i % 7).ok());
    }
    ASSERT_TRUE(writer->Finish().ok());
    ASSERT_EQ(writer->records_written(), c.records);

    FileDigest records;
    for (int r = 0; r < c.records; ++r) {
      std::string bytes;
      ASSERT_TRUE(env.ReadFileToString(
                         StrFormat("ds/record-%06d.pcr", r), &bytes)
                      .ok());
      records.Add(bytes);
    }
    std::string manifest;
    ASSERT_TRUE(env.ReadFileToString("ds/metadata.kvlog", &manifest).ok());
    FileDigest manifest_digest;
    manifest_digest.Add(manifest);
    EXPECT_EQ(records.value(), c.records_crc)
        << "images_per_record " << c.images_per_record;
    EXPECT_EQ(manifest_digest.value(), c.manifest_crc)
        << "images_per_record " << c.images_per_record;
  }
}

// ------------------------------------------------------------- Writer errors

// Offset of the first SOS marker's entropy-coded data.
size_t EntropyStart(const std::string& jpeg) {
  const size_t sos = jpeg.find("\xFF\xDA");
  PCR_CHECK(sos != std::string::npos);
  const size_t length = (static_cast<uint8_t>(jpeg[sos + 2]) << 8) |
                        static_cast<uint8_t>(jpeg[sos + 3]);
  return sos + 2 + length;
}

// A baseline JPEG whose markers and tables are intact but whose entropy
// data reads as all one bits (0xFF with its stuffed zero), a prefix no
// Huffman code has: IndexScans accepts it, the transcode's decode fails.
std::string CorruptEntropy(std::string jpeg) {
  const size_t end = jpeg::IndexScans(jpeg).MoveValue().scans[0].end;
  for (size_t p = EntropyStart(jpeg); p < end; ++p) {
    jpeg[p] = (p + 1 < end && (p - EntropyStart(jpeg)) % 2 == 0) ? '\xFF'
                                                                 : '\0';
  }
  return jpeg;
}

// A baseline JPEG whose scan selects Huffman slot 3, which no DHT defines:
// a different transcode error from CorruptEntropy's.
std::string UndefinedTable(std::string jpeg) {
  jpeg[jpeg.find("\xFF\xDA") + 6] = '\x33';  // First component's Td/Ta.
  return jpeg;
}

TEST(PcrDatasetWriter, TranscodeErrorSurfacesWhenItsRecordFills) {
  VirtualClock clock;
  SimEnv env(DeviceProfile::Ram(), &clock);
  PcrWriterOptions options;
  options.images_per_record = 8;
  auto writer = PcrDatasetWriter::Create(&env, "ds", options).MoveValue();
  const std::vector<std::string> good = MixedInputs(8);
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(writer->AddImage(Slice(good[i]), i).ok());
  }
  ASSERT_EQ(writer->records_written(), 1);
  std::string record0;
  ASSERT_TRUE(env.ReadFileToString("ds/record-000000.pcr", &record0).ok());

  const std::string bad =
      CorruptEntropy(MakeJpeg(48, 40, 50, /*progressive=*/false));
  ASSERT_TRUE(jpeg::IndexScans(bad).ok());
  const Status serial = jpeg::TranscodeToProgressive(bad).status();
  ASSERT_FALSE(serial.ok());

  // The 5th image is bad; the 8th AddImage runs the record's transcodes and
  // returns the error the serial writer returned for it.
  for (int i = 0; i < 7; ++i) {
    ASSERT_TRUE(writer->AddImage(Slice(i == 4 ? bad : good[i]), i).ok()) << i;
  }
  EXPECT_EQ(writer->AddImage(Slice(good[7]), 7).ToString(),
            serial.ToString());

  // The writer stays failed; the failing record is never written, and the
  // record before it is untouched.
  EXPECT_EQ(writer->AddImage(Slice(good[0]), 0).ToString(),
            serial.ToString());
  EXPECT_EQ(writer->Finish().ToString(), serial.ToString());
  EXPECT_EQ(writer->Finish().ToString(), serial.ToString());
  EXPECT_EQ(writer->records_written(), 1);
  EXPECT_FALSE(env.FileExists("ds/record-000001.pcr"));
  std::string reread;
  ASSERT_TRUE(env.ReadFileToString("ds/record-000000.pcr", &reread).ok());
  EXPECT_EQ(reread, record0);
}

TEST(PcrDatasetWriter, TranscodeErrorAtFinishFailsIt) {
  VirtualClock clock;
  SimEnv env(DeviceProfile::Ram(), &clock);
  auto writer =
      PcrDatasetWriter::Create(&env, "ds", PcrWriterOptions{}).MoveValue();
  const std::string bad =
      CorruptEntropy(MakeJpeg(48, 40, 51, /*progressive=*/false));
  ASSERT_TRUE(writer->AddImage(Slice(MakeJpeg(40, 32, 1, false)), 0).ok());
  ASSERT_TRUE(writer->AddImage(Slice(bad), 1).ok());
  const Status status = writer->Finish();
  EXPECT_EQ(status.ToString(),
            jpeg::TranscodeToProgressive(bad).status().ToString());
  EXPECT_FALSE(env.FileExists("ds/record-000000.pcr"));
  EXPECT_FALSE(PcrDataset::Open(&env, "ds").ok());
}

// With several bad images in one record, the lowest input index's error is
// returned, whichever worker finishes first.
TEST(PcrDatasetWriter, LowestIndexErrorWins) {
  const std::string entropy =
      CorruptEntropy(MakeJpeg(64, 48, 60, /*progressive=*/false));
  const std::string table =
      UndefinedTable(MakeJpeg(64, 48, 61, /*progressive=*/false));
  const Status entropy_error = jpeg::TranscodeToProgressive(entropy).status();
  const Status table_error = jpeg::TranscodeToProgressive(table).status();
  ASSERT_FALSE(entropy_error.ok());
  ASSERT_FALSE(table_error.ok());
  ASSERT_NE(entropy_error.ToString(), table_error.ToString());

  const std::vector<std::string> good = MixedInputs(8);
  for (const bool entropy_first : {true, false}) {
    VirtualClock clock;
    SimEnv env(DeviceProfile::Ram(), &clock);
    PcrWriterOptions options;
    options.images_per_record = 8;
    auto writer = PcrDatasetWriter::Create(&env, "ds", options).MoveValue();
    Status last;
    for (int i = 0; i < 8; ++i) {
      Slice input(good[i]);
      if (i == 2) input = Slice(entropy_first ? entropy : table);
      if (i == 6) input = Slice(entropy_first ? table : entropy);
      last = writer->AddImage(input, i);
    }
    EXPECT_EQ(last.ToString(), (entropy_first ? entropy_error : table_error)
                                   .ToString());
  }
}

// Input that does not parse is rejected by its own AddImage, is not staged,
// and does not fail the writer.
TEST(PcrDatasetWriter, GarbageFailsAtItsOwnAddImage) {
  VirtualClock clock;
  SimEnv env(DeviceProfile::Ram(), &clock);
  PcrWriterOptions options;
  options.images_per_record = 4;
  auto writer = PcrDatasetWriter::Create(&env, "ds", options).MoveValue();
  const std::vector<std::string> good = MixedInputs(4);
  ASSERT_TRUE(writer->AddImage(Slice(good[0]), 0).ok());
  ASSERT_TRUE(writer->AddImage(Slice(good[1]), 1).ok());
  EXPECT_FALSE(writer->AddImage(Slice("not a jpeg"), 9).ok());
  ASSERT_TRUE(writer->AddImage(Slice(good[2]), 2).ok());
  ASSERT_TRUE(writer->AddImage(Slice(good[3]), 3).ok());
  EXPECT_EQ(writer->records_written(), 1);
  ASSERT_TRUE(writer->Finish().ok());
  auto ds = PcrDataset::Open(&env, "ds").MoveValue();
  EXPECT_EQ(ds->num_images(), 4);
  auto batch = ds->ReadRecord(0, 1).MoveValue();
  EXPECT_EQ(batch.labels, (std::vector<int64_t>{0, 1, 2, 3}));
}

// The writer owns copies of its staged inputs: the caller's bytes may die
// as soon as AddImage returns.
TEST(PcrDatasetWriter, StagedInputsOutliveTheCallersBytes) {
  const std::vector<std::string> inputs = MixedInputs(6);
  std::string want;
  std::string got;
  for (const bool reuse_buffer : {false, true}) {
    VirtualClock clock;
    SimEnv env(DeviceProfile::Ram(), &clock);
    PcrWriterOptions options;
    options.images_per_record = 6;
    auto writer = PcrDatasetWriter::Create(&env, "ds", options).MoveValue();
    std::string buffer;
    for (int i = 0; i < 6; ++i) {
      if (!reuse_buffer) {
        ASSERT_TRUE(writer->AddImage(Slice(inputs[i]), i).ok());
        continue;
      }
      buffer = inputs[i];
      ASSERT_TRUE(writer->AddImage(Slice(buffer), i).ok());
      buffer.assign(buffer.size(), '\0');
    }
    ASSERT_TRUE(writer->Finish().ok());
    ASSERT_TRUE(env.ReadFileToString("ds/record-000000.pcr",
                                     reuse_buffer ? &got : &want)
                    .ok());
  }
  EXPECT_EQ(got, want);
}

// Destroying a writer mid-record, without Finish, drops the staged images:
// nothing more is written and no thread outlives the writer.
TEST(PcrDatasetWriter, DestroyMidRecordWritesNothingMore) {
  VirtualClock clock;
  SimEnv env(DeviceProfile::Ram(), &clock);
  PcrWriterOptions options;
  options.images_per_record = 4;
  auto writer = PcrDatasetWriter::Create(&env, "ds", options).MoveValue();
  const std::vector<std::string> inputs = MixedInputs(6);
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(writer->AddImage(Slice(inputs[i]), i).ok());
  }
  const auto start = std::chrono::steady_clock::now();
  writer.reset();
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(5));
  EXPECT_TRUE(env.FileExists("ds/record-000000.pcr"));
  EXPECT_FALSE(env.FileExists("ds/record-000001.pcr"));
}

TEST(PcrDataset, OpenFailsOnMissingManifest) {
  VirtualClock clock;
  SimEnv env(DeviceProfile::Ram(), &clock);
  EXPECT_FALSE(PcrDataset::Open(&env, "missing").ok());
}

TEST(PcrDataset, ScanGroupClamped) {
  VirtualClock clock;
  SimEnv env(DeviceProfile::Ram(), &clock);
  PcrWriterOptions options;
  options.images_per_record = 2;
  auto writer = PcrDatasetWriter::Create(&env, "ds", options).MoveValue();
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(
        writer->AddImage(Slice(MakeJpeg(40, 32, i, false)), i).ok());
  }
  ASSERT_TRUE(writer->Finish().ok());
  auto ds = PcrDataset::Open(&env, "ds").MoveValue();
  // Group 0 and 99 clamp to [1, 10].
  EXPECT_EQ(ds->RecordReadBytes(0, 0), ds->RecordReadBytes(0, 1));
  EXPECT_EQ(ds->RecordReadBytes(0, 99), ds->RecordReadBytes(0, 10));
  EXPECT_TRUE(ds->ReadRecord(0, 0).ok());
}

// ------------------------------------------------------------- Baselines

TEST(RecordDataset, RoundTripsImagesAndLabels) {
  VirtualClock clock;
  SimEnv env(DeviceProfile::Ram(), &clock);
  RecordWriterOptions options;
  options.images_per_record = 3;
  auto writer =
      RecordDatasetWriter::Create(&env, "rec", options).MoveValue();
  std::vector<std::string> jpegs;
  for (int i = 0; i < 7; ++i) {
    jpegs.push_back(MakeJpeg(40, 32, i, false));
    ASSERT_TRUE(writer->AddImage(Slice(jpegs.back()), 100 + i).ok());
  }
  ASSERT_TRUE(writer->Finish().ok());

  auto ds = RecordDataset::Open(&env, "rec").MoveValue();
  EXPECT_EQ(ds->num_records(), 3);  // 3 + 3 + 1.
  EXPECT_EQ(ds->num_images(), 7);
  int seen = 0;
  for (int r = 0; r < ds->num_records(); ++r) {
    auto batch = ds->ReadRecord(r, 1).MoveValue();
    for (int i = 0; i < batch.size(); ++i) {
      EXPECT_EQ(batch.labels[i], 100 + seen);
      EXPECT_EQ(batch.jpeg(i).ToString(), jpegs[seen]);  // Byte-identical.
      ++seen;
    }
  }
  EXPECT_EQ(seen, 7);
}

TEST(FilePerImageDataset, OneFilePerImage) {
  VirtualClock clock;
  SimEnv env(DeviceProfile::Ram(), &clock);
  auto writer = FilePerImageWriter::Create(&env, "fpi").MoveValue();
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(
        writer->AddImage(Slice(MakeJpeg(40, 32, i, false)), i * 10).ok());
  }
  ASSERT_TRUE(writer->Finish().ok());

  auto ds = FilePerImageDataset::Open(&env, "fpi").MoveValue();
  EXPECT_EQ(ds->num_records(), 4);
  for (int i = 0; i < 4; ++i) {
    auto batch = ds->ReadRecord(i, 1).MoveValue();
    EXPECT_EQ(batch.size(), 1);
    EXPECT_EQ(batch.labels[0], i * 10);
    EXPECT_TRUE(jpeg::Decode(batch.jpeg(0)).ok());
  }
}

// ------------------------------------------------------------- Fetch plans

// Builds a small PCR dataset and returns the opened reader.
std::unique_ptr<PcrDataset> MakePcrDataset(Env* env, int num_images = 4) {
  PcrWriterOptions options;
  options.images_per_record = 2;
  auto writer = PcrDatasetWriter::Create(env, "plans", options).MoveValue();
  for (int i = 0; i < num_images; ++i) {
    PCR_CHECK(writer->AddImage(Slice(MakeJpeg(40, 32, i, true)), i).ok());
  }
  PCR_CHECK(writer->Finish().ok());
  return PcrDataset::Open(env, "plans").MoveValue();
}

TEST(FetchPlans, PcrSplitsHeaderAndPayload) {
  VirtualClock clock;
  SimEnv env(DeviceProfile::Ram(), &clock);
  auto ds = MakePcrDataset(&env);

  const int group = 2;
  const FetchPlan plan = ds->PlanFetch(0, group).MoveValue();
  // Cold plans split header and scan-group payload into two adjacent
  // segments of the same file so the scheduler can fetch them as one
  // vectored read.
  ASSERT_EQ(plan.segments.size(), 2u);
  EXPECT_EQ(plan.segments[0].offset, 0u);
  EXPECT_GT(plan.segments[0].length, 0u);
  EXPECT_FALSE(plan.segments[0].resident);
  EXPECT_EQ(plan.segments[1].path, plan.segments[0].path);
  EXPECT_EQ(plan.segments[1].offset, plan.segments[0].length);
  EXPECT_FALSE(plan.segments[1].resident);
  EXPECT_EQ(plan.total_bytes(), ds->RecordReadBytes(0, group));
  EXPECT_EQ(plan.fetch_bytes(), plan.total_bytes());
  EXPECT_FALSE(plan.fully_resident());
  EXPECT_EQ(plan.ToReadRequest().segments.size(), 2u);
  // The split plan fetches byte-identical data to the synchronous reader.
  const RawRecord cold = ds->FetchRecord(0, group).MoveValue();
  EXPECT_EQ(cold.payload.size(), plan.total_bytes());
  EXPECT_EQ(cold.bytes_read, plan.total_bytes());
}

TEST(FetchPlans, PcrResidentPrefixShrinksTheFetchToTheDelta) {
  VirtualClock clock;
  SimEnv env(DeviceProfile::Ram(), &clock);
  auto ds = MakePcrDataset(&env);

  const int low = 1, high = 3;
  const RawRecord first = ds->FetchRecord(0, low).MoveValue();
  FetchResident resident;
  resident.scan_group = first.scan_group;
  resident.bytes = std::make_shared<const std::string>(first.payload);

  const FetchPlan plan = ds->PlanFetch(0, high, &resident).MoveValue();
  const uint64_t covered = ds->RecordReadBytes(0, low);
  const uint64_t want = ds->RecordReadBytes(0, high);
  ASSERT_EQ(plan.segments.size(), 2u);
  EXPECT_TRUE(plan.segments[0].resident);
  EXPECT_EQ(plan.segments[0].offset, 0u);
  EXPECT_EQ(plan.segments[0].length, covered);
  EXPECT_FALSE(plan.segments[1].resident);
  EXPECT_EQ(plan.segments[1].offset, covered);
  EXPECT_EQ(plan.segments[1].length, want - covered);
  EXPECT_EQ(plan.fetch_bytes(), want - covered);
  EXPECT_EQ(plan.ToReadRequest().segments.size(), 1u);

  // The stitched upgrade is byte-identical to a cold full-quality fetch,
  // but only the delta counts as I/O.
  const RawRecord warm = ds->FetchRecord(0, high, &resident).MoveValue();
  const RawRecord cold = ds->FetchRecord(0, high).MoveValue();
  EXPECT_EQ(warm.payload, cold.payload);
  EXPECT_EQ(warm.bytes_read, want - covered);
  EXPECT_EQ(cold.bytes_read, want);
}

TEST(FetchPlans, PcrFullyResidentPlanNeedsNoIo) {
  VirtualClock clock;
  SimEnv env(DeviceProfile::Ram(), &clock);
  auto ds = MakePcrDataset(&env);

  const int deep = 4, shallow = 2;
  const RawRecord first = ds->FetchRecord(0, deep).MoveValue();
  FetchResident resident;
  resident.scan_group = first.scan_group;
  resident.bytes = std::make_shared<const std::string>(first.payload);

  // Re-reading at the same or lower quality is served entirely from memory.
  const FetchPlan plan = ds->PlanFetch(0, shallow, &resident).MoveValue();
  EXPECT_TRUE(plan.fully_resident());
  EXPECT_EQ(plan.fetch_bytes(), 0u);
  EXPECT_TRUE(plan.ToReadRequest().segments.empty());

  const RawRecord raw = ds->CompleteFetch(plan, std::string()).MoveValue();
  EXPECT_EQ(raw.bytes_read, 0u);
  const RawRecord cold = ds->FetchRecord(0, shallow).MoveValue();
  EXPECT_EQ(raw.payload, cold.payload);
  // Zero-I/O payloads still decode.
  EXPECT_TRUE(ds->AssembleRecord(raw).ok());
}

TEST(FetchPlans, PcrIgnoresResidentBytesThatAreTooShort) {
  VirtualClock clock;
  SimEnv env(DeviceProfile::Ram(), &clock);
  auto ds = MakePcrDataset(&env);

  // Claimed group 3 but the buffer is truncated: the claim is not usable,
  // so the plan must fall back to a cold fetch.
  FetchResident resident;
  resident.scan_group = 3;
  resident.bytes = std::make_shared<const std::string>("short");
  const FetchPlan plan = ds->PlanFetch(0, 3, &resident).MoveValue();
  for (const FetchSegment& segment : plan.segments) {
    EXPECT_FALSE(segment.resident);
  }
  EXPECT_EQ(plan.fetch_bytes(), ds->RecordReadBytes(0, 3));
}

TEST(FetchPlans, RecordDatasetHonorsOnlyWholeFileResidency) {
  VirtualClock clock;
  SimEnv env(DeviceProfile::Ram(), &clock);
  RecordWriterOptions options;
  options.images_per_record = 2;
  auto writer = RecordDatasetWriter::Create(&env, "rec", options).MoveValue();
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(writer->AddImage(Slice(MakeJpeg(40, 32, i, false)), i).ok());
  }
  ASSERT_TRUE(writer->Finish().ok());
  auto ds = RecordDataset::Open(&env, "rec").MoveValue();

  const RawRecord cold = ds->FetchRecord(1, 1).MoveValue();
  FetchResident whole;
  whole.scan_group = 1;
  whole.bytes = std::make_shared<const std::string>(cold.payload);
  const FetchPlan warm = ds->PlanFetch(1, 1, &whole).MoveValue();
  EXPECT_TRUE(warm.fully_resident());
  const RawRecord raw = ds->CompleteFetch(warm, std::string()).MoveValue();
  EXPECT_EQ(raw.payload, cold.payload);

  // A partial buffer is useless for a fixed-quality format: ignored.
  FetchResident partial;
  partial.scan_group = 1;
  partial.bytes = std::make_shared<const std::string>(
      cold.payload.substr(0, cold.payload.size() / 2));
  const FetchPlan plan = ds->PlanFetch(1, 1, &partial).MoveValue();
  EXPECT_FALSE(plan.fully_resident());
  EXPECT_EQ(plan.fetch_bytes(), ds->RecordReadBytes(1, 1));
}

TEST(FetchPlans, CompleteFetchRejectsWrongByteCount) {
  VirtualClock clock;
  SimEnv env(DeviceProfile::Ram(), &clock);
  auto ds = MakePcrDataset(&env);
  const FetchPlan plan = ds->PlanFetch(0, 2).MoveValue();
  EXPECT_FALSE(ds->CompleteFetch(plan, std::string("x")).ok());
}

}  // namespace
}  // namespace pcr
