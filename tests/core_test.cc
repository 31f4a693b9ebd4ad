// Tests for the PCR core: header serialization, prefix assembly, the writer
// and reader, the baseline formats, and format-level invariants
// (property-style over several record/image shapes).
#include <gtest/gtest.h>

#include "core/file_per_image.h"
#include "core/pcr_dataset.h"
#include "core/pcr_format.h"
#include "core/record_dataset.h"
#include "data/dataset_spec.h"
#include "jpeg/codec.h"
#include "storage/sim_env.h"
#include "util/random.h"

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
