// Fast-vs-reference codec parity: the production decode path (buffered
// 64-bit BitReader, table-driven Huffman, short-circuiting fixed-point
// render with reusable scratch) must be bit-exact — coefficients AND pixels
// — with the ReferenceCodec oracle (byte-at-a-time bit reader, bit-by-bit
// canonical Huffman walk, straight-line per-pixel render) on every scan
// script and subsampling mode, for complete streams, every scan prefix, and
// byte-granular truncations.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "image/procedural.h"
#include "jpeg/codec.h"
#include "jpeg/reference_codec.h"
#include "jpeg/scan_parser.h"
#include "jpeg/scan_script.h"
#include "util/crc32c.h"
#include "util/random.h"

namespace pcr::jpeg {
namespace {

Image MakeTestImage(int w, int h, bool color, uint64_t seed) {
  Rng rng(seed);
  std::vector<float> luma;
  BackgroundParams params;
  RenderBackground(w, h, params, &rng, &luma);
  auto blobs = SampleBlobs(8, 10.0, 40.0, &rng);
  RenderBlobs(w, h, blobs, 0, 0, &luma);
  AddNoise(3.0, &rng, &luma);
  return LumaToImage(w, h, luma, color, &rng);
}

// A progressive script exercising spectral selection without successive
// approximation (unlike the default libjpeg script).
std::vector<ScanSpec> SpectralOnlyScript(int num_components) {
  std::vector<ScanSpec> script;
  ScanSpec dc;
  for (int c = 0; c < num_components; ++c) dc.component_indices.push_back(c);
  dc.ss = 0;
  dc.se = 0;
  script.push_back(dc);
  for (int c = 0; c < num_components; ++c) {
    ScanSpec low;
    low.component_indices = {c};
    low.ss = 1;
    low.se = 5;
    script.push_back(low);
    ScanSpec high;
    high.component_indices = {c};
    high.ss = 6;
    high.se = 63;
    script.push_back(high);
  }
  return script;
}

// A script with a deep successive-approximation ladder on luma AC.
std::vector<ScanSpec> DeepRefinementScript(int num_components) {
  std::vector<ScanSpec> script;
  ScanSpec dc;
  for (int c = 0; c < num_components; ++c) dc.component_indices.push_back(c);
  dc.ss = 0;
  dc.se = 0;
  dc.al = 2;
  script.push_back(dc);
  ScanSpec dc_ref1 = dc;
  dc_ref1.ah = 2;
  dc_ref1.al = 1;
  script.push_back(dc_ref1);
  ScanSpec dc_ref2 = dc;
  dc_ref2.ah = 1;
  dc_ref2.al = 0;
  script.push_back(dc_ref2);
  for (int c = 0; c < num_components; ++c) {
    ScanSpec ac;
    ac.component_indices = {c};
    ac.ss = 1;
    ac.se = 63;
    ac.al = 3;
    script.push_back(ac);
    for (int al = 2; al >= 0; --al) {
      ScanSpec ref = ac;
      ref.ah = al + 1;
      ref.al = al;
      script.push_back(ref);
    }
  }
  return script;
}

void ExpectCoefficientsEqual(const JpegData& fast, const JpegData& ref,
                             const std::string& label) {
  ASSERT_EQ(fast.frame.components.size(), ref.frame.components.size())
      << label;
  for (size_t c = 0; c < fast.frame.components.size(); ++c) {
    const auto& info = fast.frame.components[c];
    for (int by = 0; by < info.height_blocks_padded; ++by) {
      for (int bx = 0; bx < info.width_blocks_padded; ++bx) {
        ASSERT_EQ(fast.coefficients.block(static_cast<int>(c), bx, by),
                  ref.coefficients.block(static_cast<int>(c), bx, by))
            << label << " comp " << c << " block (" << bx << "," << by << ")";
      }
    }
  }
}

void ExpectPixelsEqual(const Image& fast, const Image& ref,
                       const std::string& label) {
  ASSERT_TRUE(fast.SameShape(ref)) << label;
  ASSERT_EQ(0, std::memcmp(fast.data(), ref.data(), fast.size_bytes()))
      << label;
}

void ExpectParity(Slice stream, const std::string& label) {
  auto fast = DecodeFull(stream);
  auto ref = ReferenceCodec::DecodeFull(stream);
  ASSERT_EQ(fast.ok(), ref.ok()) << label << " fast=" << fast.status()
                                 << " ref=" << ref.status();
  if (!fast.ok()) return;
  EXPECT_EQ(fast->scans_decoded, ref->scans_decoded) << label;
  EXPECT_EQ(fast->complete, ref->complete) << label;
  ExpectPixelsEqual(fast->image, ref->image, label);

  auto fast_coeffs = DecodeToCoefficients(stream);
  auto ref_coeffs = ReferenceCodec::DecodeToCoefficients(stream);
  ASSERT_EQ(fast_coeffs.ok(), ref_coeffs.ok()) << label;
  if (fast_coeffs.ok()) {
    ExpectCoefficientsEqual(*fast_coeffs, *ref_coeffs, label);
  }
}

struct ScriptCase {
  const char* name;
  bool progressive;
  std::vector<ScanSpec> (*script)(int);  // Null = default for the mode.
};

const ScriptCase kScripts[] = {
    {"baseline", false, nullptr},
    {"default-progressive", true, nullptr},
    {"spectral-only", true, &SpectralOnlyScript},
    {"deep-refinement", true, &DeepRefinementScript},
};

// Randomized encode->decode parity across every scan script x subsampling x
// geometry combination, both color and grayscale.
TEST(CodecParity, AllScriptsAndSubsamplingModesBitExact) {
  const struct {
    int w, h;
    bool color;
  } shapes[] = {
      {64, 64, true},  {97, 55, true},   {17, 9, true},
      {80, 40, false}, {121, 33, false},
  };
  uint64_t seed = 7000;
  for (const auto& shape : shapes) {
    const Image img = MakeTestImage(shape.w, shape.h, shape.color, ++seed);
    for (ChromaSubsampling sub :
         {ChromaSubsampling::k444, ChromaSubsampling::k420}) {
      if (!shape.color && sub == ChromaSubsampling::k420) continue;
      for (const ScriptCase& sc : kScripts) {
        EncodeOptions options;
        options.quality = 88;
        options.subsampling = sub;
        options.progressive = sc.progressive;
        const int comps = shape.color ? 3 : 1;
        if (sc.script != nullptr) {
          options.scan_script = sc.script(comps);
          ASSERT_TRUE(ValidateProgressiveScript(options.scan_script, comps))
              << sc.name;
        }
        auto encoded = Encode(img, options);
        ASSERT_TRUE(encoded.ok()) << encoded.status();
        const std::string label =
            std::string(sc.name) + (shape.color ? "/color" : "/gray") +
            (sub == ChromaSubsampling::k420 ? "/420" : "/444") + "/" +
            std::to_string(shape.w) + "x" + std::to_string(shape.h);
        ExpectParity(*encoded, label);
      }
    }
  }
}

// Every scan prefix of a progressive stream decodes identically on both
// paths — the PCR partial-read case.
TEST(CodecParity, EveryScanPrefixBitExact) {
  const Image img = MakeTestImage(96, 72, true, 4242);
  EncodeOptions options;
  options.progressive = true;
  const std::string encoded = Encode(img, options).MoveValue();
  const auto index = IndexScans(encoded).MoveValue();
  for (int scans = 1; scans <= static_cast<int>(index.scans.size());
       ++scans) {
    const std::string prefix = AssemblePrefix(encoded, index, scans);
    ExpectParity(prefix, "prefix scans=" + std::to_string(scans));
  }
}

// Byte-granular truncation: wherever the stream is cut — mid-marker,
// mid-Huffman-code, mid-refinement-bit — both paths agree on the outcome
// (error or identical partial image), and neither crashes.
TEST(CodecParity, ByteGranularTruncationAgrees) {
  const Image img = MakeTestImage(48, 40, true, 555);
  EncodeOptions options;
  options.progressive = true;
  const std::string encoded = Encode(img, options).MoveValue();
  // Every cut in a sparse sweep plus a dense sweep over one entropy region.
  std::vector<size_t> cuts;
  for (size_t n = 0; n < encoded.size(); n += 97) cuts.push_back(n);
  const size_t mid = encoded.size() / 2;
  for (size_t n = mid; n < std::min(encoded.size(), mid + 64); ++n) {
    cuts.push_back(n);
  }
  for (size_t n : cuts) {
    ExpectParity(Slice(encoded.data(), n),
                 "truncated at " + std::to_string(n));
  }
}

// Reusing one DecodeScratch across decodes of different shapes must not
// change any output relative to fresh-scratch decodes.
TEST(CodecParity, ScratchReuseIsDeterministic) {
  DecodeScratch scratch;
  uint64_t seed = 900;
  const struct {
    int w, h;
    bool color;
  } shapes[] = {{64, 48, true}, {32, 32, false}, {97, 55, true},
                {64, 48, true}, {8, 8, true}};
  for (const auto& shape : shapes) {
    const Image img = MakeTestImage(shape.w, shape.h, shape.color, ++seed);
    EncodeOptions options;
    options.progressive = true;
    const std::string encoded = Encode(img, options).MoveValue();
    const Image with_scratch = Decode(encoded, &scratch).MoveValue();
    const Image fresh = Decode(encoded).MoveValue();
    ExpectPixelsEqual(with_scratch, fresh,
                      "scratch reuse " + std::to_string(shape.w) + "x" +
                          std::to_string(shape.h));
  }
}

// RenderCoefficients parity on partially assembled records (the
// coefficient-level entry point the PCR reader uses).
TEST(CodecParity, RenderCoefficientsMatchesReference) {
  const Image img = MakeTestImage(72, 56, true, 31);
  EncodeOptions options;
  options.progressive = true;
  const std::string encoded = Encode(img, options).MoveValue();
  auto data = DecodeToCoefficients(encoded).MoveValue();
  const Image fast = RenderCoefficients(data);
  const Image ref = ReferenceCodec::RenderCoefficients(data);
  ExpectPixelsEqual(fast, ref, "RenderCoefficients");
}


// ------------------------------------------------------------ Encoder edges
// Corner cases of the progressive encoder. Each stream must carry exactly
// the source coefficients (every nominal block) and decode to the
// ReferenceCodec's pixels; the digests pin the bytes written at the EOB-run
// and correction-bit flush points.

JpegData CoefficientsOf(const Image& img, ChromaSubsampling subsampling) {
  EncodeOptions options;
  options.subsampling = subsampling;
  return DecodeToCoefficients(Encode(img, options).MoveValue()).MoveValue();
}

void ExpectNominalBlocksEqual(const JpegData& got, const JpegData& want,
                              const std::string& label) {
  ASSERT_EQ(got.frame.components.size(), want.frame.components.size())
      << label;
  for (size_t c = 0; c < want.frame.components.size(); ++c) {
    const auto& info = want.frame.components[c];
    for (int by = 0; by < info.height_blocks; ++by) {
      for (int bx = 0; bx < info.width_blocks; ++bx) {
        ASSERT_EQ(got.coefficients.block(static_cast<int>(c), bx, by),
                  want.coefficients.block(static_cast<int>(c), bx, by))
            << label << " comp " << c << " block (" << bx << "," << by << ")";
      }
    }
  }
}

// Progressively encodes `data` with `script` (empty: the default script),
// checks the round trip, and returns the stream ("" on failure).
std::string ProgressiveRoundTrip(const JpegData& data,
                                 const std::vector<ScanSpec>& script,
                                 const std::string& label) {
  auto encoded = EncodeFromData(data, /*progressive=*/true, script);
  EXPECT_TRUE(encoded.ok()) << label << ": " << encoded.status();
  if (!encoded.ok()) return "";
  auto decoded = DecodeToCoefficients(*encoded);
  EXPECT_TRUE(decoded.ok()) << label << ": " << decoded.status();
  if (!decoded.ok()) return "";
  ExpectNominalBlocksEqual(*decoded, data, label);
  ExpectParity(*encoded, label);
  return *encoded;
}

// A flat 1536x1536 image has 36,864 luma blocks with no AC energy, so every
// AC scan is one long EOB run that must flush at the 0x7FFF ceiling.
TEST(EncoderEdges, EobRunReachesCeiling) {
  const JpegData data =
      CoefficientsOf(Image(1536, 1536, 1, 90), ChromaSubsampling::k444);
  const std::string stream = ProgressiveRoundTrip(data, {}, "flat 1536x1536");
  EXPECT_EQ(crc32c::Value(stream), 0x2b0365f7u);
}

// Refinement scans whose EOB runs buffer correction bits. With every luma
// AC coefficient at magnitude 2 or 3, the final luma refinement scan has no
// newly-nonzero coefficient and 63 correction bits per block, so its EOB
// run crosses the 900-bit flush point every 15 blocks. The sparse variant
// mixes long zero runs (ZRLs inside the refinement window) with old and
// newly-nonzero coefficients.
TEST(EncoderEdges, RefinementCorrectionBitsPassFlushPoint) {
  const JpegData source =
      CoefficientsOf(MakeTestImage(128, 96, true, 77), ChromaSubsampling::k420);
  const auto& luma = source.frame.components[0];
  Rng rng(78);
  JpegData dense = source;
  JpegData sparse = source;
  for (int by = 0; by < luma.height_blocks_padded; ++by) {
    for (int bx = 0; bx < luma.width_blocks_padded; ++bx) {
      CoeffBlock& d = dense.coefficients.block(0, bx, by);
      CoeffBlock& s = sparse.coefficients.block(0, bx, by);
      for (int i = 1; i < 64; ++i) {
        const int sign = rng.Uniform(2) != 0 ? 1 : -1;
        const int magnitude = 2 + static_cast<int>(rng.Uniform(2));
        d[i] = static_cast<int16_t>(sign * magnitude);
        static const int kMagnitudes[] = {1, 2, 3, 5};
        s[i] = rng.Uniform(8) == 0
                   ? static_cast<int16_t>(sign * kMagnitudes[rng.Uniform(4)])
                   : 0;
      }
    }
  }
  const std::string dense_stream =
      ProgressiveRoundTrip(dense, {}, "dense correction bits");
  const std::string sparse_stream =
      ProgressiveRoundTrip(sparse, {}, "sparse refinement");
  EXPECT_EQ(crc32c::Value(dense_stream), 0x0d1b6194u);
  EXPECT_EQ(crc32c::Value(sparse_stream), 0x2df6b3bdu);
}

// Width and height off every block and MCU boundary: interleaved DC scans
// cover MCU padding, per-component AC scans only nominal blocks.
TEST(EncoderEdges, OddDimensions) {
  const JpegData data =
      CoefficientsOf(MakeTestImage(97, 55, true, 79), ChromaSubsampling::k420);
  const std::string stream = ProgressiveRoundTrip(data, {}, "97x55 4:2:0");
  EXPECT_EQ(crc32c::Value(stream), 0x61e024c7u);
}

// One-component scans only: a grayscale image under its 6-scan default
// script, and a color image whose DC scans are not interleaved either.
TEST(EncoderEdges, SingleComponentScripts) {
  const JpegData gray =
      CoefficientsOf(MakeTestImage(83, 61, false, 80), ChromaSubsampling::k444);
  const std::string gray_stream = ProgressiveRoundTrip(gray, {}, "grayscale");

  std::vector<ScanSpec> script;
  for (int c = 0; c < 3; ++c) {
    ScanSpec scan;
    scan.component_indices = {c};
    scan.ss = 0;
    scan.se = 0;
    scan.al = 1;
    script.push_back(scan);  // DC first pass.
    scan.ss = 1;
    scan.se = 63;
    script.push_back(scan);  // AC first pass.
    scan.ah = 1;
    scan.al = 0;
    script.push_back(scan);  // AC refinement.
    scan.ss = 0;
    scan.se = 0;
    script.push_back(scan);  // DC refinement.
  }
  ASSERT_TRUE(ValidateProgressiveScript(script, 3));
  const JpegData color =
      CoefficientsOf(MakeTestImage(83, 61, true, 81), ChromaSubsampling::k420);
  const std::string color_stream =
      ProgressiveRoundTrip(color, script, "per-component color");
  EXPECT_EQ(crc32c::Value(gray_stream), 0x1382dabeu);
  EXPECT_EQ(crc32c::Value(color_stream), 0xc5c0cd7eu);
}

// Full-resolution chroma: every component has one block per MCU.
TEST(EncoderEdges, FullResolutionChroma) {
  const JpegData data =
      CoefficientsOf(MakeTestImage(121, 87, true, 82), ChromaSubsampling::k444);
  const std::string stream = ProgressiveRoundTrip(data, {}, "121x87 4:4:4");
  EXPECT_EQ(crc32c::Value(stream), 0x06f60fd4u);
}

}  // namespace
}  // namespace pcr::jpeg
