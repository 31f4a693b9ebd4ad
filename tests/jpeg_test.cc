// Tests for the from-scratch JPEG codec: DCT, Huffman, baseline and
// progressive round trips, lossless transcoding, scan indexing, and partial
// (prefix) decoding — the properties PCR correctness rests on.
#include <gtest/gtest.h>

#include <cmath>

#include "data/dataset_spec.h"
#include "image/image.h"
#include "image/metrics.h"
#include "image/procedural.h"
#include "jpeg/bit_io.h"
#include "jpeg/codec.h"
#include "jpeg/constants.h"
#include "jpeg/dct.h"
#include "jpeg/huffman.h"
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
  auto blobs = SampleBlobs(10, 12.0, 45.0, &rng);
  RenderBlobs(w, h, blobs, 0, 0, &luma);
  AddNoise(2.0, &rng, &luma);
  return LumaToImage(w, h, luma, color, &rng);
}

// ---------------------------------------------------------------- DCT

TEST(Dct, RoundTripIsIdentity) {
  Rng rng(1);
  double in[64], freq[64], out[64];
  for (int trial = 0; trial < 50; ++trial) {
    for (double& v : in) v = rng.UniformDouble(-128.0, 127.0);
    ForwardDct8x8(in, freq);
    InverseDct8x8(freq, out);
    for (int i = 0; i < 64; ++i) {
      EXPECT_NEAR(in[i], out[i], 1e-9);
    }
  }
}

TEST(Dct, ConstantBlockHasOnlyDc) {
  double in[64], freq[64];
  for (double& v : in) v = 57.0;
  ForwardDct8x8(in, freq);
  EXPECT_NEAR(freq[0], 8.0 * 57.0, 1e-9);  // DC = 8 * mean.
  for (int i = 1; i < 64; ++i) EXPECT_NEAR(freq[i], 0.0, 1e-9);
}

TEST(Dct, ParsevalEnergyPreserved) {
  Rng rng(7);
  double in[64], freq[64];
  for (double& v : in) v = rng.UniformDouble(-100, 100);
  ForwardDct8x8(in, freq);
  double e_in = 0, e_out = 0;
  for (int i = 0; i < 64; ++i) {
    e_in += in[i] * in[i];
    e_out += freq[i] * freq[i];
  }
  EXPECT_NEAR(e_in, e_out, 1e-6 * e_in);
}

TEST(Dct, FixedPointMatchesDoubleOracle) {
  // The fixed-point IDCT must track the double-precision reference to
  // within one intensity level on the full legitimate coefficient range.
  Rng rng(21);
  int32_t dq[64];
  double in[64], out[64];
  uint8_t fixed[64];
  for (int trial = 0; trial < 200; ++trial) {
    const int nonzero = 1 + static_cast<int>(rng.Uniform(64));
    for (int i = 0; i < 64; ++i) dq[i] = 0;
    for (int n = 0; n < nonzero; ++n) {
      dq[rng.Uniform(64)] =
          static_cast<int32_t>(rng.Uniform(4097)) - 2048;  // +/- DC max.
    }
    for (int i = 0; i < 64; ++i) in[i] = dq[i];
    InverseDct8x8(in, out);
    InverseDct8x8Fixed(dq, fixed, 8);
    for (int i = 0; i < 64; ++i) {
      const double expected =
          std::clamp(std::floor(out[i] + 128.0 + 0.5), 0.0, 255.0);
      EXPECT_NEAR(static_cast<double>(fixed[i]), expected, 1.0)
          << "trial " << trial << " i=" << i;
    }
  }
}

TEST(Dct, FixedPointDcOnlyBlockIsFlatFill) {
  // A DC-only block must come out as the flat field the renderer's
  // short-circuit computes: clamp(((dc + 4) >> 3) + 128). The parity suite
  // separately proves the short-circuit equals the kernel on real streams;
  // this pins the shared closed form across the full DC range.
  int32_t dq[64];
  uint8_t out[64];
  for (int dc = -2048; dc <= 2048; dc += 7) {
    for (int i = 0; i < 64; ++i) dq[i] = 0;
    dq[0] = dc;
    InverseDct8x8Fixed(dq, out, 8);
    const int64_t descaled = (static_cast<int64_t>(dc) + 4) >> 3;
    const uint8_t expected = static_cast<uint8_t>(
        std::clamp<int64_t>(descaled + 128, 0, 255));
    for (int i = 0; i < 64; ++i) {
      ASSERT_EQ(out[i], expected) << "dc=" << dc << " i=" << i;
    }
  }
}

// ---------------------------------------------------------------- Bit I/O

TEST(BitIo, RoundTripWithStuffing) {
  std::string buf;
  BitWriter writer(&buf);
  Rng rng(3);
  std::vector<std::pair<uint32_t, int>> writes;
  for (int i = 0; i < 1000; ++i) {
    const int n = 1 + static_cast<int>(rng.Uniform(16));
    const uint32_t bits = static_cast<uint32_t>(rng.Next()) & ((1u << n) - 1);
    writes.emplace_back(bits, n);
    writer.WriteBits(bits, n);
  }
  writer.AlignToByte();

  BitReader reader(buf);
  for (const auto& [bits, n] : writes) {
    EXPECT_EQ(reader.ReadBits(n), bits);
  }
  EXPECT_FALSE(reader.Exhausted());
}

TEST(BitIo, WideWritesAppendAfterExistingBytes) {
  // Writes of up to 32 bits, with 0xFF bytes inside whole words, appended
  // to a string that already holds bytes.
  std::string buf = "AB";
  Rng rng(4);
  std::vector<std::pair<uint32_t, int>> writes;
  {
    BitWriter writer(&buf);
    for (int i = 0; i < 2000; ++i) {
      const int n = static_cast<int>(rng.Uniform(33));
      uint32_t bits = static_cast<uint32_t>(rng.Next());
      if (i % 7 == 0) bits = 0xffffffffu;
      if (n < 32) bits &= (1u << n) - 1;
      writes.emplace_back(bits, n);
      writer.WriteBits(bits, n);
    }
    writer.AlignToByte();
  }
  ASSERT_EQ(buf.substr(0, 2), "AB");
  BitReader reader(Slice(buf.data() + 2, buf.size() - 2));
  for (const auto& [bits, n] : writes) {
    ASSERT_EQ(reader.ReadBits(n), bits);
  }
  EXPECT_FALSE(reader.Exhausted());
}

TEST(BitIo, AllOnesProducesStuffBytes) {
  std::string buf;
  BitWriter writer(&buf);
  writer.WriteBits(0xffff, 16);
  writer.AlignToByte();
  // Two 0xFF bytes, each followed by a 0x00 stuff byte.
  ASSERT_EQ(buf.size(), 4u);
  EXPECT_EQ(static_cast<uint8_t>(buf[0]), 0xff);
  EXPECT_EQ(static_cast<uint8_t>(buf[1]), 0x00);
  EXPECT_EQ(static_cast<uint8_t>(buf[2]), 0xff);
  EXPECT_EQ(static_cast<uint8_t>(buf[3]), 0x00);
}

TEST(BitIo, ReaderStopsAtMarker) {
  std::string buf = {'\xAB', '\xFF', '\xD9'};
  BitReader reader(buf);
  EXPECT_EQ(reader.ReadBits(8), 0xABu);
  reader.ReadBit();
  EXPECT_TRUE(reader.Exhausted());
}

TEST(BitIo, PeekDoesNotConsume) {
  std::string buf = {'\xB7', '\x2C', '\x51'};
  BitReader reader(buf);
  EXPECT_EQ(reader.Peek(8), 0xB7u);
  EXPECT_EQ(reader.Peek(12), 0xB72u);
  EXPECT_EQ(reader.Peek(8), 0xB7u);  // Unchanged.
  reader.Consume(4);
  EXPECT_EQ(reader.Peek(8), 0x72u);
  reader.Consume(8);
  EXPECT_EQ(reader.ReadBits(12), 0xC51u);
  EXPECT_FALSE(reader.Exhausted());
}

TEST(BitIo, PeekZeroPadsPastEndAndConsumeFlagsExhaustion) {
  std::string buf = {'\xA0'};  // 8 real bits.
  BitReader reader(buf);
  EXPECT_EQ(reader.Peek(12), 0xA00u);  // Zero-padded, not data.
  EXPECT_FALSE(reader.Exhausted());    // Peeking alone never exhausts.
  EXPECT_EQ(reader.BitsAvailable(), 8);
  reader.Consume(12);  // Consumes past the last real bit.
  EXPECT_TRUE(reader.Exhausted());
}

TEST(BitIo, PeekSpansStuffedBytes) {
  // 0xFF 0x00 collapses to one 0xFF data byte inside the accumulator.
  std::string buf = {'\x12', '\xFF', '\x00', '\x34'};
  BitReader reader(buf);
  EXPECT_EQ(reader.Peek(24), 0x12FF34u);
  reader.Consume(24);
  EXPECT_FALSE(reader.Exhausted());
  reader.ReadBit();
  EXPECT_TRUE(reader.Exhausted());
}

TEST(BitIo, InterleavedBitAndPeekReadsStayCoherent) {
  // Regression: ReadBit must not leave consumed bits in the accumulator
  // where a later Peek would see them as high bits.
  std::string buf;
  BitWriter writer(&buf);
  Rng rng(17);
  std::vector<std::pair<uint32_t, int>> writes;
  for (int i = 0; i < 500; ++i) {
    const int n = 1 + static_cast<int>(rng.Uniform(16));
    const uint32_t bits = static_cast<uint32_t>(rng.Next()) & ((1u << n) - 1);
    writes.emplace_back(bits, n);
    writer.WriteBits(bits, n);
  }
  writer.AlignToByte();
  Rng replay(17);
  BitReader reader(buf);
  for (const auto& [bits, n] : writes) {
    if (replay.Uniform(2) == 0) {
      // Bit-by-bit.
      uint32_t v = 0;
      for (int b = 0; b < n; ++b) v = (v << 1) | reader.ReadBit();
      ASSERT_EQ(v, bits);
    } else {
      ASSERT_EQ(reader.Peek(n), bits);
      reader.Consume(n);
    }
  }
  EXPECT_FALSE(reader.Exhausted());
}

// ---------------------------------------------------------------- Huffman

TEST(Huffman, StdTablesRoundTripSymbols) {
  auto table = HuffTable::FromSpec(StdAcLumaSpec()).MoveValue();
  std::string buf;
  BitWriter writer(&buf);
  std::vector<int> symbols = {0x01, 0x00, 0xF0, 0x11, 0x7A, 0xFA, 0x02};
  for (int s : symbols) table.EncodeSymbol(&writer, s);
  writer.AlignToByte();
  BitReader reader(buf);
  for (int s : symbols) {
    EXPECT_EQ(table.DecodeSymbol(&reader), s);
  }
}

TEST(Huffman, OptimalTableRoundTripsAndBeatsUniform) {
  HuffFrequencies freqs;
  Rng rng(11);
  std::vector<int> stream;
  // Skewed distribution over 20 symbols.
  for (int i = 0; i < 20000; ++i) {
    const int sym = static_cast<int>(
        std::min<uint64_t>(19, static_cast<uint64_t>(rng.NextExponential(0.5))));
    stream.push_back(sym);
    freqs.Count(sym);
  }
  auto table = freqs.BuildOptimal().MoveValue();
  std::string buf;
  BitWriter writer(&buf);
  for (int s : stream) table.EncodeSymbol(&writer, s);
  writer.AlignToByte();
  BitReader reader(buf);
  for (int s : stream) {
    ASSERT_EQ(table.DecodeSymbol(&reader), s);
  }
  // A uniform 5-bit code would need 12500 bytes; optimal must beat it.
  EXPECT_LT(buf.size(), 12500u);
}

TEST(Huffman, TruncatedStreamFailsCleanly) {
  // Regression: a stream that ends mid-code must report exhaustion (the
  // partial-decode truncation signal), never decode a symbol out of the
  // phantom zero padding — even when the zero-padded bit pattern happens to
  // form a valid code.
  auto table = HuffTable::FromSpec(StdAcLumaSpec()).MoveValue();
  std::string buf;
  BitWriter writer(&buf);
  const std::vector<int> symbols = {0x11, 0x04, 0x23, 0xF0, 0x81};
  for (int s : symbols) table.EncodeSymbol(&writer, s);
  writer.AlignToByte();

  // Full stream: all symbols decode, no exhaustion mid-way.
  {
    BitReader reader(buf);
    for (int s : symbols) ASSERT_EQ(table.DecodeSymbol(&reader), s);
  }
  // Every truncation point: decoding must yield a (possibly empty) prefix
  // of the encoded symbols and then -1 with Exhausted(), never a wrong
  // symbol and never an out-of-range read.
  for (size_t cut = 0; cut < buf.size(); ++cut) {
    BitReader reader(Slice(buf.data(), cut));
    size_t decoded = 0;
    for (;;) {
      const int sym = table.DecodeSymbol(&reader);
      if (sym < 0) break;
      ASSERT_LT(decoded, symbols.size()) << "cut=" << cut;
      ASSERT_EQ(sym, symbols[decoded]) << "cut=" << cut;
      ++decoded;
    }
    EXPECT_TRUE(reader.Exhausted()) << "cut=" << cut;
    // The bitwise reference path must agree symbol for symbol.
    BitReader ref_reader(Slice(buf.data(), cut));
    for (size_t i = 0; i < decoded; ++i) {
      EXPECT_EQ(table.DecodeSymbolBitwise(&ref_reader),
                symbols[i]) << "cut=" << cut;
    }
    EXPECT_LT(table.DecodeSymbolBitwise(&ref_reader), 0) << "cut=" << cut;
  }
}

TEST(Huffman, InvalidCodeReportsCorruptionNotTruncation) {
  // A bit pattern that matches no code of any length must return -1 with
  // Exhausted() == false — the callers' corruption signal.
  const uint8_t bits[16] = {0, 1, 0, 0, 0, 0, 0, 0,
                            0, 0, 0, 0, 0, 0, 0, 0};  // One 2-bit code: 00.
  const uint8_t values[1] = {7};
  auto table = HuffTable::FromSpec(bits, values, 1).MoveValue();
  // Plenty of 1-bits: walks to length 16 without matching, bits remain.
  std::string junk(4, '\xEE');
  BitReader reader(junk);
  EXPECT_EQ(table.DecodeSymbol(&reader), -1);
  EXPECT_FALSE(reader.Exhausted());
}

TEST(Huffman, TruncatedJpegStreamNeverGainsScans) {
  // End-to-end regression for the EOF hardening: for every byte-truncation
  // of a real progressive stream, the decoder must never report more scans
  // than the prefix actually contains, must never report completeness, and
  // must never crash.
  const Image original = MakeTestImage(40, 32, true, 77);
  EncodeOptions options;
  options.progressive = true;
  auto encoded = Encode(original, options).MoveValue();
  auto full = DecodeFull(Slice(encoded)).MoveValue();
  ASSERT_TRUE(full.complete);
  for (size_t cut = 0; cut < encoded.size(); cut += 3) {
    auto result = DecodeFull(Slice(encoded.data(), cut));
    if (!result.ok()) continue;  // Clean error is acceptable.
    EXPECT_LE(result->scans_decoded, full.scans_decoded) << "cut=" << cut;
    EXPECT_FALSE(result->complete) << "cut=" << cut;
  }
}

TEST(Huffman, OptimalTableSingleSymbol) {
  HuffFrequencies freqs;
  freqs.Count(42);
  auto table = freqs.BuildOptimal().MoveValue();
  EXPECT_TRUE(table.HasSymbol(42));
  std::string buf;
  BitWriter writer(&buf);
  table.EncodeSymbol(&writer, 42);
  writer.AlignToByte();
  BitReader reader(buf);
  EXPECT_EQ(table.DecodeSymbol(&reader), 42);
}

// ---------------------------------------------------------------- Scripts

TEST(ScanScript, DefaultColorScriptHas10ValidScans) {
  const auto script = DefaultProgressiveScript(3);
  EXPECT_EQ(script.size(), 10u);
  EXPECT_TRUE(ValidateProgressiveScript(script, 3));
}

TEST(ScanScript, DefaultGrayscaleScriptIsValid) {
  const auto script = DefaultProgressiveScript(1);
  EXPECT_EQ(script.size(), 6u);
  EXPECT_TRUE(ValidateProgressiveScript(script, 1));
}

TEST(ScanScript, RejectsRefinementBeforeFirstPass) {
  std::vector<ScanSpec> script(1);
  script[0].component_indices = {0};
  script[0].ss = 1;
  script[0].se = 63;
  script[0].ah = 1;
  script[0].al = 0;
  EXPECT_FALSE(ValidateProgressiveScript(script, 1));
}

TEST(ScanScript, RejectsMultiComponentAcScan) {
  std::vector<ScanSpec> script(1);
  script[0].component_indices = {0, 1};
  script[0].ss = 1;
  script[0].se = 63;
  EXPECT_FALSE(ValidateProgressiveScript(script, 2));
}

// ---------------------------------------------------------------- Codec

class CodecRoundTrip : public ::testing::TestWithParam<
                           std::tuple<int, int, bool, bool, int>> {};

TEST_P(CodecRoundTrip, EncodeDecodePsnr) {
  const auto [w, h, color, progressive, quality] = GetParam();
  const Image original = MakeTestImage(w, h, color, 99);
  EncodeOptions options;
  options.quality = quality;
  options.progressive = progressive;
  auto encoded = Encode(original, options);
  ASSERT_TRUE(encoded.ok()) << encoded.status();
  auto decoded = DecodeFull(*encoded);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_TRUE(decoded->complete);
  EXPECT_EQ(decoded->image.width(), w);
  EXPECT_EQ(decoded->image.height(), h);
  EXPECT_EQ(decoded->image.channels(), color ? 3 : 1);
  const double psnr = Psnr(original, decoded->image);
  // Quality >= 75 should comfortably exceed 27 dB on this content.
  EXPECT_GT(psnr, 27.0) << "w=" << w << " h=" << h << " q=" << quality;
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, CodecRoundTrip,
    ::testing::Values(
        std::make_tuple(64, 64, true, false, 90),
        std::make_tuple(64, 64, true, true, 90),
        std::make_tuple(97, 55, true, false, 90),   // Non-multiple-of-16.
        std::make_tuple(97, 55, true, true, 90),
        std::make_tuple(128, 96, false, false, 90),  // Grayscale.
        std::make_tuple(128, 96, false, true, 90),
        std::make_tuple(80, 80, true, true, 75),
        std::make_tuple(80, 80, true, true, 95),
        std::make_tuple(8, 8, true, true, 90),       // Single MCU-ish.
        std::make_tuple(17, 9, true, true, 90)));

TEST(Codec, ProgressiveMatchesBaselinePixels) {
  // Progressive is a reordering of the same coefficients: fully decoded
  // output must match the baseline decode bit-for-bit.
  const Image original = MakeTestImage(120, 88, true, 7);
  EncodeOptions base_opts;
  base_opts.quality = 85;
  auto baseline = Encode(original, base_opts).MoveValue();

  auto progressive = TranscodeToProgressive(baseline).MoveValue();
  const Image from_base = Decode(baseline).MoveValue();
  const Image from_prog = Decode(progressive).MoveValue();
  ASSERT_TRUE(from_base.SameShape(from_prog));
  EXPECT_EQ(0, memcmp(from_base.data(), from_prog.data(),
                      from_base.size_bytes()));
}

TEST(Codec, TranscodeIsLosslessOnCoefficients) {
  const Image original = MakeTestImage(96, 72, true, 13);
  EncodeOptions opts;
  opts.quality = 90;
  auto baseline = Encode(original, opts).MoveValue();
  auto progressive = TranscodeToProgressive(baseline).MoveValue();

  auto base_data = DecodeToCoefficients(baseline).MoveValue();
  auto prog_data = DecodeToCoefficients(progressive).MoveValue();
  // Compare the nominal (visible) blocks: baseline interleaved scans also
  // carry AC for MCU padding blocks that progressive per-component scans
  // rightly skip, so padding blocks may differ without any loss.
  for (size_t c = 0; c < base_data.frame.components.size(); ++c) {
    const auto& info = base_data.frame.components[c];
    for (int by = 0; by < info.height_blocks; ++by) {
      for (int bx = 0; bx < info.width_blocks; ++bx) {
        EXPECT_EQ(base_data.coefficients.block(static_cast<int>(c), bx, by),
                  prog_data.coefficients.block(static_cast<int>(c), bx, by))
            << "comp " << c << " block (" << bx << "," << by << ")";
      }
    }
  }
}

TEST(Codec, ProgressiveSmallerThanBaselineTypically) {
  const Image original = MakeTestImage(320, 240, true, 5);
  EncodeOptions opts;
  opts.quality = 90;
  auto baseline = Encode(original, opts).MoveValue();
  auto progressive = TranscodeToProgressive(baseline).MoveValue();
  // The paper: progressive "are actually often smaller in practice"; our
  // optimized progressive tables should be within ~5% either way.
  EXPECT_LT(progressive.size(),
            static_cast<size_t>(1.05 * baseline.size()));
}

TEST(Codec, PartialScanQualityIsMonotonic) {
  const Image original = MakeTestImage(160, 120, true, 21);
  EncodeOptions opts;
  opts.quality = 90;
  opts.progressive = true;
  auto encoded = Encode(original, opts).MoveValue();
  auto index = IndexScans(encoded).MoveValue();
  ASSERT_EQ(index.scans.size(), 10u);

  double prev_mssim = 0.0;
  for (int scans = 1; scans <= 10; ++scans) {
    const std::string prefix = AssemblePrefix(encoded, index, scans);
    auto result = DecodeFull(prefix);
    ASSERT_TRUE(result.ok()) << "scans=" << scans << ": " << result.status();
    EXPECT_EQ(result->scans_decoded, scans);
    const double mssim = Msssim(original, result->image);
    // Allow microscopic non-monotonicity from chroma upsampling.
    EXPECT_GE(mssim, prev_mssim - 0.01) << "scans=" << scans;
    prev_mssim = mssim;
  }
  EXPECT_GT(prev_mssim, 0.95);
}

TEST(Codec, PrefixWithAllScansDecodesComplete) {
  const Image original = MakeTestImage(80, 64, true, 33);
  EncodeOptions opts;
  opts.progressive = true;
  auto encoded = Encode(original, opts).MoveValue();
  auto index = IndexScans(encoded).MoveValue();
  const std::string full = AssemblePrefix(encoded, index, 10);
  auto result = DecodeFull(full).MoveValue();
  EXPECT_TRUE(result.complete);
  const Image direct = Decode(encoded).MoveValue();
  EXPECT_EQ(0, memcmp(direct.data(), result.image.data(),
                      direct.size_bytes()));
}

TEST(Codec, TruncatedMidScanStillDecodes) {
  const Image original = MakeTestImage(96, 96, true, 44);
  EncodeOptions opts;
  opts.progressive = true;
  auto encoded = Encode(original, opts).MoveValue();
  // Cut in the middle of the byte stream (mid-scan, no EOI).
  Slice truncated(encoded.data(), encoded.size() / 2);
  auto result = DecodeFull(truncated);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_FALSE(result->complete);
  EXPECT_EQ(result->image.width(), 96);
}

TEST(Codec, RejectsGarbage) {
  EXPECT_FALSE(Decode(Slice("not a jpeg at all")).ok());
  std::string soi_only = {'\xFF', '\xD8'};
  EXPECT_FALSE(Decode(Slice(soi_only)).ok());
}

TEST(Codec, QualityControlsSize) {
  const Image original = MakeTestImage(200, 150, true, 55);
  size_t prev_size = 0;
  for (int quality : {30, 60, 90}) {
    EncodeOptions opts;
    opts.quality = quality;
    auto encoded = Encode(original, opts).MoveValue();
    EXPECT_GT(encoded.size(), prev_size) << "quality=" << quality;
    prev_size = encoded.size();
  }
}

TEST(Codec, Subsampling420SmallerThan444) {
  const Image original = MakeTestImage(200, 150, true, 56);
  EncodeOptions opts444;
  opts444.subsampling = ChromaSubsampling::k444;
  EncodeOptions opts420;
  opts420.subsampling = ChromaSubsampling::k420;
  auto e444 = Encode(original, opts444).MoveValue();
  auto e420 = Encode(original, opts420).MoveValue();
  EXPECT_LT(e420.size(), e444.size());
}

// ---------------------------------------------------------------- Indexing

TEST(ScanIndex, OffsetsPartitionTheFile) {
  const Image original = MakeTestImage(100, 80, true, 66);
  EncodeOptions opts;
  opts.progressive = true;
  auto encoded = Encode(original, opts).MoveValue();
  auto index = IndexScans(encoded).MoveValue();

  EXPECT_TRUE(index.progressive);
  EXPECT_TRUE(index.has_eoi);
  EXPECT_EQ(index.num_components, 3);
  ASSERT_EQ(index.scans.size(), 10u);
  // Scans tile [header_end, eoi_offset) without gaps.
  size_t cursor = index.header_end;
  for (const auto& scan : index.scans) {
    EXPECT_EQ(scan.start, cursor);
    EXPECT_GT(scan.end, scan.start);
    cursor = scan.end;
  }
  EXPECT_EQ(cursor, index.eoi_offset);
  EXPECT_EQ(index.eoi_offset + 2, encoded.size());
}

TEST(ScanIndex, SpecsMatchDefaultScript) {
  const Image original = MakeTestImage(64, 64, true, 67);
  EncodeOptions opts;
  opts.progressive = true;
  auto encoded = Encode(original, opts).MoveValue();
  auto index = IndexScans(encoded).MoveValue();
  const auto script = DefaultProgressiveScript(3);
  ASSERT_EQ(index.scans.size(), script.size());
  for (size_t i = 0; i < script.size(); ++i) {
    EXPECT_EQ(index.scans[i].spec.component_indices,
              script[i].component_indices) << "scan " << i;
    EXPECT_EQ(index.scans[i].spec.ss, script[i].ss) << "scan " << i;
    EXPECT_EQ(index.scans[i].spec.se, script[i].se) << "scan " << i;
    EXPECT_EQ(index.scans[i].spec.ah, script[i].ah) << "scan " << i;
    EXPECT_EQ(index.scans[i].spec.al, script[i].al) << "scan " << i;
  }
}

TEST(ScanIndex, BaselineHasOneScan) {
  const Image original = MakeTestImage(64, 64, true, 68);
  auto encoded = Encode(original, EncodeOptions{}).MoveValue();
  auto index = IndexScans(encoded).MoveValue();
  EXPECT_FALSE(index.progressive);
  EXPECT_EQ(index.scans.size(), 1u);
}

// ------------------------------------------------------- Encoder output

// CRC32C over a sequence of encoder outputs, each prefixed by its length so
// that bytes moving across an output boundary still change the digest.
class StreamDigest {
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

// The encoder's output is pinned byte for byte: every PCR file, and every
// byte a loader reads back, is exactly what EncodeFromData writes. The
// digests were recorded from the original two-pass (statistics walk, then
// emit walk) encoder; the single-walk tokenizer that replaced it must
// reproduce them unchanged. A deliberate format change re-records them.
TEST(Codec, EncoderOutputIsByteStable) {
  const DatasetSpec spec = DatasetSpec::ImageNetLike();
  StreamDigest baseline, transcoded, std_tables, optimized;
  for (int i = 0; i < 32; ++i) {
    const Image img =
        GenerateImage(spec, ClassForImage(spec, i), spec.seed * 100000 + i);
    EncodeOptions options;
    options.quality = spec.jpeg_quality;
    const std::string jpeg = Encode(img, options).MoveValue();
    baseline.Add(jpeg);
    transcoded.Add(TranscodeToProgressive(jpeg).MoveValue());
    const JpegData data = DecodeToCoefficients(jpeg).MoveValue();
    std_tables.Add(EncodeFromData(data, false).MoveValue());
    optimized.Add(EncodeFromData(data, false, {}, true).MoveValue());
  }

  StreamDigest gray;
  const Image gray_img = MakeTestImage(203, 149, false, 21);
  for (bool progressive : {false, true}) {
    EncodeOptions options;
    options.progressive = progressive;
    gray.Add(Encode(gray_img, options).MoveValue());
  }
  EncodeOptions gray_optimized;
  gray_optimized.optimize_huffman = true;
  gray.Add(Encode(gray_img, gray_optimized).MoveValue());

  StreamDigest full_chroma;
  const Image color_img = MakeTestImage(121, 87, true, 22);
  for (bool progressive : {false, true}) {
    EncodeOptions options;
    options.subsampling = ChromaSubsampling::k444;
    options.progressive = progressive;
    full_chroma.Add(Encode(color_img, options).MoveValue());
  }

  EXPECT_EQ(baseline.value(), 0x4671420eu) << "Encode, baseline";
  EXPECT_EQ(transcoded.value(), 0xd5934f06u) << "TranscodeToProgressive";
  EXPECT_EQ(std_tables.value(), 0x4671420eu)
      << "EncodeFromData, standard tables";
  EXPECT_EQ(optimized.value(), 0xd6ff864du)
      << "EncodeFromData, optimized tables";
  EXPECT_EQ(gray.value(), 0x0d24639du) << "grayscale";
  EXPECT_EQ(full_chroma.value(), 0x484d1ec7u) << "4:4:4";
}

// A magnitude category above 15 has no code a decoder accepts (and an AC
// size of 16 would spill into the run nibble of its symbol), so the encoder
// refuses such values instead of writing a stream it cannot read back.

JpegData SmallCoefficients() {
  const Image img = MakeTestImage(64, 48, true, 90);
  return DecodeToCoefficients(Encode(img, EncodeOptions{}).MoveValue())
      .MoveValue();
}

// One progressive pass per coefficient, all at Al = 0: no point transform
// narrows a value before it is coded.
std::vector<ScanSpec> FullPrecisionScript() {
  std::vector<ScanSpec> script(4);
  script[0].component_indices = {0, 1, 2};
  script[0].se = 0;
  for (int c = 0; c < 3; ++c) {
    script[c + 1].component_indices = {c};
    script[c + 1].ss = 1;
  }
  return script;
}

void ExpectSameCoefficients(const std::string& stream, const JpegData& want) {
  const JpegData got = DecodeToCoefficients(stream).MoveValue();
  for (size_t c = 0; c < want.frame.components.size(); ++c) {
    const auto& info = want.frame.components[c];
    for (int by = 0; by < info.height_blocks; ++by) {
      for (int bx = 0; bx < info.width_blocks; ++bx) {
        ASSERT_EQ(got.coefficients.block(static_cast<int>(c), bx, by),
                  want.coefficients.block(static_cast<int>(c), bx, by))
            << "comp " << c << " block (" << bx << "," << by << ")";
      }
    }
  }
}

TEST(Codec, EncoderRejectsSixteenBitDcDifference) {
  JpegData data = SmallCoefficients();
  data.coefficients.block(0, 0, 0)[0] = 32767;
  data.coefficients.block(0, 1, 0)[0] = -32768;  // Difference -65535.
  for (bool optimize : {false, true}) {
    EXPECT_TRUE(EncodeFromData(data, false, {}, optimize)
                    .status()
                    .IsInvalidArgument())
        << "optimize_huffman=" << optimize;
  }
  EXPECT_TRUE(EncodeFromData(data, true, FullPrecisionScript())
                  .status()
                  .IsInvalidArgument());
  // The default script's Al = 1 DC pass codes the difference in 15 bits.
  auto progressive = EncodeFromData(data, true);
  ASSERT_TRUE(progressive.ok()) << progressive.status();
  ExpectSameCoefficients(*progressive, data);
}

TEST(Codec, EncoderRejectsSixteenBitAcValue) {
  JpegData data = SmallCoefficients();
  data.coefficients.block(0, 2, 1)[kZigzag[5]] = -32768;
  for (bool optimize : {false, true}) {
    EXPECT_TRUE(EncodeFromData(data, false, {}, optimize)
                    .status()
                    .IsInvalidArgument())
        << "optimize_huffman=" << optimize;
  }
  EXPECT_TRUE(EncodeFromData(data, true, FullPrecisionScript())
                  .status()
                  .IsInvalidArgument());
  // The widest values that do fit: 15-bit AC magnitudes at Al = 0, and
  // -32768 under the default script's Al >= 1 first passes.
  auto progressive = EncodeFromData(data, true);
  ASSERT_TRUE(progressive.ok()) << progressive.status();
  ExpectSameCoefficients(*progressive, data);
  data.coefficients.block(0, 2, 1)[kZigzag[5]] = -32767;
  data.coefficients.block(0, 3, 1)[kZigzag[63]] = 32767;
  auto baseline = EncodeFromData(data, false, {}, /*optimize_huffman=*/true);
  ASSERT_TRUE(baseline.ok()) << baseline.status();
  ExpectSameCoefficients(*baseline, data);
  auto full_precision = EncodeFromData(data, true, FullPrecisionScript());
  ASSERT_TRUE(full_precision.ok()) << full_precision.status();
  ExpectSameCoefficients(*full_precision, data);
}

TEST(Codec, EncoderRejectsValuesOutsideStandardTables) {
  // The Annex K tables stop at DC category 11 and AC category 10.
  JpegData data = SmallCoefficients();
  data.coefficients.block(0, 0, 0)[0] = 4000;
  EXPECT_TRUE(EncodeFromData(data, false).status().IsInvalidArgument());
  EXPECT_TRUE(EncodeFromData(data, false, {}, true).ok());
}

// ------------------------------------------------------------- Quant tables

TEST(QuantTables, QualityScaling) {
  const auto q50 = ScaleQuantTable(kStdLumaQuant, 50);
  for (int i = 0; i < 64; ++i) EXPECT_EQ(q50[i], kStdLumaQuant[i]);
  const auto q100 = ScaleQuantTable(kStdLumaQuant, 100);
  for (int i = 0; i < 64; ++i) EXPECT_EQ(q100[i], 1);
  const auto q25 = ScaleQuantTable(kStdLumaQuant, 25);
  for (int i = 0; i < 64; ++i) EXPECT_GE(q25[i], q50[i]);
}

TEST(QuantTables, ZigzagIsAPermutation) {
  std::array<bool, 64> seen{};
  for (int i = 0; i < 64; ++i) {
    EXPECT_FALSE(seen[kZigzag[i]]);
    seen[kZigzag[i]] = true;
    EXPECT_EQ(kZigzagInverse[kZigzag[i]], i);
  }
}

}  // namespace
}  // namespace pcr::jpeg
