// Runtime kernel dispatch: CPUID detection and PCR_FORCE_ARCH resolution
// rules, plus randomized cross-checks proving every compiled SIMD kernel
// bit-exact against its scalar counterpart — the property the codec parity
// suite then leans on when CI forces each path in turn.
#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "arch/arch.h"
#include "arch/kernels.h"
#include "image/color.h"
#include "jpeg/codec.h"
#include "jpeg/dct.h"
#include "util/random.h"

namespace pcr {
namespace {

using arch::Isa;

std::vector<Isa> SupportedSimdTiers() {
  std::vector<Isa> tiers;
  for (const Isa isa : {Isa::kAvx2}) {
    // KernelsFor falls back to scalar when the tier is not compiled in;
    // only genuinely distinct tables are worth cross-checking.
    if (arch::IsaSupported(isa) && arch::KernelsFor(isa).isa == isa) {
      tiers.push_back(isa);
    }
  }
  return tiers;
}

TEST(DispatchTest, ScalarAlwaysSupportedAndDetectionIsExecutable) {
  EXPECT_TRUE(arch::IsaSupported(Isa::kScalar));
  const Isa best = arch::DetectIsa();
  EXPECT_TRUE(arch::IsaSupported(best));
  // The table handed out for the detected tier is the detected tier (or the
  // scalar fallback on non-x86 builds) and internally consistent.
  const arch::Kernels& k = arch::KernelsFor(best);
  EXPECT_STREQ(k.name, arch::IsaName(k.isa));
  EXPECT_NE(k.idct8x8, nullptr);
  EXPECT_NE(k.ycbcr_row, nullptr);
  EXPECT_NE(k.upsample_row, nullptr);
  EXPECT_NE(k.find_ff, nullptr);
}

TEST(DispatchTest, ParseIsaRoundTripsNamesAndRejectsJunk) {
  for (int i = 0; i < arch::kNumIsas; ++i) {
    const Isa isa = static_cast<Isa>(i);
    Isa parsed;
    ASSERT_TRUE(arch::ParseIsa(arch::IsaName(isa), &parsed));
    EXPECT_EQ(parsed, isa);
  }
  Isa parsed;
  EXPECT_FALSE(arch::ParseIsa(nullptr, &parsed));
  EXPECT_FALSE(arch::ParseIsa("", &parsed));
  EXPECT_FALSE(arch::ParseIsa("avx512", &parsed));
  EXPECT_FALSE(arch::ParseIsa("AVX2", &parsed));  // Names are lowercase.
}

TEST(DispatchTest, ResolveIsaUnsetUsesDetected) {
  const unsigned all = 0b11;
  std::string warning;
  EXPECT_EQ(arch::ResolveIsa(nullptr, Isa::kAvx2, all, &warning), Isa::kAvx2);
  EXPECT_EQ(arch::ResolveIsa("", Isa::kScalar, all, &warning), Isa::kScalar);
  EXPECT_TRUE(warning.empty());
}

TEST(DispatchTest, ResolveIsaOverrideWins) {
  const unsigned all = 0b11;
  std::string warning;
  EXPECT_EQ(arch::ResolveIsa("scalar", Isa::kAvx2, all, &warning),
            Isa::kScalar);
  EXPECT_EQ(arch::ResolveIsa("avx2", Isa::kScalar, all, &warning),
            Isa::kAvx2);
  EXPECT_TRUE(warning.empty());
}

TEST(DispatchTest, ResolveIsaUnknownValueWarnsAndFallsBackToScalar) {
  // A stale PCR_FORCE_ARCH=sse2 is unknown too: it warns and runs scalar.
  for (const char* force : {"neon", "sse2"}) {
    std::string warning;
    EXPECT_EQ(arch::ResolveIsa(force, Isa::kAvx2, 0b11, &warning),
              Isa::kScalar);
    EXPECT_NE(warning.find(force), std::string::npos) << warning;
    EXPECT_NE(warning.find("scalar"), std::string::npos) << warning;
  }
}

TEST(DispatchTest, ResolveIsaUnsupportedTierWarnsAndFallsBackToScalar) {
  std::string warning;
  // CPU supports scalar only; forcing avx2 must not select it.
  EXPECT_EQ(arch::ResolveIsa("avx2", Isa::kScalar, 0b01, &warning),
            Isa::kScalar);
  EXPECT_NE(warning.find("avx2"), std::string::npos);
  EXPECT_NE(warning.find("not supported"), std::string::npos);
}

// RAII guard: saves/restores PCR_FORCE_ARCH and the cached dispatch table so
// env-twiddling tests cannot leak into later tests in the same process.
class ScopedForceArchEnv {
 public:
  ScopedForceArchEnv() {
    const char* old = std::getenv("PCR_FORCE_ARCH");
    had_old_ = old != nullptr;
    if (had_old_) old_ = old;
  }
  ~ScopedForceArchEnv() {
    if (had_old_) {
      setenv("PCR_FORCE_ARCH", old_.c_str(), 1);
    } else {
      unsetenv("PCR_FORCE_ARCH");
    }
    arch::ResetDispatchForTest();
  }
  void Set(const char* value) {
    setenv("PCR_FORCE_ARCH", value, 1);
    arch::ResetDispatchForTest();
  }

 private:
  bool had_old_ = false;
  std::string old_;
};

TEST(DispatchTest, ActiveHonorsForceArchEnvironment) {
  ScopedForceArchEnv env;
  env.Set("scalar");
  EXPECT_EQ(arch::Active().isa, Isa::kScalar);
  env.Set("definitely-not-an-isa");  // Unknown: warn once, run scalar.
  EXPECT_EQ(arch::Active().isa, Isa::kScalar);
  for (const Isa isa : SupportedSimdTiers()) {
    env.Set(arch::IsaName(isa));
    EXPECT_EQ(arch::Active().isa, isa);
  }
}

TEST(DispatchTest, ForceIsaPinsTheActiveTable) {
  ScopedForceArchEnv env;  // Restores the cached table at scope exit.
  arch::ForceIsa(Isa::kScalar);
  EXPECT_EQ(arch::Active().isa, Isa::kScalar);
  for (const Isa isa : SupportedSimdTiers()) {
    arch::ForceIsa(isa);
    EXPECT_EQ(arch::Active().isa, isa);
  }
}

// --- Randomized kernel cross-checks ----------------------------------------

// Fills one coefficient block with a pattern family chosen by `select`:
// dense, sparse, DC-only, single-coefficient, near-clamp hostile (exercises
// the AVX2 wide-multiply fallback), or column/row-zero shapes that trigger
// the scalar short-circuits.
void FillBlock(Rng* rng, int select, int32_t block[64]) {
  const int32_t maxc = jpeg::kMaxDequantizedCoeff;
  std::memset(block, 0, 64 * sizeof(int32_t));
  switch (select % 6) {
    case 0:  // Dense, moderate magnitudes (typical dequantized values).
      for (int i = 0; i < 64; ++i) {
        block[i] = static_cast<int32_t>(rng->UniformInt(-4095, 4095));
      }
      break;
    case 1:  // Sparse.
      for (int i = 0; i < 64; ++i) {
        if (rng->Uniform(8) == 0) {
          block[i] = static_cast<int32_t>(rng->UniformInt(-30000, 30000));
        }
      }
      break;
    case 2:  // DC only.
      block[0] = static_cast<int32_t>(rng->UniformInt(-maxc, maxc));
      break;
    case 3:  // One random coefficient at full hostile magnitude.
      block[rng->Uniform(64)] = rng->Uniform(2) ? maxc : -maxc;
      break;
    case 4:  // Dense hostile: every coefficient near the clamp bound.
      for (int i = 0; i < 64; ++i) {
        block[i] = static_cast<int32_t>(rng->UniformInt(-maxc, maxc));
      }
      break;
    case 5:  // A few all-zero AC columns/rows to hit scalar short-circuits.
      for (int i = 0; i < 64; ++i) {
        const int col = i % 8;
        const int row = i / 8;
        if (col < 3 && row > 0) continue;  // Columns 0-2: DC only.
        if (row > 5) continue;             // Rows 6-7 of ws become zero-ish.
        block[i] = static_cast<int32_t>(rng->UniformInt(-2047, 2047));
      }
      break;
  }
}

TEST(DispatchTest, IdctKernelsMatchScalarOnRandomBlocks) {
  const std::vector<Isa> tiers = SupportedSimdTiers();
  if (tiers.empty()) GTEST_SKIP() << "no SIMD tier on this CPU/build";
  Rng rng(0x1dc7);
  constexpr int kBlocks = 10000;
  const int strides[] = {8, 11, 64};
  int32_t block[64];
  for (int n = 0; n < kBlocks; ++n) {
    FillBlock(&rng, n, block);
    const int stride = strides[n % 3];
    std::vector<uint8_t> want(static_cast<size_t>(stride) * 8, 0xa5);
    arch::IdctScalar(block, want.data(), stride);
    for (const Isa isa : tiers) {
      std::vector<uint8_t> got(static_cast<size_t>(stride) * 8, 0xa5);
      arch::KernelsFor(isa).idct8x8(block, got.data(), stride);
      ASSERT_EQ(want, got) << "block " << n << " stride " << stride
                           << " tier " << arch::IsaName(isa);
    }
  }
}

TEST(DispatchTest, ScalarYcbcrRowMatchesCanonicalFormula) {
  Rng rng(0x5ca1a);
  for (int n = 0; n < 200; ++n) {
    const int len = 1 + static_cast<int>(rng.Uniform(70));
    std::vector<uint8_t> y(len), cb(len), cr(len);
    for (int i = 0; i < len; ++i) {
      y[i] = static_cast<uint8_t>(rng.Uniform(256));
      cb[i] = static_cast<uint8_t>(rng.Uniform(256));
      cr[i] = static_cast<uint8_t>(rng.Uniform(256));
    }
    std::vector<uint8_t> got(3 * len);
    arch::YcbcrRowScalar(y.data(), cb.data(), cr.data(), got.data(), len);
    for (int i = 0; i < len; ++i) {
      uint8_t r, g, b;
      ycc::ToRgb(y[i], cb[i], cr[i], &r, &g, &b);
      ASSERT_EQ(got[3 * i + 0], r) << i;
      ASSERT_EQ(got[3 * i + 1], g) << i;
      ASSERT_EQ(got[3 * i + 2], b) << i;
    }
  }
}

TEST(DispatchTest, YcbcrRowKernelsMatchScalar) {
  const std::vector<Isa> tiers = SupportedSimdTiers();
  if (tiers.empty()) GTEST_SKIP() << "no SIMD tier on this CPU/build";
  Rng rng(0xc01e);
  for (int n = 0; n < 500; ++n) {
    const int len = static_cast<int>(rng.Uniform(100));  // Includes 0 and <8.
    std::vector<uint8_t> y(len), cb(len), cr(len);
    for (int i = 0; i < len; ++i) {
      y[i] = static_cast<uint8_t>(rng.Uniform(256));
      cb[i] = static_cast<uint8_t>(rng.Uniform(256));
      cr[i] = static_cast<uint8_t>(rng.Uniform(256));
    }
    std::vector<uint8_t> want(3 * static_cast<size_t>(len) + 1, 0x5a);
    arch::YcbcrRowScalar(y.data(), cb.data(), cr.data(), want.data(), len);
    for (const Isa isa : tiers) {
      std::vector<uint8_t> got(3 * static_cast<size_t>(len) + 1, 0x5a);
      arch::KernelsFor(isa).ycbcr_row(y.data(), cb.data(), cr.data(),
                                      got.data(), len);
      ASSERT_EQ(want, got) << "len " << len << " tier " << arch::IsaName(isa);
    }
  }
}

TEST(DispatchTest, ScalarUpsampleRowMatchesUpsampleAt) {
  Rng rng(0x0b5);
  for (int n = 0; n < 300; ++n) {
    const int cw = 1 + static_cast<int>(rng.Uniform(40));
    const int ch = 1 + static_cast<int>(rng.Uniform(6));
    Plane p(cw, ch);
    for (int j = 0; j < ch; ++j) {
      for (int i = 0; i < cw; ++i) {
        p.set(i, j, static_cast<uint8_t>(rng.Uniform(256)));
      }
    }
    const int out_w = 2 * cw - static_cast<int>(rng.Uniform(2));
    const int j = static_cast<int>(rng.Uniform(2 * ch));
    // The (row pair, vertical weight) prefold YcbcrToRgb performs.
    const int y0 = (j & 1) ? (j >> 1) : (j >> 1) - 1;
    const int wy1 = (j & 1) ? 1 : 3;
    const int ya = y0 < 0 ? 0 : (y0 > ch - 1 ? ch - 1 : y0);
    const int yb = y0 + 1 > ch - 1 ? ch - 1 : y0 + 1;
    std::vector<uint8_t> out(out_w);
    arch::UpsampleRowScalar(p.data() + static_cast<size_t>(ya) * cw,
                            p.data() + static_cast<size_t>(yb) * cw, wy1,
                            out.data(), out_w, cw);
    for (int i = 0; i < out_w; ++i) {
      ASSERT_EQ(out[i], ycc::UpsampleAt(p, i, j))
          << "i=" << i << " j=" << j << " cw=" << cw << " ch=" << ch;
    }
  }
}

TEST(DispatchTest, UpsampleRowKernelsMatchScalar) {
  const std::vector<Isa> tiers = SupportedSimdTiers();
  if (tiers.empty()) GTEST_SKIP() << "no SIMD tier on this CPU/build";
  Rng rng(0xdeca);
  for (int n = 0; n < 500; ++n) {
    const int cw = 1 + static_cast<int>(rng.Uniform(100));
    std::vector<uint8_t> r0(cw), r1(cw);
    for (int i = 0; i < cw; ++i) {
      r0[i] = static_cast<uint8_t>(rng.Uniform(256));
      r1[i] = static_cast<uint8_t>(rng.Uniform(256));
    }
    const int out_w = 2 * cw - static_cast<int>(rng.Uniform(2));
    const int wy1 = rng.Uniform(2) ? 1 : 3;
    std::vector<uint8_t> want(out_w + 1, 0x77);
    arch::UpsampleRowScalar(r0.data(), r1.data(), wy1, want.data(), out_w,
                            cw);
    for (const Isa isa : tiers) {
      std::vector<uint8_t> got(out_w + 1, 0x77);
      arch::KernelsFor(isa).upsample_row(r0.data(), r1.data(), wy1,
                                         got.data(), out_w, cw);
      ASSERT_EQ(want, got) << "cw " << cw << " out_w " << out_w << " wy1 "
                           << wy1 << " tier " << arch::IsaName(isa);
    }
  }
}

TEST(DispatchTest, FindFfKernelsMatchScalarAndNaiveScan) {
  const std::vector<Isa> tiers = SupportedSimdTiers();
  Rng rng(0xff00);
  for (int n = 0; n < 2000; ++n) {
    const size_t len = rng.Uniform(200);
    std::vector<uint8_t> buf(len + 1);  // +1: valid pointer when len == 0.
    for (size_t i = 0; i < len; ++i) {
      // 0xFE-heavy so near-miss bytes are common; ~1/16 true 0xFF.
      const uint64_t roll = rng.Uniform(16);
      buf[i] = roll == 0 ? 0xff
                         : (roll < 4 ? 0xfe
                                     : static_cast<uint8_t>(rng.Uniform(256)));
    }
    size_t naive = len;
    for (size_t i = 0; i < len; ++i) {
      if (buf[i] == 0xff) {
        naive = i;
        break;
      }
    }
    ASSERT_EQ(arch::FindFfScalar(buf.data(), len), naive) << "len " << len;
    for (const Isa isa : tiers) {
      ASSERT_EQ(arch::KernelsFor(isa).find_ff(buf.data(), len), naive)
          << "len " << len << " tier " << arch::IsaName(isa);
    }
  }
}

// --- End-to-end: every tier decodes a real stream identically ---------------

Image MakeSmallImage(int w, int h) {
  Rng rng(0x1ab);
  Image img(w, h, 3);
  for (int j = 0; j < h; ++j) {
    for (int i = 0; i < w; ++i) {
      img.set(i, j, 0, static_cast<uint8_t>((i * 7 + j * 3) & 0xff));
      img.set(i, j, 1, static_cast<uint8_t>(rng.Uniform(256)));
      img.set(i, j, 2, static_cast<uint8_t>((i * i + j) & 0xff));
    }
  }
  return img;
}

TEST(DispatchTest, FullDecodeBitExactAcrossTiersAndReportsKernel) {
  ScopedForceArchEnv env;  // Restores the cached table at scope exit.
  jpeg::EncodeOptions opts;
  opts.progressive = true;
  opts.subsampling = ChromaSubsampling::k420;
  auto encoded = jpeg::Encode(MakeSmallImage(61, 37), opts);
  ASSERT_TRUE(encoded.ok()) << encoded.status().ToString();

  arch::ForceIsa(Isa::kScalar);
  auto want = jpeg::DecodeFull(Slice(*encoded));
  ASSERT_TRUE(want.ok());
  EXPECT_STREQ(want->kernel_isa, "scalar");

  for (const Isa isa : SupportedSimdTiers()) {
    arch::ForceIsa(isa);
    auto got = jpeg::DecodeFull(Slice(*encoded));
    ASSERT_TRUE(got.ok());
    EXPECT_STREQ(got->kernel_isa, arch::IsaName(isa));
    ASSERT_EQ(want->image.size_bytes(), got->image.size_bytes());
    EXPECT_EQ(0, std::memcmp(want->image.data(), got->image.data(),
                             want->image.size_bytes()))
        << "tier " << arch::IsaName(isa);
  }
}

}  // namespace
}  // namespace pcr
