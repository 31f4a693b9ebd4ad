// google-benchmark microbenchmarks of the JPEG codec and PCR assembly path:
// encode, lossless transcode, full and partial decode, scan indexing, record
// prefix assembly, and MSSIM. These are the real-CPU costs behind the
// decode-overhead discussion of §A.5.
#include <benchmark/benchmark.h>

#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "arch/arch.h"
#include "arch/kernels.h"
#include "core/pcr_format.h"
#include "data/dataset_spec.h"
#include "image/metrics.h"
#include "jpeg/codec.h"
#include "jpeg/dct.h"
#include "jpeg/reference_codec.h"
#include "jpeg/scan_parser.h"
#include "util/random.h"

namespace pcr {
namespace {

Image TestImage(int w, int h) {
  DatasetSpec spec = DatasetSpec::TestTiny();
  spec.base_width = w;
  spec.base_height = h;
  spec.size_jitter = 0;
  return GenerateImage(spec, 1, 42);
}

const Image& SharedImage() {
  static const Image img = TestImage(320, 240);
  return img;
}

std::string SharedBaseline() {
  jpeg::EncodeOptions options;
  options.quality = 90;
  return jpeg::Encode(SharedImage(), options).MoveValue();
}

std::string SharedProgressive() {
  return jpeg::TranscodeToProgressive(SharedBaseline()).MoveValue();
}

void BM_EncodeBaseline(benchmark::State& state) {
  const Image& img = SharedImage();
  jpeg::EncodeOptions options;
  options.quality = 90;
  for (auto _ : state) {
    benchmark::DoNotOptimize(jpeg::Encode(img, options).MoveValue());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EncodeBaseline);

void BM_EncodeProgressive(benchmark::State& state) {
  const Image& img = SharedImage();
  jpeg::EncodeOptions options;
  options.quality = 90;
  options.progressive = true;
  for (auto _ : state) {
    benchmark::DoNotOptimize(jpeg::Encode(img, options).MoveValue());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EncodeProgressive);

void BM_TranscodeToProgressive(benchmark::State& state) {
  const std::string baseline = SharedBaseline();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        jpeg::TranscodeToProgressive(baseline).MoveValue());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TranscodeToProgressive);

// The entropy encode alone: coefficients prepared once, so each iteration
// is one progressive EncodeFromData (tokenize, build tables, emit).
void BM_EncodeFromDataProgressive(benchmark::State& state) {
  const jpeg::JpegData data =
      jpeg::DecodeToCoefficients(SharedBaseline()).MoveValue();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        jpeg::EncodeFromData(data, /*progressive=*/true).MoveValue());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EncodeFromDataProgressive);

void BM_DecodeBaseline(benchmark::State& state) {
  const std::string baseline = SharedBaseline();
  for (auto _ : state) {
    benchmark::DoNotOptimize(jpeg::Decode(baseline).MoveValue());
  }
  state.SetItemsProcessed(state.iterations());
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(baseline.size()));
}
BENCHMARK(BM_DecodeBaseline);

// The decode-worker configuration: one long-lived DecodeScratch reused
// across images (allocation-free steady state).
void BM_DecodeBaselineWithScratch(benchmark::State& state) {
  const std::string baseline = SharedBaseline();
  jpeg::DecodeScratch scratch;
  for (auto _ : state) {
    benchmark::DoNotOptimize(jpeg::Decode(baseline, &scratch).MoveValue());
  }
  state.SetItemsProcessed(state.iterations());
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(baseline.size()));
}
BENCHMARK(BM_DecodeBaselineWithScratch);

// The pre-optimization scalar path (bit-by-bit Huffman, no short-circuits,
// per-pixel render), kept as the parity oracle — benchmarked here so every
// run carries its own fast-vs-reference speedup ratio.
void BM_DecodeReferenceBaseline(benchmark::State& state) {
  const std::string baseline = SharedBaseline();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        jpeg::ReferenceCodec::Decode(baseline).MoveValue());
  }
  state.SetItemsProcessed(state.iterations());
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(baseline.size()));
}
BENCHMARK(BM_DecodeReferenceBaseline);

// Partial decode cost by scan prefix (the §A.5 progressive-overhead curve).
void BM_DecodeProgressivePrefix(benchmark::State& state) {
  const int scans = static_cast<int>(state.range(0));
  const std::string progressive = SharedProgressive();
  const auto index = jpeg::IndexScans(progressive).MoveValue();
  const std::string prefix =
      jpeg::AssemblePrefix(progressive, index, scans);
  for (auto _ : state) {
    benchmark::DoNotOptimize(jpeg::Decode(prefix).MoveValue());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DecodeProgressivePrefix)->Arg(1)->Arg(2)->Arg(5)->Arg(10);

void BM_IndexScans(benchmark::State& state) {
  const std::string progressive = SharedProgressive();
  for (auto _ : state) {
    benchmark::DoNotOptimize(jpeg::IndexScans(progressive).MoveValue());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_IndexScans);

// --- Per-arch kernel micros --------------------------------------------------
// One benchmark per compiled kernel tier so a single run carries its own
// scalar-vs-SIMD ratios; CI's regression gate checks those ratios (they are
// machine-independent) on top of the median-normalized absolute rates.
// Unsupported tiers skip with an error so the JSON row carries no rate.

bool TierRunnable(arch::Isa isa, benchmark::State& state) {
  if (!arch::IsaSupported(isa) || arch::KernelsFor(isa).isa != isa) {
    state.SkipWithError("kernel tier not supported on this CPU/build");
    return false;
  }
  return true;
}

// The 8x8 IDCT alone on a dense block (no short-circuit path).
void BM_IdctBlock(benchmark::State& state, arch::Isa isa) {
  if (!TierRunnable(isa, state)) return;
  Rng rng(0x1dc7);
  alignas(32) int32_t block[64];
  for (int i = 0; i < 64; ++i) {
    block[i] = static_cast<int32_t>(rng.UniformInt(-4095, 4095));
  }
  alignas(32) uint8_t out[64];
  const auto idct = arch::KernelsFor(isa).idct8x8;
  for (auto _ : state) {
    idct(block, out, 8);
    benchmark::DoNotOptimize(out);
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK_CAPTURE(BM_IdctBlock, scalar, arch::Isa::kScalar);
BENCHMARK_CAPTURE(BM_IdctBlock, avx2, arch::Isa::kAvx2);

// One 1024-pixel YCbCr->RGB row conversion.
void BM_YcbcrRow(benchmark::State& state, arch::Isa isa) {
  if (!TierRunnable(isa, state)) return;
  constexpr int kW = 1024;
  Rng rng(0xc01e);
  std::vector<uint8_t> y(kW), cb(kW), cr(kW), rgb(3 * kW);
  for (int i = 0; i < kW; ++i) {
    y[i] = static_cast<uint8_t>(rng.Uniform(256));
    cb[i] = static_cast<uint8_t>(rng.Uniform(256));
    cr[i] = static_cast<uint8_t>(rng.Uniform(256));
  }
  const auto row = arch::KernelsFor(isa).ycbcr_row;
  for (auto _ : state) {
    row(y.data(), cb.data(), cr.data(), rgb.data(), kW);
    benchmark::DoNotOptimize(rgb.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations());
  state.SetBytesProcessed(state.iterations() * int64_t{3 * kW});
}
BENCHMARK_CAPTURE(BM_YcbcrRow, scalar, arch::Isa::kScalar);
BENCHMARK_CAPTURE(BM_YcbcrRow, avx2, arch::Isa::kAvx2);

// Full-image baseline decode with the kernel path pinned (the number the
// AVX2-vs-scalar CI ratio gate reads). Restores env-resolved dispatch after.
void BM_DecodeArch(benchmark::State& state, arch::Isa isa) {
  if (!TierRunnable(isa, state)) return;
  const std::string baseline = SharedBaseline();
  jpeg::DecodeScratch scratch;
  arch::ForceIsa(isa);
  for (auto _ : state) {
    benchmark::DoNotOptimize(jpeg::Decode(baseline, &scratch).MoveValue());
  }
  arch::ResetDispatchForTest();
  state.SetItemsProcessed(state.iterations());
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(baseline.size()));
}
BENCHMARK_CAPTURE(BM_DecodeArch, scalar, arch::Isa::kScalar);
BENCHMARK_CAPTURE(BM_DecodeArch, avx2, arch::Isa::kAvx2);

void BM_Msssim(benchmark::State& state) {
  const Image a = SharedImage();
  const Image b = jpeg::Decode(SharedBaseline()).MoveValue();
  for (auto _ : state) {
    benchmark::DoNotOptimize(Msssim(a, b));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Msssim);

}  // namespace
}  // namespace pcr

// Hand-rolled BENCHMARK_MAIN so the binary accepts the suite-wide --smoke
// and --json flags (or PCR_BENCH_SMOKE=1): smoke mode is translated to a
// tiny --benchmark_min_time, and --json <path> to google-benchmark's own
// JSON file output (same artifact role as bench_common's ReportMetric
// report: name, iterations, wall time, bytes, items/s per benchmark),
// before the remaining flags are handed to the google-benchmark parser.
int main(int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
  static char min_time[] = "--benchmark_min_time=0.001";
  static char out_format[] = "--benchmark_out_format=json";
  static std::string out_flag;
  bool smoke = false;
  const char* env_smoke = std::getenv("PCR_BENCH_SMOKE");
  if (env_smoke != nullptr && std::strcmp(env_smoke, "0") != 0 &&
      std::strcmp(env_smoke, "") != 0) {
    smoke = true;
  }
  for (auto it = args.begin(); it != args.end();) {
    if (std::strcmp(*it, "--smoke") == 0) {
      smoke = true;
      it = args.erase(it);
    } else if (std::strcmp(*it, "--json") == 0 && it + 1 != args.end()) {
      out_flag = std::string("--benchmark_out=") + *(it + 1);
      it = args.erase(it, it + 2);
    } else {
      ++it;
    }
  }
  if (smoke) args.push_back(min_time);
  if (!out_flag.empty()) {
    args.push_back(out_flag.data());
    args.push_back(out_format);
  }
  int adjusted_argc = static_cast<int>(args.size());
  benchmark::Initialize(&adjusted_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(adjusted_argc, args.data())) {
    return 1;
  }
  // Which kernel tier the non-pinned benchmarks ran on, and what the CPU
  // offers — lands in the JSON context block next to the run metadata.
  benchmark::AddCustomContext("kernel_path", pcr::arch::Active().name);
  benchmark::AddCustomContext("cpu_features", pcr::arch::CpuFeatureString());
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
