// Runtime CPU dispatch for the decode hot-path kernels (ffpic's
// arch/x86 dispatch-table idiom): the 8x8 fixed-point inverse DCT, the
// YCbCr->RGB row conversion, the bilinear chroma row upsample and the
// 0xFF scan used by the entropy reader's word-at-a-time refill.
//
// Every kernel has a scalar implementation that is the canonical,
// bit-exactness-defining path (it backs jpeg/dct.cc and image/color.h), plus
// an AVX2 variant that must produce bit-identical output. A SIMD tier stays
// only while a within-run bench ratio shows it beats the tier below.
// Selection happens once per process via CPUID into a per-function table;
// the PCR_FORCE_ARCH environment variable (or ForceIsa for tests/benches)
// pins a path, with unknown or unsupported values warning and falling back
// to scalar.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#if defined(__x86_64__) || defined(__i386__) || defined(_M_X64)
#define PCR_ARCH_X86 1
#else
#define PCR_ARCH_X86 0
#endif

namespace pcr::arch {

/// Instruction-set tiers, weakest first. Scalar is always available.
enum class Isa : int { kScalar = 0, kAvx2 = 1 };
inline constexpr int kNumIsas = 2;

/// Per-function dispatch table. All entries of one table belong to the same
/// tier; every SIMD entry is bit-exact with its scalar counterpart (enforced
/// by dispatch_test's randomized cross-checks and the codec parity suite).
struct Kernels {
  Isa isa;
  const char* name;

  /// Fixed-point inverse DCT of one dequantized block straight to clamped
  /// 8-bit samples, rows `out_stride` apart (contract of
  /// jpeg::InverseDct8x8Fixed).
  void (*idct8x8)(const int32_t coeff[64], uint8_t* out, int out_stride);

  /// Converts n YCbCr triples to interleaved RGB bytes with the canonical
  /// ycc:: fixed-point formulas.
  void (*ycbcr_row)(const uint8_t* y, const uint8_t* cb, const uint8_t* cr,
                    uint8_t* rgb, int n);

  /// One full-resolution row of the fixed 1/4-3/4 phase bilinear chroma
  /// upsample: r0/r1 are the two (already vertically clamped) chroma rows,
  /// wy1 in {1, 3} the weight of r1 in quarters, `chroma_w` their width.
  /// Writes out[0, out_w) per the ycc::UpsampleAt formula.
  void (*upsample_row)(const uint8_t* r0, const uint8_t* r1, int wy1,
                       uint8_t* out, int out_w, int chroma_w);

  /// Index of the first 0xFF byte in [data, data + n), or n if none.
  size_t (*find_ff)(const uint8_t* data, size_t n);
};

/// The active table. Resolved once (CPUID best tier, overridden by
/// PCR_FORCE_ARCH when set) and cached; an unknown or unsupported force
/// value logs a warning and selects scalar. Thread-safe.
const Kernels& Active();

/// The table for a specific tier; falls back to scalar when the tier was not
/// compiled in (non-x86 builds). Does not check CPU support — callers use
/// IsaSupported before executing AVX2 entries.
const Kernels& KernelsFor(Isa isa);

/// Best tier this CPU can execute.
Isa DetectIsa();

/// True when this CPU (and build) can execute `isa`.
bool IsaSupported(Isa isa);

/// "scalar" / "avx2".
const char* IsaName(Isa isa);

/// Parses an Isa name as accepted by PCR_FORCE_ARCH. Returns false (and
/// leaves *out alone) for anything else.
bool ParseIsa(const char* s, Isa* out);

/// The pure resolution rule behind Active(), exposed for tests: `force` is
/// the PCR_FORCE_ARCH value (null/empty = unset), `detected` the CPUID best
/// tier, `supported_mask` bit i = Isa(i) executable. Unknown or unsupported
/// force values resolve to kScalar and, when `warning` is non-null, explain
/// why there.
Isa ResolveIsa(const char* force, Isa detected, unsigned supported_mask,
               std::string* warning);

/// Pins the active table programmatically (benches, tests). The caller is
/// responsible for only forcing a supported tier. Not synchronized against
/// concurrent decoding — switch only at a quiescent point.
void ForceIsa(Isa isa);

/// Drops the cached resolution so the next Active() re-reads the
/// environment. Test-only.
void ResetDispatchForTest();

/// Comma-joined CPU feature flags relevant to the kernels (e.g.
/// "sse2,ssse3,sse4.1,sse4.2,avx,avx2"), for bench metadata.
std::string CpuFeatureString();

}  // namespace pcr::arch
