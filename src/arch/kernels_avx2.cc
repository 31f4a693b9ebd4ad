// AVX2 kernels. Bit-exactness strategy: the IDCT reproduces the scalar
// int64 butterfly exactly, four int64 lanes per __m256i and two registers
// per 8-wide value. AVX2 has no 64-bit multiply, so the exact low-64
// product is built from _mm256_mul_epu32: for a positive 32-bit constant c
// and any int64 a whose true product fits in int64,
//
//   lo64(a * c) = (a_lo * c + ((a_hi * c) << 32)) mod 2^64
//
// with a_lo/a_hi the unsigned dword halves of a; the sign-extension error
// terms are multiples of 2^64 and vanish. Negated constants in the scalar
// code become subtractions so every multiply constant stays positive. The
// 64-bit arithmetic right shift AVX2 also lacks is done by biasing with
// 2^62, shifting logically, and subtracting the shifted bias; the final
// [0, 255] clamp is the saturating packs_epi32/packus_epi16 chain, which
// matches the scalar clamp exactly because both saturation points lie
// outside [0, 255].
//
// Two speedups on top: _mm256_mul_epi32 replaces the three-op exact
// multiply wherever the operand provably fits in int32 — always true in
// pass 1 (inputs are < 2^23), and true in pass 2 whenever every pass-1
// intermediate fits in 28 bits, which a cheap range test establishes per
// block (real images sit around 2^21; only hostile near-clamp coefficients
// take the generic path) — and the RGB interleave is two pshufb+or pairs
// per 8 pixels.
#include <immintrin.h>

#include <cstring>

#include "arch/idct_consts.h"
#include "arch/kernels.h"
#include "image/color.h"

namespace pcr::arch {

namespace {

// Eight int64 lanes: lo = lanes 0..3, hi = lanes 4..7.
struct V8 {
  __m256i lo, hi;
};

inline V8 Add(const V8& a, const V8& b) {
  return {_mm256_add_epi64(a.lo, b.lo), _mm256_add_epi64(a.hi, b.hi)};
}

inline V8 Sub(const V8& a, const V8& b) {
  return {_mm256_sub_epi64(a.lo, b.lo), _mm256_sub_epi64(a.hi, b.hi)};
}

template <int n>
inline V8 Shl(const V8& a) {
  return {_mm256_slli_epi64(a.lo, n), _mm256_slli_epi64(a.hi, n)};
}

// Exact low-64 product with a positive 32-bit constant for arbitrary int64
// lanes (kNarrow = false), or single-instruction _mm256_mul_epi32 when the
// lane value is known to fit in int32 (kNarrow = true; the low dword of a
// sign-extended int64 lane is the value itself).
template <bool kNarrow>
inline __m256i Mul64(__m256i a, __m256i c) {
  if (kNarrow) return _mm256_mul_epi32(a, c);
  const __m256i lo = _mm256_mul_epu32(a, c);
  const __m256i hi =
      _mm256_mul_epu32(_mm256_shuffle_epi32(a, _MM_SHUFFLE(3, 3, 1, 1)), c);
  return _mm256_add_epi64(lo, _mm256_slli_epi64(hi, 32));
}

template <bool kNarrow>
inline V8 Mul(const V8& a, int64_t c) {
  const __m256i cv = _mm256_set1_epi64x(c);
  return {Mul64<kNarrow>(a.lo, cv), Mul64<kNarrow>(a.hi, cv)};
}

// (x + 2^(n-1)) >> n arithmetically (no _mm256_srai_epi64 in AVX2), via
// logical shift of a 2^62-biased value.
template <int n>
inline V8 DescaleV(const V8& a) {
  const __m256i bias =
      _mm256_set1_epi64x((int64_t{1} << (n - 1)) + (int64_t{1} << 62));
  const __m256i unbias = _mm256_set1_epi64x(int64_t{1} << (62 - n));
  const __m256i lo =
      _mm256_sub_epi64(_mm256_srli_epi64(_mm256_add_epi64(a.lo, bias), n),
                       unbias);
  const __m256i hi =
      _mm256_sub_epi64(_mm256_srli_epi64(_mm256_add_epi64(a.hi, bias), n),
                       unbias);
  return {lo, hi};
}

inline V8 LoadRow(const int32_t* p) {
  const __m256i v = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
  return {_mm256_cvtepi32_epi64(_mm256_castsi256_si128(v)),
          _mm256_cvtepi32_epi64(_mm256_extracti128_si256(v, 1))};
}

// The scalar Loeffler butterfly, elementwise over 8 lanes, descaling by
// kShift. Scalar's `+ x * (-kFix...)` terms are subtractions here.
template <int kShift, bool kNarrow>
inline void Butterfly(const V8 in[8], V8 out[8]) {
  using namespace idct;  // NOLINT(build/namespaces)
  const V8 z1 = Mul<kNarrow>(Add(in[2], in[6]), kFix0_541196100);
  const V8 tmp2 = Sub(z1, Mul<kNarrow>(in[6], kFix1_847759065));
  const V8 tmp3 = Add(z1, Mul<kNarrow>(in[2], kFix0_765366865));
  const V8 tmp0 = Shl<kConstBits>(Add(in[0], in[4]));
  const V8 tmp1 = Shl<kConstBits>(Sub(in[0], in[4]));
  const V8 tmp10 = Add(tmp0, tmp3);
  const V8 tmp13 = Sub(tmp0, tmp3);
  const V8 tmp11 = Add(tmp1, tmp2);
  const V8 tmp12 = Sub(tmp1, tmp2);

  V8 t0 = in[7];
  V8 t1 = in[5];
  V8 t2 = in[3];
  V8 t3 = in[1];
  const V8 z1o = Add(t0, t3);
  const V8 z2o = Add(t1, t2);
  const V8 z3o = Add(t0, t2);
  const V8 z4o = Add(t1, t3);
  const V8 z5 = Mul<kNarrow>(Add(z3o, z4o), kFix1_175875602);
  t0 = Mul<kNarrow>(t0, kFix0_298631336);
  t1 = Mul<kNarrow>(t1, kFix2_053119869);
  t2 = Mul<kNarrow>(t2, kFix3_072711026);
  t3 = Mul<kNarrow>(t3, kFix1_501321110);
  const V8 z1m = Mul<kNarrow>(z1o, kFix0_899976223);  // Subtracted below.
  const V8 z2m = Mul<kNarrow>(z2o, kFix2_562915447);
  const V8 z3m = Sub(z5, Mul<kNarrow>(z3o, kFix1_961570560));
  const V8 z4m = Sub(z5, Mul<kNarrow>(z4o, kFix0_390180644));
  t0 = Sub(Add(t0, z3m), z1m);
  t1 = Sub(Add(t1, z4m), z2m);
  t2 = Sub(Add(t2, z3m), z2m);
  t3 = Sub(Add(t3, z4m), z1m);

  out[0] = DescaleV<kShift>(Add(tmp10, t3));
  out[7] = DescaleV<kShift>(Sub(tmp10, t3));
  out[1] = DescaleV<kShift>(Add(tmp11, t2));
  out[6] = DescaleV<kShift>(Sub(tmp11, t2));
  out[2] = DescaleV<kShift>(Add(tmp12, t1));
  out[5] = DescaleV<kShift>(Sub(tmp12, t1));
  out[3] = DescaleV<kShift>(Add(tmp13, t0));
  out[4] = DescaleV<kShift>(Sub(tmp13, t0));
}

// 4x4 int64 transpose of rows a..d.
inline void Tr4(__m256i a, __m256i b, __m256i c, __m256i d, __m256i o[4]) {
  const __m256i t0 = _mm256_unpacklo_epi64(a, b);  // a0 b0 a2 b2
  const __m256i t1 = _mm256_unpackhi_epi64(a, b);  // a1 b1 a3 b3
  const __m256i t2 = _mm256_unpacklo_epi64(c, d);
  const __m256i t3 = _mm256_unpackhi_epi64(c, d);
  o[0] = _mm256_permute2x128_si256(t0, t2, 0x20);
  o[1] = _mm256_permute2x128_si256(t1, t3, 0x20);
  o[2] = _mm256_permute2x128_si256(t0, t2, 0x31);
  o[3] = _mm256_permute2x128_si256(t1, t3, 0x31);
}

// 8x8 int64 transpose: o[j].lane(r) = w[r].lane(j).
inline void Transpose(const V8 w[8], V8 o[8]) {
  __m256i blk[4];
  Tr4(w[0].lo, w[1].lo, w[2].lo, w[3].lo, blk);
  for (int j = 0; j < 4; ++j) o[j].lo = blk[j];
  Tr4(w[0].hi, w[1].hi, w[2].hi, w[3].hi, blk);
  for (int j = 0; j < 4; ++j) o[4 + j].lo = blk[j];
  Tr4(w[4].lo, w[5].lo, w[6].lo, w[7].lo, blk);
  for (int j = 0; j < 4; ++j) o[j].hi = blk[j];
  Tr4(w[4].hi, w[5].hi, w[6].hi, w[7].hi, blk);
  for (int j = 0; j < 4; ++j) o[4 + j].hi = blk[j];
}

// Narrows int64 lanes (known to fit int32) to 8 packed int32.
inline __m256i Narrow(const V8& a) {
  const __m256i idx = _mm256_setr_epi32(0, 2, 4, 6, 0, 0, 0, 0);
  const __m128i lo =
      _mm256_castsi256_si128(_mm256_permutevar8x32_epi32(a.lo, idx));
  const __m128i hi =
      _mm256_castsi256_si128(_mm256_permutevar8x32_epi32(a.hi, idx));
  return _mm256_set_m128i(hi, lo);
}

// One output row: +128 level shift and saturating clamp to 8 bytes.
inline void StoreRow(const V8& row, uint8_t* dst) {
  const __m256i v = _mm256_add_epi32(Narrow(row), _mm256_set1_epi32(128));
  const __m128i p16 = _mm_packs_epi32(_mm256_castsi256_si128(v),
                                      _mm256_extracti128_si256(v, 1));
  const __m128i p8 = _mm_packus_epi16(p16, p16);
  _mm_storel_epi64(reinterpret_cast<__m128i*>(dst), p8);
}

// True when every lane of every vector lies in (-2^28, 2^28): biased by
// 2^28 all values are in [0, 2^29), so no bit >= 29 may be set. Keeps the
// largest pass-2 multiply operand (a sum of four lanes) within int32.
inline bool AllFit28(const V8 w[8]) {
  const __m256i bias = _mm256_set1_epi64x(int64_t{1} << 28);
  __m256i acc = _mm256_setzero_si256();
  for (int k = 0; k < 8; ++k) {
    acc = _mm256_or_si256(acc, _mm256_add_epi64(w[k].lo, bias));
    acc = _mm256_or_si256(acc, _mm256_add_epi64(w[k].hi, bias));
  }
  const __m256i high = _mm256_set1_epi64x(~((int64_t{1} << 29) - 1));
  return _mm256_testz_si256(acc, high) != 0;
}

}  // namespace

void IdctAvx2(const int32_t coeff[64], uint8_t* out, int out_stride) {
  V8 in[8], w[8], cols[8], res[8], rows[8];
  for (int r = 0; r < 8; ++r) in[r] = LoadRow(coeff + r * 8);
  // Pass-1 operands are bounded by 2^25 (inputs < 2^23), so the narrow
  // multiply is always exact there.
  Butterfly<idct::kConstBits - idct::kPass1Bits, true>(in, w);
  Transpose(w, cols);
  if (AllFit28(cols)) {
    Butterfly<idct::kFinalShift, true>(cols, res);
  } else {
    Butterfly<idct::kFinalShift, false>(cols, res);
  }
  Transpose(res, rows);
  for (int r = 0; r < 8; ++r) StoreRow(rows[r], out + r * out_stride);
}

namespace {

inline __m256i Load8U8(const uint8_t* p) {
  return _mm256_cvtepu8_epi32(
      _mm_loadl_epi64(reinterpret_cast<const __m128i*>(p)));
}

inline __m128i PackBytes(__m256i v32) {
  const __m128i p16 = _mm_packs_epi32(_mm256_castsi256_si128(v32),
                                      _mm256_extracti128_si256(v32, 1));
  return _mm_packus_epi16(p16, p16);  // 8 bytes in the low half.
}

}  // namespace

void YcbcrRowAvx2(const uint8_t* y, const uint8_t* cb, const uint8_t* cr,
                  uint8_t* rgb, int n) {
  // The ycc:: formulas on int32 lanes. Every biased sum is non-negative by
  // construction of kShiftBias, so the arithmetic shift equals the scalar
  // `>>` on a non-negative value, and the saturating packs equal
  // ClampToByte.
  const __m256i k128 = _mm256_set1_epi32(128);
  const __m256i bias = _mm256_set1_epi32(ycc::kHalf + ycc::kShiftBias);
  const __m256i back = _mm256_set1_epi32(256);
  const __m256i c_cr_r = _mm256_set1_epi32(ycc::kCrToR);
  const __m256i c_cb_g = _mm256_set1_epi32(ycc::kCbToG);
  const __m256i c_cr_g = _mm256_set1_epi32(ycc::kCrToG);
  const __m256i c_cb_b = _mm256_set1_epi32(ycc::kCbToB);
  // Interleave shuffles: A = [r0..r7 g0..g7], B = [b0..b7 ...]; the first
  // 16 output bytes are r g b r g b ... r5, the last 8 finish the row.
  const __m128i mask_a0 =
      _mm_setr_epi8(0, 8, -1, 1, 9, -1, 2, 10, -1, 3, 11, -1, 4, 12, -1, 5);
  const __m128i mask_b0 =
      _mm_setr_epi8(-1, -1, 0, -1, -1, 1, -1, -1, 2, -1, -1, 3, -1, -1, 4, -1);
  const __m128i mask_a1 =
      _mm_setr_epi8(13, -1, 6, 14, -1, 7, 15, -1, -1, -1, -1, -1, -1, -1, -1,
                    -1);
  const __m128i mask_b1 =
      _mm_setr_epi8(-1, 5, -1, -1, 6, -1, -1, 7, -1, -1, -1, -1, -1, -1, -1,
                    -1);
  int i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i yv = Load8U8(y + i);
    const __m256i cbm = _mm256_sub_epi32(Load8U8(cb + i), k128);
    const __m256i crm = _mm256_sub_epi32(Load8U8(cr + i), k128);
    const __m256i r32 = _mm256_add_epi32(
        yv,
        _mm256_sub_epi32(
            _mm256_srai_epi32(
                _mm256_add_epi32(_mm256_mullo_epi32(crm, c_cr_r), bias),
                ycc::kScaleBits),
            back));
    const __m256i gsum = _mm256_sub_epi32(
        _mm256_sub_epi32(bias, _mm256_mullo_epi32(cbm, c_cb_g)),
        _mm256_mullo_epi32(crm, c_cr_g));
    const __m256i g32 = _mm256_add_epi32(
        yv, _mm256_sub_epi32(_mm256_srai_epi32(gsum, ycc::kScaleBits), back));
    const __m256i b32 = _mm256_add_epi32(
        yv,
        _mm256_sub_epi32(
            _mm256_srai_epi32(
                _mm256_add_epi32(_mm256_mullo_epi32(cbm, c_cb_b), bias),
                ycc::kScaleBits),
            back));
    const __m128i a =
        _mm_unpacklo_epi64(PackBytes(r32), PackBytes(g32));  // r0..7 g0..7
    const __m128i b = PackBytes(b32);
    uint8_t* dst = rgb + 3 * i;
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst),
                     _mm_or_si128(_mm_shuffle_epi8(a, mask_a0),
                                  _mm_shuffle_epi8(b, mask_b0)));
    _mm_storel_epi64(reinterpret_cast<__m128i*>(dst + 16),
                     _mm_or_si128(_mm_shuffle_epi8(a, mask_a1),
                                  _mm_shuffle_epi8(b, mask_b1)));
  }
  if (i < n) YcbcrRowScalar(y + i, cb + i, cr + i, rgb + 3 * i, n - i);
}

void UpsampleRowAvx2(const uint8_t* r0, const uint8_t* r1, int wy1,
                     uint8_t* out, int out_w, int chroma_w) {
  constexpr int kV = 16;  // Chroma positions per iteration (2*kV outputs).
  int i = 0;
  if (out_w > 2 && chroma_w >= kV + 2) {
    detail::UpsampleRowSpanScalar(r0, r1, wy1, out, 0, 2, chroma_w);
    const __m256i w0 = _mm256_set1_epi16(static_cast<short>(4 - wy1));
    const __m256i w1 = _mm256_set1_epi16(static_cast<short>(wy1));
    const __m256i three = _mm256_set1_epi16(3);
    const __m256i eight = _mm256_set1_epi16(8);
    const auto blend = [&](int k) {
      const __m256i a = _mm256_cvtepu8_epi16(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(r0 + k)));
      const __m256i b = _mm256_cvtepu8_epi16(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(r1 + k)));
      return _mm256_add_epi16(_mm256_mullo_epi16(a, w0),
                              _mm256_mullo_epi16(b, w1));
    };
    int k = 1;
    // Interior: for outputs 2k'/2k'+1 the taps are k'-1, k', k'+1 —
    // unclamped while k' stays in [1, chroma_w - 2].
    for (; k + kV <= chroma_w - 1 && 2 * (k + kV) <= out_w; k += kV) {
      const __m256i ta = blend(k - 1);
      const __m256i tb = blend(k);
      const __m256i tc = blend(k + 1);
      const __m256i tb3 = _mm256_mullo_epi16(tb, three);
      const __m256i even = _mm256_srli_epi16(
          _mm256_add_epi16(_mm256_add_epi16(ta, tb3), eight), 4);
      const __m256i odd = _mm256_srli_epi16(
          _mm256_add_epi16(_mm256_add_epi16(tb3, tc), eight), 4);
      // packus interleaves per 128 lane: [e0..7 o0..7 | e8..15 o8..15].
      const __m256i p = _mm256_packus_epi16(even, odd);
      const __m128i plo = _mm256_castsi256_si128(p);
      const __m128i phi = _mm256_extracti128_si256(p, 1);
      _mm_storeu_si128(reinterpret_cast<__m128i*>(out + 2 * k),
                       _mm_unpacklo_epi8(plo, _mm_srli_si128(plo, 8)));
      _mm_storeu_si128(reinterpret_cast<__m128i*>(out + 2 * k + 16),
                       _mm_unpacklo_epi8(phi, _mm_srli_si128(phi, 8)));
    }
    i = 2 * k;
  }
  detail::UpsampleRowSpanScalar(r0, r1, wy1, out, i, out_w, chroma_w);
}

size_t FindFfAvx2(const uint8_t* data, size_t n) {
  const __m256i ff = _mm256_set1_epi8(static_cast<char>(0xff));
  size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(data + i));
    const uint32_t m = static_cast<uint32_t>(
        _mm256_movemask_epi8(_mm256_cmpeq_epi8(v, ff)));
    if (m != 0) return i + static_cast<size_t>(__builtin_ctz(m));
  }
  return i + FindFfScalar(data + i, n - i);
}

}  // namespace pcr::arch
