#include "jpeg/dct.h"

#include <cmath>

#include "arch/kernels.h"

namespace pcr::jpeg {

namespace {

// cos((2x+1) u pi / 16) lookup, and the 1/2 C(u) normalization.
struct DctTables {
  double cosine[8][8];  // [x][u]
  double scale[8];      // C(u)/2

  DctTables() {
    for (int x = 0; x < 8; ++x) {
      for (int u = 0; u < 8; ++u) {
        cosine[x][u] = std::cos((2 * x + 1) * u * M_PI / 16.0);
      }
    }
    for (int u = 0; u < 8; ++u) {
      scale[u] = 0.5 * (u == 0 ? 1.0 / std::sqrt(2.0) : 1.0);
    }
  }
};

const DctTables& Tables() {
  static const DctTables tables;
  return tables;
}

}  // namespace

void ForwardDct8x8(const double in[64], double out[64]) {
  const DctTables& t = Tables();
  double tmp[64];
  // Rows.
  for (int y = 0; y < 8; ++y) {
    for (int u = 0; u < 8; ++u) {
      double acc = 0.0;
      for (int x = 0; x < 8; ++x) acc += in[y * 8 + x] * t.cosine[x][u];
      tmp[y * 8 + u] = acc * t.scale[u];
    }
  }
  // Columns.
  for (int u = 0; u < 8; ++u) {
    for (int v = 0; v < 8; ++v) {
      double acc = 0.0;
      for (int y = 0; y < 8; ++y) acc += tmp[y * 8 + u] * t.cosine[y][v];
      out[v * 8 + u] = acc * t.scale[v];
    }
  }
}

// The fixed-point inverse DCT now lives in src/arch/ (kernels_scalar.cc is
// the canonical body, formerly here) so the AVX2 variant can share its
// constants and be dispatched at runtime. This wrapper keeps the historical
// entry point; hot paths call arch::Active().idct8x8 directly.
void InverseDct8x8Fixed(const int32_t coeff[64], uint8_t* out,
                        int out_stride) {
  arch::IdctScalar(coeff, out, out_stride);
}

void InverseDct8x8(const double in[64], double out[64]) {
  const DctTables& t = Tables();
  double tmp[64];
  // Columns.
  for (int u = 0; u < 8; ++u) {
    for (int y = 0; y < 8; ++y) {
      double acc = 0.0;
      for (int v = 0; v < 8; ++v) {
        acc += t.scale[v] * in[v * 8 + u] * t.cosine[y][v];
      }
      tmp[y * 8 + u] = acc;
    }
  }
  // Rows.
  for (int y = 0; y < 8; ++y) {
    for (int x = 0; x < 8; ++x) {
      double acc = 0.0;
      for (int u = 0; u < 8; ++u) {
        acc += t.scale[u] * tmp[y * 8 + u] * t.cosine[x][u];
      }
      out[y * 8 + x] = acc;
    }
  }
}

}  // namespace pcr::jpeg
