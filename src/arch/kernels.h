// Per-ISA kernel entry points behind arch::Kernels. The scalar functions are
// the canonical definitions (bit-exactness oracles); the AVX2 variants live
// in their own translation unit compiled with only -mavx2, so the binary
// runs on any x86-64 and the tier is chosen at runtime.
#pragma once

#include <cstddef>
#include <cstdint>

#include "arch/arch.h"

namespace pcr::arch {

void IdctScalar(const int32_t coeff[64], uint8_t* out, int out_stride);
void YcbcrRowScalar(const uint8_t* y, const uint8_t* cb, const uint8_t* cr,
                    uint8_t* rgb, int n);
void UpsampleRowScalar(const uint8_t* r0, const uint8_t* r1, int wy1,
                       uint8_t* out, int out_w, int chroma_w);
size_t FindFfScalar(const uint8_t* data, size_t n);

namespace detail {
/// The upsample formula over an absolute output-index span [i_begin, i_end)
/// — the SIMD kernels delegate their row edges here, where the horizontal
/// taps clamp. Position parity matters, so a pointer offset cannot express
/// this.
void UpsampleRowSpanScalar(const uint8_t* r0, const uint8_t* r1, int wy1,
                           uint8_t* out, int i_begin, int i_end, int chroma_w);
}  // namespace detail

#if PCR_ARCH_X86
void IdctAvx2(const int32_t coeff[64], uint8_t* out, int out_stride);
void YcbcrRowAvx2(const uint8_t* y, const uint8_t* cb, const uint8_t* cr,
                  uint8_t* rgb, int n);
void UpsampleRowAvx2(const uint8_t* r0, const uint8_t* r1, int wy1,
                     uint8_t* out, int out_w, int chroma_w);
size_t FindFfAvx2(const uint8_t* data, size_t n);
#endif  // PCR_ARCH_X86

}  // namespace pcr::arch
