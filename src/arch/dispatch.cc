#include "arch/arch.h"

#include <atomic>
#include <cstdlib>
#include <cstring>

#include "arch/kernels.h"
#include "util/logging.h"

namespace pcr::arch {

namespace {

constexpr Kernels kScalarKernels = {Isa::kScalar,     "scalar",
                                    &IdctScalar,      &YcbcrRowScalar,
                                    &UpsampleRowScalar, &FindFfScalar};

#if PCR_ARCH_X86
constexpr Kernels kAvx2Kernels = {Isa::kAvx2,       "avx2",
                                  &IdctAvx2,        &YcbcrRowAvx2,
                                  &UpsampleRowAvx2, &FindFfAvx2};
#endif

std::atomic<const Kernels*> g_active{nullptr};

unsigned SupportedMask() {
  unsigned mask = 0;
  for (int i = 0; i < kNumIsas; ++i) {
    if (IsaSupported(static_cast<Isa>(i))) mask |= 1u << i;
  }
  return mask;
}

}  // namespace

bool IsaSupported(Isa isa) {
  switch (isa) {
    case Isa::kScalar:
      return true;
    case Isa::kAvx2:
#if PCR_ARCH_X86
      return __builtin_cpu_supports("avx2");
#else
      return false;
#endif
  }
  return false;
}

Isa DetectIsa() {
  return IsaSupported(Isa::kAvx2) ? Isa::kAvx2 : Isa::kScalar;
}

const char* IsaName(Isa isa) {
  switch (isa) {
    case Isa::kScalar:
      return "scalar";
    case Isa::kAvx2:
      return "avx2";
  }
  return "unknown";
}

bool ParseIsa(const char* s, Isa* out) {
  if (s == nullptr) return false;
  for (int i = 0; i < kNumIsas; ++i) {
    const Isa isa = static_cast<Isa>(i);
    if (std::strcmp(s, IsaName(isa)) == 0) {
      *out = isa;
      return true;
    }
  }
  return false;
}

Isa ResolveIsa(const char* force, Isa detected, unsigned supported_mask,
               std::string* warning) {
  if (force == nullptr || force[0] == '\0') return detected;
  Isa forced;
  if (!ParseIsa(force, &forced)) {
    if (warning != nullptr) {
      *warning = std::string("PCR_FORCE_ARCH=\"") + force +
                 "\" is not one of scalar/avx2; using scalar";
    }
    return Isa::kScalar;
  }
  if ((supported_mask & (1u << static_cast<int>(forced))) == 0) {
    if (warning != nullptr) {
      *warning = std::string("PCR_FORCE_ARCH=") + force +
                 " is not supported by this CPU/build; using scalar";
    }
    return Isa::kScalar;
  }
  return forced;
}

const Kernels& KernelsFor(Isa isa) {
#if PCR_ARCH_X86
  if (isa == Isa::kAvx2) return kAvx2Kernels;
#else
  (void)isa;
#endif
  return kScalarKernels;
}

const Kernels& Active() {
  const Kernels* k = g_active.load(std::memory_order_acquire);
  if (k != nullptr) return *k;
  // Racing threads resolve to the same table; the store is idempotent.
  std::string warning;
  const Isa isa = ResolveIsa(std::getenv("PCR_FORCE_ARCH"), DetectIsa(),
                             SupportedMask(), &warning);
  if (!warning.empty()) PCR_LOG(Warning) << warning;
  k = &KernelsFor(isa);
  g_active.store(k, std::memory_order_release);
  return *k;
}

void ForceIsa(Isa isa) {
  g_active.store(&KernelsFor(isa), std::memory_order_release);
}

void ResetDispatchForTest() {
  g_active.store(nullptr, std::memory_order_release);
}

std::string CpuFeatureString() {
#if PCR_ARCH_X86
  std::string out;
  const auto append = [&out](bool present, const char* label) {
    if (!present) return;
    if (!out.empty()) out += ',';
    out += label;
  };
  // __builtin_cpu_supports requires a literal argument.
  append(__builtin_cpu_supports("sse2"), "sse2");
  append(__builtin_cpu_supports("ssse3"), "ssse3");
  append(__builtin_cpu_supports("sse4.1"), "sse4.1");
  append(__builtin_cpu_supports("sse4.2"), "sse4.2");
  append(__builtin_cpu_supports("avx"), "avx");
  append(__builtin_cpu_supports("avx2"), "avx2");
  if (out.empty()) out = "none";
  return out;
#else
  return "non-x86";
#endif
}

}  // namespace pcr::arch
