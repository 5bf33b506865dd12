// Kernel implementations and runtime dispatch for common/simd.h.
//
// This TU holds the scalar reference kernels, the SSE2 leg, and the NEON
// leg; the AVX2 leg lives in simd_avx2.cpp (its own TU so only that file is
// built with -mavx2 — nothing here may require more than the build's
// baseline ISA, or the dispatcher itself would fault on older CPUs). Every
// intrinsic leg mirrors the scalar kernel operation-for-operation: same
// ordered compares, same max — only the lane count differs.
// See simd.h for the bit-exactness contract.

#include "common/simd.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <limits>

#include "common/error.h"

#if !defined(VMLP_NO_SIMD) && defined(__SSE2__)
#define VMLP_SIMD_HAVE_SSE2 1
#include <emmintrin.h>
#endif
#if !defined(VMLP_NO_SIMD) && defined(__aarch64__)
#define VMLP_SIMD_HAVE_NEON 1
#include <arm_neon.h>
#endif

namespace vmlp::simd {

namespace detail {
/// Defined in simd_avx2.cpp: the AVX2 table, or nullptr when that TU was
/// built without AVX2 support (compiler lacks -mavx2, or VMLP_NO_SIMD).
const KernelTable* avx2_table();
}  // namespace detail

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// --------------------------------------------------------------------------
// Scalar reference kernels. These are the semantics; the intrinsic legs are
// proven against them bitwise by tests/test_simd.cpp.
// --------------------------------------------------------------------------

double reduce_max1_scalar(const double* x, std::size_t n) {
  double m = -kInf;
  for (std::size_t i = 0; i < n; ++i) m = std::max(m, x[i]);
  return m;
}

std::size_t first_ge_scalar(const double* x, std::size_t n, double threshold) {
  for (std::size_t i = 0; i < n; ++i) {
    if (x[i] >= threshold) return i;
  }
  return n;
}

constexpr KernelTable kScalarTable = {Target::kScalar, &reduce_max1_scalar, &first_ge_scalar};

// --------------------------------------------------------------------------
// SSE2 leg: 2 x f64 lanes. Unaligned loads only over [0, n) — tails fall to
// scalar element loops, never masked over-reads (ASan-clean by construction).
// --------------------------------------------------------------------------

#ifdef VMLP_SIMD_HAVE_SSE2

double reduce_max1_sse2(const double* x, std::size_t n) {
  double m = -kInf;
  std::size_t i = 0;
  if (n >= 2) {
    __m128d mx = _mm_set1_pd(m);
    for (; i + 2 <= n; i += 2) mx = _mm_max_pd(mx, _mm_loadu_pd(x + i));
    m = std::max(_mm_cvtsd_f64(mx), _mm_cvtsd_f64(_mm_unpackhi_pd(mx, mx)));
  }
  for (; i < n; ++i) m = std::max(m, x[i]);
  return m;
}

std::size_t first_ge_sse2(const double* x, std::size_t n, double threshold) {
  const __m128d th = _mm_set1_pd(threshold);
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const int mask = _mm_movemask_pd(_mm_cmpge_pd(_mm_loadu_pd(x + i), th));
    if (mask != 0) return i + ((mask & 1) != 0 ? 0 : 1);
  }
  for (; i < n; ++i) {
    if (x[i] >= threshold) return i;
  }
  return n;
}

constexpr KernelTable kSse2Table = {Target::kSse2, &reduce_max1_sse2, &first_ge_sse2};

#endif  // VMLP_SIMD_HAVE_SSE2

// --------------------------------------------------------------------------
// NEON leg (aarch64): 2 x f64 lanes, same shape as SSE2.
// --------------------------------------------------------------------------

#ifdef VMLP_SIMD_HAVE_NEON

double reduce_max1_neon(const double* x, std::size_t n) {
  double m = -kInf;
  std::size_t i = 0;
  if (n >= 2) {
    float64x2_t mx = vdupq_n_f64(m);
    for (; i + 2 <= n; i += 2) mx = vmaxq_f64(mx, vld1q_f64(x + i));
    m = std::max(vgetq_lane_f64(mx, 0), vgetq_lane_f64(mx, 1));
  }
  for (; i < n; ++i) m = std::max(m, x[i]);
  return m;
}

std::size_t first_ge_neon(const double* x, std::size_t n, double threshold) {
  const float64x2_t th = vdupq_n_f64(threshold);
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const uint64x2_t hit = vcgeq_f64(vld1q_f64(x + i), th);
    if (vgetq_lane_u64(hit, 0) != 0) return i;
    if (vgetq_lane_u64(hit, 1) != 0) return i + 1;
  }
  for (; i < n; ++i) {
    if (x[i] >= threshold) return i;
  }
  return n;
}

constexpr KernelTable kNeonTable = {Target::kNeon, &reduce_max1_neon, &first_ge_neon};

#endif  // VMLP_SIMD_HAVE_NEON

// --------------------------------------------------------------------------
// Dispatch.
// --------------------------------------------------------------------------

bool cpu_has_avx2() {
#if !defined(VMLP_NO_SIMD) && (defined(__x86_64__) || defined(__i386__))
  __builtin_cpu_init();
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

bool cpu_has_sse2() {
#if defined(VMLP_SIMD_HAVE_SSE2) && (defined(__x86_64__) || defined(__i386__))
  __builtin_cpu_init();
  return __builtin_cpu_supports("sse2") != 0;
#else
  return false;
#endif
}

std::atomic<const KernelTable*> g_active{nullptr};

const KernelTable* resolve_active() {
  const Target t =
      resolve_target(std::getenv("VMLP_NO_SIMD"), std::getenv("VMLP_SIMD_TARGET"));
  const KernelTable* table = table_for(t);
  VMLP_CHECK_MSG(table != nullptr, "dispatch resolved an unreachable SIMD target");
  const KernelTable* expected = nullptr;
  g_active.compare_exchange_strong(expected, table, std::memory_order_acq_rel);
  return g_active.load(std::memory_order_acquire);
}

}  // namespace

const char* target_name(Target t) {
  switch (t) {
    case Target::kScalar: return "scalar";
    case Target::kSse2: return "sse2";
    case Target::kAvx2: return "avx2";
    case Target::kNeon: return "neon";
  }
  return "unknown";
}

bool host_supports(Target t) { return table_for(t) != nullptr; }

const KernelTable* table_for(Target t) {
  switch (t) {
    case Target::kScalar:
      return &kScalarTable;
    case Target::kSse2:
#ifdef VMLP_SIMD_HAVE_SSE2
      return cpu_has_sse2() ? &kSse2Table : nullptr;
#else
      return nullptr;
#endif
    case Target::kAvx2:
      return cpu_has_avx2() ? detail::avx2_table() : nullptr;
    case Target::kNeon:
#ifdef VMLP_SIMD_HAVE_NEON
      return &kNeonTable;
#else
      return nullptr;
#endif
  }
  return nullptr;
}

Target resolve_target(const char* no_simd_env, const char* target_env) {
  if (no_simd_env != nullptr && no_simd_env[0] != '\0' && std::strcmp(no_simd_env, "0") != 0) {
    return Target::kScalar;
  }
  if (target_env != nullptr && target_env[0] != '\0') {
    for (std::size_t i = 0; i < kTargetCount; ++i) {
      const Target t = static_cast<Target>(i);
      if (std::strcmp(target_env, target_name(t)) == 0) {
        return host_supports(t) ? t : Target::kScalar;
      }
    }
    // Unknown name: fail safe to scalar, never guess an intrinsic leg.
    return Target::kScalar;
  }
  if (host_supports(Target::kAvx2)) return Target::kAvx2;
  if (host_supports(Target::kSse2)) return Target::kSse2;
  if (host_supports(Target::kNeon)) return Target::kNeon;
  return Target::kScalar;
}

const KernelTable& kernels() {
  const KernelTable* t = g_active.load(std::memory_order_acquire);
  if (t == nullptr) t = resolve_active();
  return *t;
}

Target active_target() { return kernels().target; }

bool enabled() { return kernels().target != Target::kScalar; }

std::vector<Target> reachable_targets() {
  std::vector<Target> out;
  for (std::size_t i = 0; i < kTargetCount; ++i) {
    const Target t = static_cast<Target>(i);
    if (host_supports(t)) out.push_back(t);
  }
  return out;
}

void set_target_for_testing(Target t) {
  const KernelTable* table = table_for(t);
  VMLP_CHECK_MSG(table != nullptr,
                 "set_target_for_testing: target " << target_name(t) << " unreachable on host");
  g_active.store(table, std::memory_order_release);
}

}  // namespace vmlp::simd
