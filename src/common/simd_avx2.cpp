// AVX2 leg of common/simd.h: 4 x f64 lanes. This is the only TU built with
// -mavx2 (see src/common/CMakeLists.txt) — keeping it separate means the
// rest of the binary stays at the baseline ISA and the dispatcher can run
// safely on CPUs without AVX2. When the compiler lacks the flag, or under
// -DVMLP_NO_SIMD=ON, this TU degrades to an always-nullptr table and the
// dispatcher never selects the leg.
//
// Operation-for-operation the kernels mirror the scalar reference in
// simd.cpp: same ordered compares (_CMP_GE_OQ — quiet, ordered, exactly the
// scalar >= on finite inputs), max folds with lane reduction in index order.
// Tails run the scalar element loop — no masked or overhanging vector loads.

#include "common/simd.h"

#include <algorithm>
#include <limits>

#if !defined(VMLP_NO_SIMD) && defined(__AVX2__)
#define VMLP_SIMD_HAVE_AVX2 1
#include <immintrin.h>
#endif

namespace vmlp::simd::detail {

#ifdef VMLP_SIMD_HAVE_AVX2

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Max over the 4 lanes of v, reduced in index order.
double lane_max(__m256d v) {
  const __m128d lo = _mm256_castpd256_pd128(v);
  const __m128d hi = _mm256_extractf128_pd(v, 1);
  const double m01 = std::max(_mm_cvtsd_f64(lo), _mm_cvtsd_f64(_mm_unpackhi_pd(lo, lo)));
  const double m23 = std::max(_mm_cvtsd_f64(hi), _mm_cvtsd_f64(_mm_unpackhi_pd(hi, hi)));
  return std::max(m01, m23);
}

double reduce_max1_avx2(const double* x, std::size_t n) {
  double m = -kInf;
  std::size_t i = 0;
  if (n >= 4) {
    __m256d mx = _mm256_set1_pd(m);
    for (; i + 4 <= n; i += 4) mx = _mm256_max_pd(mx, _mm256_loadu_pd(x + i));
    m = lane_max(mx);
  }
  for (; i < n; ++i) m = std::max(m, x[i]);
  return m;
}

std::size_t first_ge_avx2(const double* x, std::size_t n, double threshold) {
  const __m256d th = _mm256_set1_pd(threshold);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const int mask = _mm256_movemask_pd(_mm256_cmp_pd(_mm256_loadu_pd(x + i), th, _CMP_GE_OQ));
    if (mask != 0) return i + static_cast<std::size_t>(__builtin_ctz(static_cast<unsigned>(mask)));
  }
  for (; i < n; ++i) {
    if (x[i] >= threshold) return i;
  }
  return n;
}

constexpr KernelTable kAvx2Table = {Target::kAvx2, &reduce_max1_avx2, &first_ge_avx2};

}  // namespace

const KernelTable* avx2_table() { return &kAvx2Table; }

#else  // !VMLP_SIMD_HAVE_AVX2

const KernelTable* avx2_table() { return nullptr; }

#endif

}  // namespace vmlp::simd::detail
