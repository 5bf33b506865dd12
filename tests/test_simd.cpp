// common/simd.h: runtime dispatch policy and bitwise kernel equivalence.
//
// Two layers of proof:
//  * dispatch — the selected target matches what CPUID reports for this
//    host, the VMLP_NO_SIMD / VMLP_SIMD_TARGET environment policy behaves
//    as documented (driven through the pure resolve_target(), so no
//    subprocesses or setenv races), and the test-only override round-trips;
//  * kernels — every host-reachable intrinsic leg returns bit-identical
//    results to the scalar reference on randomized arrays covering every
//    tail-length class (0..2 full vectors plus 0..width-1 remainder, and
//    the topology's 32-machine block shape).
#include "common/simd.h"

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "common/rng.h"

namespace vmlp::simd {
namespace {

class ScopedTarget {
 public:
  explicit ScopedTarget(Target t) : prev_(active_target()) { set_target_for_testing(t); }
  ~ScopedTarget() { set_target_for_testing(prev_); }
  ScopedTarget(const ScopedTarget&) = delete;
  ScopedTarget& operator=(const ScopedTarget&) = delete;

 private:
  Target prev_;
};

Target best_supported() {
  if (host_supports(Target::kAvx2)) return Target::kAvx2;
  if (host_supports(Target::kSse2)) return Target::kSse2;
  if (host_supports(Target::kNeon)) return Target::kNeon;
  return Target::kScalar;
}

TEST(SimdDispatchTest, ScalarAlwaysReachable) {
  EXPECT_TRUE(host_supports(Target::kScalar));
  ASSERT_NE(table_for(Target::kScalar), nullptr);
  EXPECT_EQ(table_for(Target::kScalar)->target, Target::kScalar);
  const auto reachable = reachable_targets();
  ASSERT_FALSE(reachable.empty());
  EXPECT_EQ(reachable.front(), Target::kScalar);
}

TEST(SimdDispatchTest, DefaultResolutionMatchesCpuid) {
  // host_supports consults the same __builtin_cpu_supports CPUID probes the
  // dispatcher uses; with no environment overrides the resolved target must
  // be exactly the best one the CPU reports.
  EXPECT_EQ(resolve_target(nullptr, nullptr), best_supported());
#ifdef VMLP_NO_SIMD
  // Compiled-out build: nothing but scalar may ever be reachable.
  EXPECT_EQ(best_supported(), Target::kScalar);
  EXPECT_EQ(reachable_targets().size(), 1u);
#endif
}

TEST(SimdDispatchTest, ActiveTargetFollowsRealEnvironment) {
  // Whatever environment this test process was started with, the active
  // table must agree with the documented policy applied to it.
  const Target expected =
      resolve_target(std::getenv("VMLP_NO_SIMD"), std::getenv("VMLP_SIMD_TARGET"));
  EXPECT_EQ(active_target(), expected);
  EXPECT_EQ(kernels().target, expected);
  EXPECT_EQ(enabled(), expected != Target::kScalar);
}

TEST(SimdDispatchTest, NoSimdEnvForcesScalar) {
  EXPECT_EQ(resolve_target("1", nullptr), Target::kScalar);
  EXPECT_EQ(resolve_target("ON", nullptr), Target::kScalar);
  EXPECT_EQ(resolve_target("1", "avx2"), Target::kScalar);  // kill switch wins
  // Unset / empty / "0" do not force.
  EXPECT_EQ(resolve_target(nullptr, nullptr), best_supported());
  EXPECT_EQ(resolve_target("", nullptr), best_supported());
  EXPECT_EQ(resolve_target("0", nullptr), best_supported());
}

TEST(SimdDispatchTest, ExplicitTargetEnvSelectsOrFallsBackToScalar) {
  EXPECT_EQ(resolve_target(nullptr, "scalar"), Target::kScalar);
  for (const Target t : {Target::kSse2, Target::kAvx2, Target::kNeon}) {
    const Target got = resolve_target(nullptr, target_name(t));
    EXPECT_EQ(got, host_supports(t) ? t : Target::kScalar) << target_name(t);
  }
  // Unknown names never guess an intrinsic leg.
  EXPECT_EQ(resolve_target(nullptr, "avx512"), Target::kScalar);
}

TEST(SimdDispatchTest, TestOverrideRoundTrips) {
  const Target before = active_target();
  for (const Target t : reachable_targets()) {
    ScopedTarget scoped(t);
    EXPECT_EQ(active_target(), t);
    EXPECT_EQ(kernels().target, t);
  }
  EXPECT_EQ(active_target(), before);
}

// ---------------------------------------------------------------------------
// Kernel differential: every reachable leg vs the scalar reference, bitwise.
// ---------------------------------------------------------------------------

bool bits_equal(double a, double b) {
  std::uint64_t ua = 0;
  std::uint64_t ub = 0;
  std::memcpy(&ua, &a, sizeof(ua));
  std::memcpy(&ub, &b, sizeof(ub));
  return ua == ub;
}

class SimdKernelTest : public ::testing::Test {
 protected:
  // Mostly small non-negative values with occasional spikes, so find-first
  // kernels hit at varied positions.
  std::vector<double> random_plane(Rng& rng, std::size_t n) {
    std::vector<double> v(n);
    for (double& x : v) {
      x = rng.bernoulli(0.2) ? rng.uniform(90.0, 110.0) : rng.uniform(0.0, 60.0);
    }
    return v;
  }
};

TEST_F(SimdKernelTest, AllLegsMatchScalarBitwise) {
  const KernelTable* scalar = table_for(Target::kScalar);
  ASSERT_NE(scalar, nullptr);
  Rng rng(0xC0FFEEu);
  // Sizes cover empty, sub-vector, every remainder class for 2- and 4-wide
  // lanes, one topology block, and multi-block spans.
  const std::size_t sizes[] = {0, 1, 2, 3, 4, 5, 7, 8, 15, 16, 17, 31, 32, 33, 64, 100, 257};
  for (const Target t : reachable_targets()) {
    if (t == Target::kScalar) continue;
    const KernelTable* leg = table_for(t);
    ASSERT_NE(leg, nullptr);
    for (const std::size_t n : sizes) {
      for (int trial = 0; trial < 8; ++trial) {
        const auto a = random_plane(rng, n);
        EXPECT_TRUE(bits_equal(scalar->reduce_max1(a.data(), n), leg->reduce_max1(a.data(), n)))
            << target_name(t) << " reduce_max1 n=" << n;
        const double thresh = rng.uniform(0.0, 120.0);
        EXPECT_EQ(scalar->first_ge(a.data(), n, thresh), leg->first_ge(a.data(), n, thresh))
            << target_name(t) << " first_ge n=" << n;
      }
    }
  }
}

TEST_F(SimdKernelTest, FindFirstKernelsReportExactIndexOrder) {
  // A hit in lane 0 and lane 1 of the same vector must report lane 0 — on
  // every leg, at every alignment.
  for (const Target t : reachable_targets()) {
    const KernelTable* leg = table_for(t);
    ASSERT_NE(leg, nullptr);
    for (std::size_t hit = 0; hit < 9; ++hit) {
      std::vector<double> a(12, 0.0);
      for (std::size_t i = hit; i < a.size(); ++i) a[i] = 99.0;  // run of hits
      EXPECT_EQ(leg->first_ge(a.data(), a.size(), 99.0), hit) << target_name(t);
    }
  }
}

}  // namespace
}  // namespace vmlp::simd
