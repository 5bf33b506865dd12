// ResourceVector arithmetic and the ReservationLedger — including a
// randomized property check against a brute-force timeline model.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <vector>

#include "cluster/reservation.h"
#include "cluster/resources.h"
#include "common/audit.h"
#include "common/error.h"
#include "common/rng.h"
#include "obs/collector.h"

namespace vmlp::cluster {
namespace {

TEST(ResourceVector, Arithmetic) {
  ResourceVector a{1, 2, 3};
  ResourceVector b{10, 20, 30};
  EXPECT_EQ(a + b, (ResourceVector{11, 22, 33}));
  EXPECT_EQ(b - a, (ResourceVector{9, 18, 27}));
  EXPECT_EQ(a * 2.0, (ResourceVector{2, 4, 6}));
  EXPECT_EQ(2.0 * a, a * 2.0);
}

TEST(ResourceVector, MaxMinClamp) {
  ResourceVector a{5, 1, 9};
  ResourceVector b{3, 4, 9};
  EXPECT_EQ(a.max(b), (ResourceVector{5, 4, 9}));
  EXPECT_EQ(a.min(b), (ResourceVector{3, 1, 9}));
  EXPECT_EQ((ResourceVector{-1, 10, 5}).clamp_to({4, 4, 4}), (ResourceVector{0, 4, 4}));
}

TEST(ResourceVector, FitsWithin) {
  EXPECT_TRUE((ResourceVector{1, 1, 1}).fits_within({1, 1, 1}));
  EXPECT_TRUE((ResourceVector{1, 1, 1}).fits_within({2, 2, 2}));
  EXPECT_FALSE((ResourceVector{3, 1, 1}).fits_within({2, 2, 2}));
}

TEST(ResourceVector, EpsilonAbsorbsFloatDrift) {
  ResourceVector nearly{1.0 + 1e-9, 1.0, 1.0};
  EXPECT_TRUE(nearly.fits_within({1, 1, 1}));
  ResourceVector tiny{-1e-9, 0, 0};
  EXPECT_FALSE(tiny.any_negative());
  EXPECT_TRUE(tiny.near_zero());
}

TEST(ResourceVector, UtilizationSum) {
  ResourceVector cap{10, 10, 10};
  EXPECT_DOUBLE_EQ((ResourceVector{5, 10, 0}).utilization_sum(cap), 1.5);
  // Clamped at 1 per dimension.
  EXPECT_DOUBLE_EQ((ResourceVector{100, 0, 0}).utilization_sum(cap), 1.0);
}

TEST(ResourceVector, MaxRatioOver) {
  ResourceVector demand{4, 2, 1};
  ResourceVector alloc{2, 2, 1};
  EXPECT_DOUBLE_EQ(demand.max_ratio_over(alloc), 2.0);
  // Demanding a resource the allocation lacks entirely is infinite pressure.
  EXPECT_TRUE(std::isinf((ResourceVector{1, 0, 0}).max_ratio_over(ResourceVector{0, 1, 1})));
}

TEST(Ledger, StartsEmpty) {
  ReservationLedger ledger({10, 10, 10});
  EXPECT_EQ(ledger.usage_at(0), ResourceVector::zero());
  EXPECT_EQ(ledger.usage_at(1000000), ResourceVector::zero());
  EXPECT_TRUE(ledger.fits(0, 100, {10, 10, 10}));
  EXPECT_FALSE(ledger.fits(0, 100, {11, 10, 10}));
}

TEST(Ledger, ReserveWindowShape) {
  ReservationLedger ledger({10, 10, 10});
  ledger.reserve(100, 200, {4, 0, 0});
  EXPECT_EQ(ledger.usage_at(99).cpu, 0);
  EXPECT_EQ(ledger.usage_at(100).cpu, 4);
  EXPECT_EQ(ledger.usage_at(199).cpu, 4);
  EXPECT_EQ(ledger.usage_at(200).cpu, 0);
}

TEST(Ledger, OverlappingReservationsStack) {
  ReservationLedger ledger({10, 10, 10});
  ledger.reserve(0, 100, {4, 0, 0});
  ledger.reserve(50, 150, {4, 0, 0});
  EXPECT_EQ(ledger.usage_at(25).cpu, 4);
  EXPECT_EQ(ledger.usage_at(75).cpu, 8);
  EXPECT_EQ(ledger.usage_at(125).cpu, 4);
  EXPECT_EQ(ledger.max_usage(0, 150).cpu, 8);
  EXPECT_FALSE(ledger.fits(40, 60, {3, 0, 0}));
  EXPECT_TRUE(ledger.fits(40, 60, {2, 0, 0}));
}

TEST(Ledger, ReleaseRestores) {
  ReservationLedger ledger({10, 10, 10});
  ledger.reserve(0, 100, {4, 2, 1});
  ledger.release(0, 100, {4, 2, 1});
  EXPECT_EQ(ledger.usage_at(50), ResourceVector::zero());
  // Fully released profile coalesces back to one segment.
  EXPECT_EQ(ledger.segment_count(), 1u);
}

TEST(Ledger, PartialRelease) {
  ReservationLedger ledger({10, 10, 10});
  ledger.reserve(0, 100, {4, 0, 0});
  ledger.release(50, 100, {4, 0, 0});
  EXPECT_EQ(ledger.usage_at(25).cpu, 4);
  EXPECT_EQ(ledger.usage_at(75).cpu, 0);
}

TEST(Ledger, ReleaseBelowZeroThrows) {
  ReservationLedger ledger({10, 10, 10});
  ledger.reserve(0, 100, {4, 0, 0});
  EXPECT_THROW(ledger.release(0, 100, {5, 0, 0}), InvariantError);
}

TEST(Ledger, EmptyWindowThrows) {
  ReservationLedger ledger({10, 10, 10});
  EXPECT_THROW(ledger.reserve(100, 100, {1, 0, 0}), InvariantError);
  EXPECT_THROW((void)ledger.max_usage(50, 50), InvariantError);
}

TEST(Ledger, OverbookingIsLegalButVisible) {
  ReservationLedger ledger({10, 10, 10});
  ledger.reserve(0, 100, {8, 0, 0});
  ledger.reserve(0, 100, {8, 0, 0});  // 16 > 10: allowed
  EXPECT_EQ(ledger.usage_at(50).cpu, 16);
  EXPECT_FALSE(ledger.fits(0, 100, {1, 0, 0}));
  EXPECT_EQ(ledger.available(0, 100).cpu, 0.0);  // clamped, not negative
}

TEST(Ledger, EarliestFitImmediate) {
  ReservationLedger ledger({10, 10, 10});
  EXPECT_EQ(ledger.earliest_fit(5, 10, {10, 10, 10}, 1000), 5);
}

TEST(Ledger, EarliestFitAfterBusyWindow) {
  ReservationLedger ledger({10, 10, 10});
  ledger.reserve(0, 100, {8, 0, 0});
  EXPECT_EQ(ledger.earliest_fit(0, 10, {4, 0, 0}, 1000), 100);
}

TEST(Ledger, EarliestFitBetweenWindows) {
  ReservationLedger ledger({10, 10, 10});
  ledger.reserve(0, 100, {8, 0, 0});
  ledger.reserve(150, 250, {8, 0, 0});
  EXPECT_EQ(ledger.earliest_fit(0, 50, {4, 0, 0}, 1000), 100);
  // A 60-long window does not fit in the 50-wide gap.
  EXPECT_EQ(ledger.earliest_fit(0, 60, {4, 0, 0}, 1000), 250);
}

TEST(Ledger, EarliestFitHorizonExhausted) {
  ReservationLedger ledger({10, 10, 10});
  ledger.reserve(0, 1000, {10, 0, 0});
  EXPECT_EQ(ledger.earliest_fit(0, 10, {1, 0, 0}, 500), kTimeInfinity);
}

TEST(Ledger, CompactPreservesLevelAtPoint) {
  ReservationLedger ledger({10, 10, 10});
  ledger.reserve(0, 100, {2, 0, 0});
  ledger.reserve(100, 200, {5, 0, 0});
  ledger.reserve(200, 300, {7, 0, 0});
  ledger.compact_before(150);
  EXPECT_EQ(ledger.usage_at(150).cpu, 5);
  EXPECT_EQ(ledger.usage_at(250).cpu, 7);
  EXPECT_EQ(ledger.usage_at(350).cpu, 0);
}

TEST(Ledger, QueryBeforeCompactionPointThrows) {
  ReservationLedger ledger({10, 10, 10});
  ledger.reserve(100, 200, {5, 0, 0});
  ledger.compact_before(150);
  EXPECT_THROW(ledger.usage_at(50), InvariantError);
}

// A covering-index hint too far behind for the bounded forward walk falls
// back to the binary search, and telemetry counts that as a miss, not a hit.
TEST(Ledger, StaleHintBeyondWalkBoundCountsAsMiss) {
#ifdef VMLP_NO_OBS
  GTEST_SKIP() << "telemetry compiled out";
#endif
  ReservationLedger ledger({100, 100, 100});
  // 41 segments at distinct levels: [i*10, (i+1)*10) holds 0.5*(i+1).
  for (int i = 0; i < 41; ++i) {
    ledger.reserve(i * 10, (i + 1) * 10, {0.5 * static_cast<double>(i + 1), 0, 0});
  }
  obs::Params params;
  params.enabled = true;
  obs::Collector collector(params);
  ledger.set_observer(&collector);
  const auto& ids = collector.ledger();

  std::size_t hint = 0;  // the origin segment, 40 segments behind t = 405
  EXPECT_TRUE(ledger.span_could_fit(405, 406, {1, 0, 0}, &hint));
  EXPECT_EQ(collector.counter_value(ids.hints_hit), 0u);
  EXPECT_EQ(collector.counter_value(ids.hints_missed), 1u);
  // The fallback still leaves the covering index in the hint, so the next
  // nearby query resolves from it.
  EXPECT_TRUE(ledger.span_could_fit(405, 406, {1, 0, 0}, &hint));
  EXPECT_EQ(collector.counter_value(ids.hints_hit), 1u);
  EXPECT_EQ(collector.counter_value(ids.hints_missed), 1u);
}

// free_fraction() reads the maintained peak without an index rebuild, so it
// may only ever understate the guaranteed-free fraction — never overstate it.
// Runs with the audit layer on, which checks the peak bound on every
// mutation.
TEST(Ledger, FreeFractionNeverExceedsRecomputedValue) {
  const bool audit_was = audit::enabled();
  audit::set_enabled(true);
  const ResourceVector cap{100, 400, 50};
  auto recomputed = [&](const ResourceVector& peak) {
    // Same arithmetic as the ledger's headroom: (capacity - level) * (1/capacity).
    const double h = std::min((cap.cpu - peak.cpu) * (1.0 / cap.cpu),
                              std::min((cap.mem - peak.mem) * (1.0 / cap.mem),
                                       (cap.io - peak.io) * (1.0 / cap.io)));
    return std::max(0.0, h);
  };
  Rng rng(4242);
  ReservationLedger ledger(cap);
  struct Window {
    SimTime t0, t1;
    ResourceVector r;
  };
  std::vector<Window> active;
  SimTime origin = 0;
  for (int op = 0; op < 400; ++op) {
    const double dice = rng.uniform();
    if (dice < 0.45 || active.empty()) {
      const SimTime t0 = rng.uniform_int(origin, origin + 500);
      const Window w{t0, t0 + rng.uniform_int(1, 200),
                     {static_cast<double>(rng.uniform_int(1, 40)),
                      static_cast<double>(rng.uniform_int(0, 100)),
                      static_cast<double>(rng.uniform_int(0, 20))}};
      ledger.reserve(w.t0, w.t1, w.r);
      active.push_back(w);
    } else if (dice < 0.85) {
      const auto idx = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(active.size()) - 1));
      ledger.release(active[idx].t0, active[idx].t1, active[idx].r);
      active.erase(active.begin() + static_cast<std::ptrdiff_t>(idx));
    } else {
      SimTime limit = origin + 100;
      for (const Window& w : active) limit = std::min(limit, w.t0);
      if (limit > origin) {
        origin = rng.uniform_int(origin, limit);
        ledger.compact_before(origin);
        ledger.audit_invariants();
      }
    }
    // Read before any indexed query: the stale-high path.
    const double ff = ledger.free_fraction();
    const double truth = recomputed(ledger.max_usage(origin, kTimeInfinity));
    EXPECT_LE(ff, truth) << "op " << op;
    // max_usage rebuilt the index, which makes the peak exact again.
    EXPECT_EQ(ledger.free_fraction(), truth) << "op " << op;
    ledger.audit_invariants();
  }
  audit::set_enabled(audit_was);
}

// Property check: random reserve/release sequences must match a brute-force
// per-microsecond usage model.
TEST(LedgerProperty, MatchesBruteForceModel) {
  const SimTime kHorizon = 200;
  Rng rng(12345);
  for (int trial = 0; trial < 50; ++trial) {
    ReservationLedger ledger({100, 100, 100});
    std::vector<double> brute(kHorizon, 0.0);
    std::vector<std::tuple<SimTime, SimTime, double>> active;

    for (int op = 0; op < 40; ++op) {
      if (!active.empty() && rng.bernoulli(0.4)) {
        const auto idx = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(active.size()) - 1));
        const auto [t0, t1, amount] = active[idx];
        ledger.release(t0, t1, {amount, 0, 0});
        for (SimTime t = t0; t < t1; ++t) brute[t] -= amount;
        active.erase(active.begin() + static_cast<std::ptrdiff_t>(idx));
      } else {
        const SimTime t0 = rng.uniform_int(0, kHorizon - 2);
        const SimTime t1 = rng.uniform_int(t0 + 1, kHorizon - 1);
        const double amount = static_cast<double>(rng.uniform_int(1, 10));
        ledger.reserve(t0, t1, {amount, 0, 0});
        for (SimTime t = t0; t < t1; ++t) brute[t] += amount;
        active.emplace_back(t0, t1, amount);
      }
    }
    for (SimTime t = 0; t < kHorizon; t += 7) {
      EXPECT_NEAR(ledger.usage_at(t).cpu, brute[t], 1e-6) << "trial " << trial << " t " << t;
    }
    // max_usage over random windows matches brute-force max.
    for (int probe = 0; probe < 10; ++probe) {
      const SimTime t0 = rng.uniform_int(0, kHorizon - 2);
      const SimTime t1 = rng.uniform_int(t0 + 1, kHorizon - 1);
      double expect = 0.0;
      for (SimTime t = t0; t < t1; ++t) expect = std::max(expect, brute[t]);
      EXPECT_NEAR(ledger.max_usage(t0, t1).cpu, expect, 1e-6);
    }
  }
}

}  // namespace
}  // namespace vmlp::cluster
