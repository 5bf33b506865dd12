// Differential fuzz for ReservationLedger: random interleavings of
// reserve/release/fits/max_usage/min_usage/compact_before are checked
// three ways —
//
//   * against a brute-force dense timeline (one slot per time unit), the
//     ground truth for every aggregate query;
//   * against the MapLedger oracle (tests/map_ledger.h), bit-exact: the two
//     representations perform the same arithmetic in the same order, so
//     every query — aggregates, verdicts, and the refit bound a failed fits
//     reports — must agree to the last ulp;
//   * under the audit layer's structural invariants (canonical form, cached
//     headroom freshness, the peak upper bound) on every mutation when
//     auditing is enabled.
//
// The HistoryHeavy family reproduces the simulator's shape: well over a
// thousand settled segments behind a moving "now", all edits at or after it.
// That is the regime where index searches gallop back from the tail and
// rebuilds refold only the dirty tail of the block prefix maxima.
//
// Runs under the asan-ubsan preset like every other test binary.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <vector>

#include "cluster/reservation.h"
#include "cluster/resources.h"
#include "common/audit.h"
#include "common/error.h"
#include "common/rng.h"
#include "map_ledger.h"

namespace vmlp::cluster {
namespace {

using testing::MapLedger;

constexpr SimTime kHorizon = 512;
const ResourceVector kCapacity{100.0, 400.0, 50.0};

struct ActiveWindow {
  SimTime t0;
  SimTime t1;
  ResourceVector res;
};

/// Dense ground-truth timeline: usage per unit-time slot.
struct DenseModel {
  std::vector<ResourceVector> slots{static_cast<std::size_t>(kHorizon)};

  void apply(SimTime t0, SimTime t1, const ResourceVector& res, double sign) {
    for (SimTime t = t0; t < t1; ++t) {
      auto& s = slots[static_cast<std::size_t>(t)];
      s = sign > 0 ? s + res : s - res;
    }
  }
  [[nodiscard]] ResourceVector max_over(SimTime t0, SimTime t1) const {
    ResourceVector m = slots[static_cast<std::size_t>(t0)];
    for (SimTime t = t0; t < t1; ++t) m = m.max(slots[static_cast<std::size_t>(t)]);
    return m;
  }
  [[nodiscard]] ResourceVector min_over(SimTime t0, SimTime t1) const {
    ResourceVector m = slots[static_cast<std::size_t>(t0)];
    for (SimTime t = t0; t < t1; ++t) m = m.min(slots[static_cast<std::size_t>(t)]);
    return m;
  }
};

ResourceVector random_res(Rng& rng) {
  // Quarter-unit granularity stresses float accumulation without drifting so
  // far that the brute-force comparison needs a loose tolerance.
  return ResourceVector{static_cast<double>(rng.uniform_int(1, 160)) * 0.25,
                        static_cast<double>(rng.uniform_int(0, 256)),
                        static_cast<double>(rng.uniform_int(0, 80)) * 0.25};
}

void expect_bitwise_equal(const ResourceVector& a, const ResourceVector& b, const char* what,
                          int trial, int op) {
  EXPECT_EQ(a.cpu, b.cpu) << what << " cpu diverged (trial " << trial << " op " << op << ")";
  EXPECT_EQ(a.mem, b.mem) << what << " mem diverged (trial " << trial << " op " << op << ")";
  EXPECT_EQ(a.io, b.io) << what << " io diverged (trial " << trial << " op " << op << ")";
}

TEST(LedgerFuzz, BackendsMatchEachOtherAndBruteForce) {
  Rng rng(987654321);
  for (int trial = 0; trial < 30; ++trial) {
    ReservationLedger flat(kCapacity);
    MapLedger oracle(kCapacity);
    DenseModel model;
    std::vector<ActiveWindow> active;
    SimTime origin = 0;  // times below this are compacted away
    // Covering-index hint carried across queries AND mutations — stale hints
    // must be validated away, never change a verdict.
    std::size_t hint = kNoCoverHint;

    for (int op = 0; op < 120; ++op) {
      const double dice = rng.uniform();
      if (dice < 0.40 || active.empty()) {
        // reserve
        const SimTime t0 = rng.uniform_int(origin, kHorizon - 2);
        const SimTime t1 = rng.uniform_int(t0 + 1, kHorizon - 1);
        const ResourceVector res = random_res(rng);
        flat.reserve(t0, t1, res);
        oracle.reserve(t0, t1, res);
        model.apply(t0, t1, res, +1.0);
        active.push_back(ActiveWindow{t0, t1, res});
      } else if (dice < 0.60) {
        // release a random active window
        const auto idx = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(active.size()) - 1));
        const ActiveWindow w = active[idx];
        flat.release(w.t0, w.t1, w.res);
        oracle.release(w.t0, w.t1, w.res);
        model.apply(w.t0, w.t1, w.res, -1.0);
        active.erase(active.begin() + static_cast<std::ptrdiff_t>(idx));
      } else if (dice < 0.68) {
        // compact: the anchor must not strand a pending release, so it may
        // advance at most to the earliest still-active window start.
        SimTime limit = kHorizon - 2;
        for (const ActiveWindow& w : active) limit = std::min(limit, w.t0);
        if (limit > origin) {
          const SimTime cp = rng.uniform_int(origin, limit);
          flat.compact_before(cp);
          oracle.compact_before(cp);
          origin = std::max(origin, cp);
        }
      } else {
        // queries: brute-force truth + bit-exact oracle agreement
        EXPECT_EQ(flat.segment_count(), oracle.segment_count())
            << "canonical profiles diverged (trial " << trial << " op " << op << ")";
        const SimTime t0 = rng.uniform_int(origin, kHorizon - 2);
        const SimTime t1 = rng.uniform_int(t0 + 1, kHorizon - 1);

        const ResourceVector fmax = flat.max_usage(t0, t1);
        expect_bitwise_equal(fmax, oracle.max_usage(t0, t1), "max_usage", trial, op);
        const ResourceVector truth_max = model.max_over(t0, t1);
        EXPECT_NEAR(fmax.cpu, truth_max.cpu, 1e-6) << "trial " << trial << " op " << op;
        EXPECT_NEAR(fmax.mem, truth_max.mem, 1e-6) << "trial " << trial << " op " << op;
        EXPECT_NEAR(fmax.io, truth_max.io, 1e-6) << "trial " << trial << " op " << op;

        const ResourceVector fmin = flat.min_usage(t0, t1);
        expect_bitwise_equal(fmin, oracle.min_usage(t0, t1), "min_usage", trial, op);
        const ResourceVector truth_min = model.min_over(t0, t1);
        EXPECT_NEAR(fmin.cpu, truth_min.cpu, 1e-6) << "trial " << trial << " op " << op;

        expect_bitwise_equal(flat.usage_at(t0), oracle.usage_at(t0), "usage_at", trial, op);
        expect_bitwise_equal(flat.available(t0, t1), oracle.available(t0, t1), "available",
                             trial, op);

        const ResourceVector demand = random_res(rng);
        EXPECT_EQ(flat.fits(t0, t1, demand), oracle.fits(t0, t1, demand))
            << "fits diverged (trial " << trial << " op " << op << ")";
        // fits truth: per-component, the window max is achieved bit-exactly
        // by some segment, so the per-segment test is equivalent to testing
        // the max itself.
        EXPECT_EQ(flat.fits(t0, t1, demand), (fmax + demand).fits_within(kCapacity))
            << "fits contradicts the window max (trial " << trial << " op " << op << ")";

        // span_could_fit is defined as the min-usage verdict.
        const bool span_flat = flat.span_could_fit(t0, t1, demand);
        EXPECT_EQ(span_flat, oracle.span_could_fit(t0, t1, demand))
            << "span_could_fit diverged (trial " << trial << " op " << op << ")";
        EXPECT_EQ(span_flat, (fmin + demand).fits_within(kCapacity))
            << "span_could_fit contradicts the window min (trial " << trial << " op " << op
            << ")";

        // Hinted queries agree with hint-free ones regardless of how stale
        // the carried hint is.
        const bool fits_plain = flat.fits(t0, t1, demand);
        EXPECT_EQ(fits_plain, flat.fits(t0, t1, demand, &hint))
            << "cover hint changed a fits verdict (trial " << trial << " op " << op << ")";
        EXPECT_EQ(span_flat, flat.span_could_fit(t0, t1, demand, &hint))
            << "cover hint changed a span verdict (trial " << trial << " op " << op << ")";

        // Refit bound: bit-identical to the oracle's, and sound — when fits
        // fails, every same-duration window starting at or after t0 but
        // before the bound must also fail.
        if (!fits_plain) {
          SimTime bound = std::numeric_limits<SimTime>::min();
          SimTime oracle_bound = std::numeric_limits<SimTime>::min();
          std::size_t fresh = kNoCoverHint;
          EXPECT_FALSE(flat.fits(t0, t1, demand, &fresh, &bound));
          EXPECT_FALSE(oracle.fits(t0, t1, demand, &oracle_bound));
          EXPECT_EQ(bound, oracle_bound)
              << "refit bound diverged (trial " << trial << " op " << op << ")";
          EXPECT_GT(bound, t0) << "trial " << trial << " op " << op;
          const SimDuration wdur = t1 - t0;
          const SimTime cap = std::min(bound, kHorizon - 1);
          const SimTime stride = std::max<SimTime>(1, (cap - t0) / 7);
          for (SimTime s = t0; s < cap; s += stride) {
            EXPECT_FALSE(flat.fits(s, s + wdur, demand))
                << "refit bound pruned a fitting window (trial " << trial << " op " << op
                << " start " << s << ")";
            EXPECT_FALSE(oracle.fits(s, s + wdur, demand))
                << "refit bound disagrees with the oracle (trial " << trial << " op " << op
                << " start " << s << ")";
          }
        }

        const SimDuration dur = rng.uniform_int(1, 64);
        std::size_t flat_probes = 0;
        std::size_t oracle_probes = 0;
        const SimTime ef_flat = flat.earliest_fit(t0, dur, demand, kHorizon, &flat_probes);
        const SimTime ef_oracle = oracle.earliest_fit(t0, dur, demand, kHorizon, &oracle_probes);
        EXPECT_EQ(ef_flat, ef_oracle)
            << "earliest_fit diverged (trial " << trial << " op " << op << ")";
        EXPECT_LE(flat_probes, oracle_probes)
            << "flat earliest_fit probed more than the oracle (trial " << trial << " op "
            << op << ")";
      }
    }
  }
}

/// Run-skipping regression: a long consecutive run of blocking segments must
/// be jumped in one probe, not walked boundary-by-boundary like the oracle.
TEST(LedgerFuzz, EarliestFitSkipsBlockingRunInOneProbe) {
  ReservationLedger flat({4, 4, 4});
  MapLedger oracle({4, 4, 4});
  // 40 adjacent blocking segments at distinct levels (no coalescing).
  for (int i = 0; i < 40; ++i) {
    const ResourceVector res{3.5 + 0.01 * static_cast<double>(i), 0, 0};
    flat.reserve(i * 10, (i + 1) * 10, res);
    oracle.reserve(i * 10, (i + 1) * 10, res);
  }
  const ResourceVector demand{1, 0, 0};
  std::size_t flat_probes = 0;
  std::size_t oracle_probes = 0;
  EXPECT_EQ(flat.earliest_fit(0, 20, demand, 10000, &flat_probes), 400);
  EXPECT_EQ(oracle.earliest_fit(0, 20, demand, 10000, &oracle_probes), 400);
  // One probe finds the run, the second lands past it; the oracle steps
  // through every one of the 40 boundaries first.
  EXPECT_LE(flat_probes, 3u);
  EXPECT_GE(oracle_probes, 40u);
}

/// The refit bound a failed fits() reports is the end of the *maximal*
/// blocking run, so one failure prunes every later probe that still overlaps
/// the run.
TEST(LedgerFuzz, FitsRefitBoundCoversTheWholeBlockingRun) {
  ReservationLedger flat({4, 4, 4});
  for (int i = 0; i < 40; ++i) {
    flat.reserve(100 + i * 10, 100 + (i + 1) * 10, {3.5 + 0.01 * static_cast<double>(i), 0, 0});
  }
  const ResourceVector demand{1, 0, 0};
  SimTime bound = std::numeric_limits<SimTime>::min();
  // Window [90, 110) clips the first blocking segment; the bound must jump
  // past all 40, not just the one that failed the walk.
  EXPECT_FALSE(flat.fits(90, 110, demand, nullptr, &bound));
  EXPECT_EQ(bound, 500);
  // Success leaves the bound untouched.
  bound = -1;
  EXPECT_TRUE(flat.fits(0, 50, demand, nullptr, &bound));
  EXPECT_EQ(bound, -1);
  // A run followed by a quiet tail reports the exact run end.
  ReservationLedger tail({4, 4, 4});
  tail.reserve(0, 100, {4, 0, 0});
  tail.release(50, 100, {4, 0, 0});
  // Profile: [0,50) level 4 (blocks), [50,inf) level 0. Window over the
  // blocking prefix reports the run end exactly.
  bound = std::numeric_limits<SimTime>::min();
  EXPECT_FALSE(tail.fits(10, 30, demand, nullptr, &bound));
  EXPECT_EQ(bound, 50);
}

/// An infinite blocking tail (overbooked forever from some point on) must
/// terminate, not scan to the horizon boundary-by-boundary.
TEST(LedgerFuzz, EarliestFitInfiniteTailTerminates) {
  // Release never happens; beyond t=100 the ledger is empty, so a fit at
  // t=100 exists — but cap the horizon below it.
  auto check = [](auto& ledger) {
    ledger.reserve(0, 100, {4, 0, 0});
    std::size_t probes = 0;
    EXPECT_EQ(ledger.earliest_fit(0, 10, {1, 0, 0}, 50, &probes), kTimeInfinity);
    EXPECT_LE(probes, 2u);
  };
  ReservationLedger flat({4, 4, 4});
  MapLedger oracle({4, 4, 4});
  check(flat);
  check(oracle);
}

/// Turns the audit layer on for one test and restores the previous setting.
class ScopedAudit {
 public:
  ScopedAudit() : was_(audit::enabled()) { audit::set_enabled(true); }
  ~ScopedAudit() { audit::set_enabled(was_); }
  ScopedAudit(const ScopedAudit&) = delete;
  ScopedAudit& operator=(const ScopedAudit&) = delete;

 private:
  bool was_;
};

/// Overlapping windows of random demand, `spacing` apart from time 0 onward,
/// a segment or two per window; none is ever released.
void build_history(ReservationLedger& flat, MapLedger& oracle, Rng& rng, int windows,
                   SimTime spacing) {
  for (int k = 0; k < windows; ++k) {
    const SimTime t0 = k * spacing;
    const SimTime t1 = t0 + rng.uniform_int(spacing + 1, 6 * spacing);
    const ResourceVector res = random_res(rng) * 0.25;
    flat.reserve(t0, t1, res);
    oracle.reserve(t0, t1, res);
  }
}

template <typename Fn>
bool throws(Fn&& fn) {
  try {
    fn();
  } catch (const InvariantError&) {
    return true;
  }
  return false;
}

/// Every query of the flat ledger against the oracle over [t0, t1),
/// bit for bit, then a full audit: the queries rebuilt the index, so the
/// audit checks the peak and every block prefix max against the fold.
void expect_window_matches(const ReservationLedger& flat, const MapLedger& oracle, SimTime t0,
                           SimTime t1, const ResourceVector& demand, std::size_t* hint,
                           int trial, int op) {
  expect_bitwise_equal(flat.max_usage(t0, t1), oracle.max_usage(t0, t1), "max_usage", trial, op);
  expect_bitwise_equal(flat.min_usage(t0, t1), oracle.min_usage(t0, t1), "min_usage", trial, op);
  expect_bitwise_equal(flat.usage_at(t0), oracle.usage_at(t0), "usage_at", trial, op);
  expect_bitwise_equal(flat.available(t0, t1), oracle.available(t0, t1), "available", trial,
                       op);
  SimTime bound = std::numeric_limits<SimTime>::min();
  SimTime oracle_bound = std::numeric_limits<SimTime>::min();
  const bool fits = flat.fits(t0, t1, demand, hint, &bound);
  EXPECT_EQ(fits, oracle.fits(t0, t1, demand, &oracle_bound))
      << "fits diverged (trial " << trial << " op " << op << ")";
  EXPECT_EQ(bound, oracle_bound) << "refit bound diverged (trial " << trial << " op " << op
                                 << ")";
  EXPECT_EQ(flat.span_could_fit(t0, t1, demand, hint), oracle.span_could_fit(t0, t1, demand))
      << "span_could_fit diverged (trial " << trial << " op " << op << ")";
  const SimDuration dur = std::max<SimDuration>(1, (t1 - t0) / 2);
  EXPECT_EQ(flat.earliest_fit(t0, dur, demand, t1 + 4096),
            oracle.earliest_fit(t0, dur, demand, t1 + 4096))
      << "earliest_fit diverged (trial " << trial << " op " << op << ")";
  flat.audit_invariants();
}

/// A moving "now" with 1,500+ settled segments behind it: reserves land in
/// the near future, releases free the unstarted tail of a live window (what
/// the driver does on early completion), queries probe the future, the
/// origin and deep history, and compaction drops all but the last stretch of
/// history. The audit layer runs on every mutation.
TEST(LedgerFuzz, HistoryHeavyProfileMatchesOracle) {
  const ScopedAudit audit_on;
  Rng rng(20220611);
  for (int trial = 0; trial < 4; ++trial) {
    ReservationLedger flat(kCapacity);
    MapLedger oracle(kCapacity);
    build_history(flat, oracle, rng, 2400, 2);
    ASSERT_GE(flat.segment_count(), 3000u) << "trial " << trial;
    ASSERT_EQ(flat.segment_count(), oracle.segment_count()) << "trial " << trial;

    SimTime now = 2 * 2400 + 6 * 2;  // past every history window
    SimTime origin = 0;             // exact until the first compaction
    bool compacted = false;
    std::vector<ActiveWindow> active;
    std::size_t hint = kNoCoverHint;
    for (int op = 0; op < 400; ++op) {
      now += rng.uniform_int(0, 6);
      const double dice = rng.uniform();
      if (dice < 0.35 || active.empty()) {
        const SimTime t0 = now + rng.uniform_int(0, 40);
        const SimTime t1 = t0 + rng.uniform_int(1, 60);
        const ResourceVector res = random_res(rng) * 0.25;
        flat.reserve(t0, t1, res);
        oracle.reserve(t0, t1, res);
        active.push_back(ActiveWindow{t0, t1, res});
      } else if (dice < 0.55) {
        // Release the unstarted tail of a live window; a window that already
        // ended is settled history and simply forgotten.
        const auto idx = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(active.size()) - 1));
        const ActiveWindow w = active[idx];
        active.erase(active.begin() + static_cast<std::ptrdiff_t>(idx));
        if (w.t1 > now) {
          const SimTime from = std::max(w.t0, now);
          flat.release(from, w.t1, w.res);
          oracle.release(from, w.t1, w.res);
        }
      } else if (dice < 0.58) {
        // Every edit lies at or after now, so any point before it is safe;
        // like the driver, keep a long stretch of history.
        const SimTime cp = now - rng.uniform_int(2800, 3200);
        if (cp > origin) {
          flat.compact_before(cp);
          oracle.compact_before(cp);
          origin = cp;  // a lower bound from here on: the cover of cp survives
          compacted = true;
          // The prefix erase shifted every index: the next query rebuilds
          // the whole index, and the audit checks every prefix entry.
          expect_window_matches(flat, oracle, cp, cp + 1, random_res(rng), &hint, trial, op);
        }
      } else {
        EXPECT_EQ(flat.segment_count(), oracle.segment_count())
            << "canonical profiles diverged (trial " << trial << " op " << op << ")";
        const ResourceVector demand = random_res(rng);
        // Near future, the common case.
        const SimTime f0 = now + rng.uniform_int(0, 50);
        expect_window_matches(flat, oracle, f0, f0 + rng.uniform_int(1, 80), demand, &hint,
                              trial, op);
        // Past the last segment: the window lies in the infinite tail.
        const SimTime far = now + 500 + rng.uniform_int(0, 500);
        expect_window_matches(flat, oracle, far, far + rng.uniform_int(1, 50), demand, &hint,
                              trial, op);
        // The origin (exact before any compaction, the compaction point
        // after) and deep history.
        expect_window_matches(flat, oracle, origin, origin + rng.uniform_int(1, 400), demand,
                              &hint, trial, op);
        const SimTime deep = rng.uniform_int(origin, now);
        expect_window_matches(flat, oracle, deep, deep + rng.uniform_int(1, 400), demand, &hint,
                              trial, op);
        // Before the origin both representations refuse. After a
        // compaction the exact origin is somewhere at or below the
        // compaction point, so probe just below it and demand that both
        // agree on whether the time precedes the origin, and on the level
        // when it does not.
        EXPECT_THROW(static_cast<void>(flat.usage_at(-1)), InvariantError);
        EXPECT_THROW(static_cast<void>(flat.max_usage(-1, now)), InvariantError);
        if (compacted) {
          const SimTime below = origin - rng.uniform_int(1, 20);
          const bool flat_throws = throws([&] { static_cast<void>(flat.usage_at(below)); });
          EXPECT_EQ(flat_throws, throws([&] { static_cast<void>(oracle.usage_at(below)); }))
              << "origin check diverged at t=" << below << " (trial " << trial << " op " << op
              << ")";
          if (!flat_throws) {
            expect_bitwise_equal(flat.usage_at(below), oracle.usage_at(below), "usage_at", trial,
                                 op);
          }
        }
      }
    }
  }
}

/// The tail search's edges on a long history, deterministically: the exact
/// origin before and after compaction, times before it, a future with no
/// reservations at all, and a full index rebuild after compaction.
TEST(LedgerFuzz, HistoryHeavyTailSearchEdges) {
  const ScopedAudit audit_on;
  ReservationLedger flat(kCapacity);
  MapLedger oracle(kCapacity);
  // 1,600 back-to-back windows at strictly increasing levels: one segment
  // each, boundaries exactly at multiples of 10, nothing coalesces.
  for (int k = 0; k < 1600; ++k) {
    const ResourceVector res{0.01 * static_cast<double>(k + 1), 0, 0};
    flat.reserve(k * 10, (k + 1) * 10, res);
    oracle.reserve(k * 10, (k + 1) * 10, res);
  }
  ASSERT_EQ(flat.segment_count(), 1601u);  // 1,600 levels + the empty tail
  ASSERT_EQ(oracle.segment_count(), 1601u);
  const ResourceVector demand{1, 1, 1};
  std::size_t hint = kNoCoverHint;

  // Empty future: "now" is past every reservation, so every future window
  // is the zero tail, and the peak lies deep in history.
  const SimTime now = 16000;
  expect_window_matches(flat, oracle, now, now + 100, demand, &hint, 0, 0);
  expect_window_matches(flat, oracle, now + 12345, now + 20000, demand, &hint, 0, 1);
  expect_bitwise_equal(flat.usage_at(now), ResourceVector::zero(), "empty future", 0, 2);
  // The last segment's start, and one before it.
  expect_window_matches(flat, oracle, 15999, 16001, demand, &hint, 0, 3);
  // Exactly the origin, with the whole history behind the search.
  expect_window_matches(flat, oracle, 0, 1, demand, &hint, 0, 4);
  expect_window_matches(flat, oracle, 0, now, demand, &hint, 0, 5);
  EXPECT_THROW(static_cast<void>(flat.usage_at(-1)), InvariantError);
  EXPECT_THROW(static_cast<void>(oracle.usage_at(-1)), InvariantError);

  // Compact onto a boundary: the origin becomes exactly 5000, every
  // surviving index shifts, and the next query rebuilds the whole index.
  flat.compact_before(5000);
  oracle.compact_before(5000);
  ASSERT_EQ(flat.segment_count(), 1101u);
  ASSERT_EQ(oracle.segment_count(), 1101u);
  expect_window_matches(flat, oracle, 5000, 5001, demand, &hint, 1, 0);
  expect_window_matches(flat, oracle, 5000, now, demand, &hint, 1, 1);
  EXPECT_THROW(static_cast<void>(flat.usage_at(4999)), InvariantError);
  EXPECT_THROW(static_cast<void>(oracle.usage_at(4999)), InvariantError);
  EXPECT_THROW(static_cast<void>(flat.max_usage(0, 6000)), InvariantError);
  EXPECT_THROW(static_cast<void>(flat.min_usage(4999, 6000)), InvariantError);

  // Mutations right at the new origin, at the last segment and past it.
  for (const SimTime t : {SimTime{5000}, SimTime{15990}, SimTime{20000}}) {
    flat.reserve(t, t + 5, demand);
    oracle.reserve(t, t + 5, demand);
    expect_window_matches(flat, oracle, t, t + 5, demand, &hint, 2, static_cast<int>(t));
    flat.release(t, t + 5, demand);
    oracle.release(t, t + 5, demand);
    expect_window_matches(flat, oracle, 5000, t + 10, demand, &hint, 3, static_cast<int>(t));
  }
  EXPECT_EQ(flat.segment_count(), oracle.segment_count());
}

}  // namespace
}  // namespace vmlp::cluster
