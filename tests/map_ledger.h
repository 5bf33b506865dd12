// MapLedger: the original std::map<SimTime, ResourceVector> representation
// of a machine's reservation profile, kept as a test-only oracle for
// cluster::ReservationLedger.
//
// It maintains the same canonical segment profile (split on reserve/release,
// coalesce nearly-equal neighbours, re-anchor the origin on compaction) and
// performs the same floating-point arithmetic in the same order, so every
// query answers bit-identically to the indexed flat ledger — without any of
// its caches: no block index, no peak bound, no headroom shortcut, no hints.
// earliest_fit advances one profile boundary per failed probe (no run
// skipping), which is what the probe-count regression tests compare against.
#pragma once

#include <cstddef>
#include <iterator>
#include <map>

#include "cluster/resources.h"
#include "common/error.h"
#include "common/types.h"

namespace vmlp::cluster::testing {

class MapLedger {
 public:
  explicit MapLedger(ResourceVector capacity) : capacity_(capacity) {
    profile_.emplace(0, ResourceVector::zero());
  }

  void reserve(SimTime t0, SimTime t1, const ResourceVector& r) {
    VMLP_CHECK_MSG(t0 < t1, "empty reservation window");
    const auto begin = split_at(t0);
    const auto end = split_at(t1);
    for (auto it = begin; it != end; ++it) it->second += r;
    coalesce(t0, t1);
  }

  void release(SimTime t0, SimTime t1, const ResourceVector& r) {
    VMLP_CHECK_MSG(t0 < t1, "empty release window");
    const auto begin = split_at(t0);
    const auto end = split_at(t1);
    for (auto it = begin; it != end; ++it) {
      it->second -= r;
      VMLP_CHECK_MSG(!it->second.any_negative(), "release drives profile negative");
      if (it->second.near_zero()) it->second = ResourceVector::zero();
    }
    coalesce(t0, t1);
  }

  void compact_before(SimTime t) {
    auto it = profile_.upper_bound(t);
    if (it == profile_.begin()) return;
    --it;  // segment covering t
    if (it == profile_.begin()) return;
    profile_.erase(profile_.begin(), it);
  }

  [[nodiscard]] ResourceVector usage_at(SimTime t) const { return std::prev(upper(t))->second; }

  [[nodiscard]] ResourceVector max_usage(SimTime t0, SimTime t1) const {
    VMLP_CHECK_MSG(t0 < t1, "empty query window");
    ResourceVector m = usage_at(t0);
    for (auto it = upper(t0); it != profile_.end() && it->first < t1; ++it) m = m.max(it->second);
    return m;
  }

  [[nodiscard]] ResourceVector min_usage(SimTime t0, SimTime t1) const {
    VMLP_CHECK_MSG(t0 < t1, "empty query window");
    ResourceVector m = usage_at(t0);
    for (auto it = upper(t0); it != profile_.end() && it->first < t1; ++it) m = m.min(it->second);
    return m;
  }

  [[nodiscard]] ResourceVector available(SimTime t0, SimTime t1) const {
    return (capacity_ - max_usage(t0, t1)).max(ResourceVector::zero());
  }

  [[nodiscard]] bool span_could_fit(SimTime t0, SimTime t1, const ResourceVector& r) const {
    return (min_usage(t0, t1) + r).fits_within(capacity_);
  }

  /// The admission test. On failure, `refit_out` (when non-null) receives the
  /// start of the first segment after the maximal run of blocking segments
  /// containing the window's first blocker, or kTimeInfinity when the run
  /// reaches the profile tail — the bound ReservationLedger::fits reports.
  bool fits(SimTime t0, SimTime t1, const ResourceVector& r,
            SimTime* refit_out = nullptr) const {
    if ((max_usage(t0, t1) + r).fits_within(capacity_)) return true;
    if (refit_out != nullptr) {
      auto it = std::prev(upper(t0));
      while (!blocks(it->second, r)) ++it;  // the window max blocks, so one member does
      while (it != profile_.end() && blocks(it->second, r)) ++it;
      *refit_out = it == profile_.end() ? kTimeInfinity : it->first;
    }
    return false;
  }

  /// First time >= `from` at which `r` fits for `duration`: candidates are
  /// `from`, then every profile boundary after the current candidate.
  SimTime earliest_fit(SimTime from, SimDuration duration, const ResourceVector& r,
                       SimTime horizon, std::size_t* probes_out = nullptr) const {
    std::size_t probes = 0;
    SimTime found = kTimeInfinity;
    for (SimTime t = from; t <= horizon;) {
      ++probes;
      if (fits(t, t + duration, r)) {
        found = t;
        break;
      }
      const auto it = profile_.upper_bound(t);
      if (it == profile_.end()) break;  // constant level for the rest of time
      t = it->first;
    }
    if (probes_out != nullptr) *probes_out = probes;
    return found;
  }

  [[nodiscard]] std::size_t segment_count() const { return profile_.size(); }

 private:
  using Profile = std::map<SimTime, ResourceVector>;

  [[nodiscard]] bool blocks(const ResourceVector& level, const ResourceVector& r) const {
    return !(level + r).fits_within(capacity_);
  }

  /// First segment starting after t; throws if t precedes the origin.
  [[nodiscard]] Profile::const_iterator upper(SimTime t) const {
    const auto it = profile_.upper_bound(t);
    VMLP_CHECK_MSG(it != profile_.begin(), "time " << t << " precedes ledger origin");
    return it;
  }

  /// Ensure a key exists exactly at t, splitting the covering segment.
  Profile::iterator split_at(SimTime t) {
    auto it = profile_.lower_bound(t);
    if (it != profile_.end() && it->first == t) return it;
    VMLP_CHECK_MSG(it != profile_.begin(), "time " << t << " precedes ledger origin");
    return profile_.emplace_hint(it, t, std::prev(it)->second);
  }

  /// Merge adjacent segments with nearly-equal levels around [t0, t1].
  void coalesce(SimTime t0, SimTime t1) {
    auto it = profile_.lower_bound(t0);
    if (it != profile_.begin()) --it;
    while (it != profile_.end()) {
      const auto next = std::next(it);
      if (next == profile_.end() || next->first > t1) break;
      if (nearly_equal(it->second, next->second)) {
        profile_.erase(next);
      } else {
        it = next;
      }
    }
  }

  static bool nearly_equal(const ResourceVector& a, const ResourceVector& b) {
    return !(a - b).any_negative() && !(b - a).any_negative();
  }

  ResourceVector capacity_;
  Profile profile_;
};

}  // namespace vmlp::cluster::testing
