// FullProfile (Table VI): priority reordering + whole-application ("overall")
// profiling — a Paragon-style workload-specific scheme [11].
//
// The scheme sees each application only through its *overall* profile: the
// time-averaged aggregate demand and the mean stage duration of the whole
// request. Stages are admitted and allocated with those averages — the heavy
// stages of a volatile chain get less than they need (capped, slower, wider
// tails) while the light stages over-reserve (wasted capacity). The ready
// queue is reordered by shortest-overall-profile first. This is exactly the
// paper's critique: whole-application profiles ignore the chain's per-stage
// phase structure.
#pragma once

#include <unordered_map>

#include "cluster/resources.h"
#include "sched/common.h"

namespace vmlp::sched {

class FullProfile final : public AdmissionScheduler {
 public:
  FullProfile() : AdmissionScheduler(&machine_best_fit) {}

  [[nodiscard]] std::string name() const override { return "FullProfile"; }

 private:
  struct OverallProfile {
    cluster::ResourceVector avg_demand;  ///< time-averaged aggregate demand
    SimDuration total_time = 0;          ///< profiled total busy time
    SimDuration avg_stage_time = 0;      ///< total_time / #stages
  };

  [[nodiscard]] SimDuration priority(const ActiveRequest& ar, std::size_t node) const override;
  [[nodiscard]] Window window(const ActiveRequest& ar, std::size_t node) const override;
  /// Overall profile of a request *type*, cached with a coarse TTL (profile
  /// means drift slowly).
  [[nodiscard]] const OverallProfile& profile_of(RequestTypeId type) const;

  struct CachedProfile {
    SimTime computed_at = -1;
    OverallProfile profile;
  };
  mutable std::unordered_map<RequestTypeId, CachedProfile> profile_cache_;
  static constexpr SimDuration kProfileCacheTtl = 100 * kMsec;
};

}  // namespace vmlp::sched
