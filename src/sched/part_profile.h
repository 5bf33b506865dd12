// PartProfile (Table VI): priority reordering + per-microservice ("partial")
// profiling — a GrandSLAm-style scheme [26].
//
// Ready microservices queue by least slack first: slack = SLO budget minus
// time elapsed minus the profiled mean time of the request's remaining
// critical path. Placement admits a stage only onto a machine whose ledger
// fits the stage's demand for its profiled mean duration; otherwise the stage
// waits. Per-stage admission keeps QoS violations low, but stage-by-stage
// gaps idle the pipeline — exactly the efficiency gap v-MLP targets.
#pragma once

#include <unordered_map>

#include "common/types.h"
#include "sched/common.h"

namespace vmlp::sched {

class PartProfile final : public AdmissionScheduler {
 public:
  PartProfile() : AdmissionScheduler(&machine_first_fit) {}

  [[nodiscard]] std::string name() const override { return "PartProfile"; }

 private:
  [[nodiscard]] SimDuration priority(const ActiveRequest& ar, std::size_t node) const override;
  [[nodiscard]] Window window(const ActiveRequest& ar, std::size_t node) const override;
  [[nodiscard]] SimDuration remaining_path_estimate(const app::RequestType& type,
                                                    std::size_t from_node) const;

  /// (request type, node) -> cached longest-remaining-path estimate; profile
  /// means drift slowly, so entries refresh on a coarse timer.
  struct CachedPath {
    SimTime computed_at = -1;
    SimDuration value = 0;
  };
  mutable std::unordered_map<std::uint64_t, CachedPath> path_cache_;
  static constexpr SimDuration kPathCacheTtl = 100 * kMsec;
};

}  // namespace vmlp::sched
