#include "sched/part_profile.h"

#include <algorithm>
#include <vector>

#include "sched/driver.h"

namespace vmlp::sched {

SimDuration PartProfile::remaining_path_estimate(const app::RequestType& type,
                                                 std::size_t from_node) const {
  // Profiled mean time of the longest remaining dependency path rooted at
  // from_node (partial profiling: per-stage means, no interference model).
  const std::uint64_t cache_key =
      (static_cast<std::uint64_t>(type.id().value()) << 32) | static_cast<std::uint64_t>(from_node);
  auto cached = path_cache_.find(cache_key);
  if (cached != path_cache_.end() &&
      driver_->now() - cached->second.computed_at < kPathCacheTtl) {
    return cached->second.value;
  }
  const auto& order = type.dag().topo_order();
  std::vector<SimDuration> longest(type.size(), 0);
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const std::size_t n = *it;
    SimDuration tail = 0;
    for (std::size_t child : type.dag().children(n)) tail = std::max(tail, longest[child]);
    longest[n] = estimate_mean_exec(driver_->profiles(), driver_->application(), type, n) + tail;
  }
  // Populate the cache for every node of this type while we have the array.
  for (std::size_t n = 0; n < type.size(); ++n) {
    const std::uint64_t key =
        (static_cast<std::uint64_t>(type.id().value()) << 32) | static_cast<std::uint64_t>(n);
    path_cache_[key] = CachedPath{driver_->now(), longest[n]};
  }
  return longest[from_node];
}

SimDuration PartProfile::priority(const ActiveRequest& ar, std::size_t node) const {
  // Least slack first.
  const SimDuration elapsed = driver_->now() - ar.runtime.arrival();
  return ar.runtime.type().slo() - elapsed - remaining_path_estimate(ar.runtime.type(), node);
}

AdmissionScheduler::Window PartProfile::window(const ActiveRequest& ar, std::size_t node) const {
  const auto& type = ar.runtime.type();
  const auto& svc = driver_->application().service(type.nodes()[node].service);
  return {svc.demand,
          estimate_mean_exec(driver_->profiles(), driver_->application(), type, node)};
}

}  // namespace vmlp::sched
