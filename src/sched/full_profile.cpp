#include "sched/full_profile.h"

#include <algorithm>

#include "sched/common.h"
#include "sched/driver.h"

namespace vmlp::sched {

const FullProfile::OverallProfile& FullProfile::profile_of(RequestTypeId type_id) const {
  auto it = profile_cache_.find(type_id);
  if (it != profile_cache_.end() &&
      driver_->now() - it->second.computed_at < kProfileCacheTtl) {
    return it->second.profile;
  }

  const auto& type = driver_->application().request(type_id);
  OverallProfile p;
  double weighted_cpu = 0.0, weighted_mem = 0.0, weighted_io = 0.0;
  for (std::size_t n = 0; n < type.size(); ++n) {
    const auto& svc = driver_->application().service(type.nodes()[n].service);
    const SimDuration est = estimate_mean_exec(*driver_, type, n);
    p.total_time += est;
    weighted_cpu += svc.demand.cpu * static_cast<double>(est);
    weighted_mem += svc.demand.mem * static_cast<double>(est);
    weighted_io += svc.demand.io * static_cast<double>(est);
  }
  if (p.total_time > 0) {
    const double t = static_cast<double>(p.total_time);
    p.avg_demand = {weighted_cpu / t, weighted_mem / t, weighted_io / t};
  }
  p.avg_stage_time =
      std::max<SimDuration>(1, p.total_time / static_cast<SimDuration>(type.size()));

  auto& slot = profile_cache_[type_id];
  slot.computed_at = driver_->now();
  slot.profile = p;
  return slot.profile;
}

void FullProfile::on_request_arrival(RequestId id) {
  ActiveRequest* ar = driver_->find_request(id);
  if (ar == nullptr) return;
  for (std::size_t node : ar->runtime.ready_nodes()) ready_.emplace_back(id, node);
  drain();
}

void FullProfile::on_node_unblocked(RequestId id, std::size_t node) {
  ready_.emplace_back(id, node);
  drain();
}

void FullProfile::on_tick() { drain(); }

void FullProfile::drain() {
  // Priority: shortest overall profile first (app-granularity SJF).
  std::vector<std::tuple<SimDuration, RequestId, std::size_t>> keyed;
  keyed.reserve(ready_.size());
  for (const auto& [id, node] : ready_) {
    ActiveRequest* ar = driver_->find_request(id);
    if (ar == nullptr) continue;
    keyed.emplace_back(profile_of(ar->runtime.type().id()).total_time, id, node);
  }
  std::stable_sort(keyed.begin(), keyed.end(),
                   [](const auto& a, const auto& b) { return std::get<0>(a) < std::get<0>(b); });

  std::vector<std::pair<RequestId, std::size_t>> deferred;
  std::size_t consecutive_failures = 0;
  for (const auto& [key, id, node] : keyed) {
    (void)key;
    ActiveRequest* ar = driver_->find_request(id);
    if (ar == nullptr || !ar->runtime.node(node).unplaced()) continue;
    const OverallProfile& p = profile_of(ar->runtime.type().id());

    // The whole point — and the flaw — of overall profiling: admission sees
    // only the application-*averaged* demand and stage duration, blind to
    // the stage's own shape, so heavy phases of concurrent chains collide on
    // machines that looked fine on average. The stage still runs at its real
    // demand once admitted.
    MachineId machine;
    if (consecutive_failures < 4) {
      machine = machine_best_fit(driver_->cluster(), driver_->now(), p.avg_stage_time,
                                 p.avg_demand);
    }
    if (machine.valid()) {
      consecutive_failures = 0;
      const auto& svc =
          driver_->application().service(ar->runtime.type().nodes()[node].service);
      driver_->place(id, node, machine, svc.demand, driver_->now(), p.avg_stage_time);
    } else {
      ++consecutive_failures;
      deferred.emplace_back(id, node);
    }
  }
  ready_ = std::move(deferred);
}

}  // namespace vmlp::sched
