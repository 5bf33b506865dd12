#include "sched/full_profile.h"

#include <algorithm>

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
    const SimDuration est =
        estimate_mean_exec(driver_->profiles(), driver_->application(), type, n);
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

SimDuration FullProfile::priority(const ActiveRequest& ar, std::size_t /*node*/) const {
  // Shortest overall profile first (app-granularity SJF).
  return profile_of(ar.runtime.type().id()).total_time;
}

AdmissionScheduler::Window FullProfile::window(const ActiveRequest& ar,
                                               std::size_t /*node*/) const {
  // The whole point — and the flaw — of overall profiling: admission sees
  // only the application-*averaged* demand and stage duration, blind to the
  // stage's own shape, so heavy phases of concurrent chains collide on
  // machines that looked fine on average. The stage still runs at its real
  // demand once admitted.
  const OverallProfile& p = profile_of(ar.runtime.type().id());
  return {p.avg_demand, p.avg_stage_time};
}

}  // namespace vmlp::sched
