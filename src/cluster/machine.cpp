#include "cluster/machine.h"

#include <algorithm>

#include "common/error.h"

namespace vmlp::cluster {

Machine::Machine(MachineId id, ResourceVector capacity)
    : id_(id), capacity_(capacity), ledger_(capacity) {
  VMLP_CHECK_MSG(id.valid(), "invalid machine id");
}

namespace {

template <typename Containers>
auto lower_bound_id(Containers& containers, ContainerId id) {
  return std::lower_bound(containers.begin(), containers.end(), id,
                          [](const Container& c, ContainerId key) { return c.id() < key; });
}

}  // namespace

Container& Machine::add_container(ContainerId id, InstanceId instance,
                                  const ResourceVector& demand, const ResourceVector& limit) {
  const auto it = lower_bound_id(containers_, id);
  VMLP_CHECK_MSG(it == containers_.end() || it->id() != id,
                 "container " << id.value() << " already on machine " << id_.value());
  return *containers_.insert(it, Container(id, instance, id_, demand, limit));
}

void Machine::remove_container(ContainerId id) {
  const auto it = lower_bound_id(containers_, id);
  VMLP_CHECK_MSG(it != containers_.end() && it->id() == id,
                 "container " << id.value() << " not on machine " << id_.value());
  containers_.erase(it);
}

Container* Machine::find_container(ContainerId id) {
  const auto it = lower_bound_id(containers_, id);
  return it == containers_.end() || it->id() != id ? nullptr : &*it;
}

const Container* Machine::find_container(ContainerId id) const {
  const auto it = lower_bound_id(containers_, id);
  return it == containers_.end() || it->id() != id ? nullptr : &*it;
}

std::vector<ContainerId> Machine::container_ids() const {
  std::vector<ContainerId> ids;
  ids.reserve(containers_.size());
  for (const Container& c : containers_) ids.push_back(c.id());  // already id-sorted
  return ids;
}

ResourceVector Machine::current_usage() const {
  ResourceVector usage;
  for (const Container& c : containers_) usage += c.effective_usage();
  return usage.min(capacity_);
}

ResourceVector Machine::allocated() const {
  ResourceVector total;
  for (const Container& c : containers_) total += c.limit();
  return total;
}

ResourceVector Machine::demanded() const {
  ResourceVector total;
  for (const Container& c : containers_) total += c.demand();
  return total;
}

double Machine::utilization_sum() const { return current_usage().utilization_sum(capacity_); }

bool Machine::oversubscribed() const { return !allocated().fits_within(capacity_); }

double Machine::contention_factor() const {
  return std::max(1.0, allocated().max_ratio_over(capacity_));
}

}  // namespace vmlp::cluster
