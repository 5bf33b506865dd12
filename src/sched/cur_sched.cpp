#include "sched/cur_sched.h"

#include "sched/driver.h"

namespace vmlp::sched {

void CurSched::drain() {
  while (!ready_.empty()) {
    const auto [id, node] = ready_.front();
    ready_.pop_front();
    ActiveRequest* ar = driver_->find_request(id);
    if (ar == nullptr || !ar->runtime.node(node).unplaced()) continue;

    const MachineId machine = machine_lowest_utilization(driver_->cluster());
    if (!machine.valid()) {
      // Whole cluster down: requeue and wait for a recovery.
      ready_.emplace_front(id, node);
      return;
    }
    const auto& req_node = ar->runtime.type().nodes()[node];
    const auto& svc = driver_->application().service(req_node.service);
    const SimDuration est = estimate_mean_exec(driver_->profiles(), driver_->application(),
                                               ar->runtime.type(), node);
    driver_->place(id, node, machine, svc.demand, driver_->now(), est);
  }
}

}  // namespace vmlp::sched
