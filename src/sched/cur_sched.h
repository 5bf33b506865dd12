// CurSched (Table VI): FCFS request queue, allocation by current load.
//
// Each ready microservice is granted its full demand on the machine that is
// least utilized *right now*. Reactive placement with no view of committed
// future work: fine at low load, collides at traffic peaks because several
// in-flight chains converge on the same "idle" machine.
#pragma once

#include "sched/common.h"

namespace vmlp::sched {

class CurSched final : public ReadyQueueScheduler {
 public:
  [[nodiscard]] std::string name() const override { return "CurSched"; }

 private:
  void drain() override;
};

}  // namespace vmlp::sched
