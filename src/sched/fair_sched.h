// FairSched (Table VI): FCFS request queue, equal resource allocation.
//
// Every ready microservice receives an identical slice of a machine
// (capacity / kSlotsPerMachine) regardless of its demand — the fair-share
// policy of Quincy-style schedulers [22]. No admission control, no history:
// under load, machines oversubscribe and the execution model punishes the
// resulting contention.
#pragma once

#include "sched/common.h"

namespace vmlp::sched {

class FairSched final : public ReadyQueueScheduler {
 public:
  static constexpr std::size_t kSlotsPerMachine = 8;

  [[nodiscard]] std::string name() const override { return "FairSched"; }

 private:
  void drain() override;
};

}  // namespace vmlp::sched
