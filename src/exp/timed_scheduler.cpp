#include "exp/timed_scheduler.h"

#include "sched/driver.h"

namespace vmlp::exp {

/// Counts one callback; times it only when it is the outermost on the stack.
class TimedScheduler::Scope {
 public:
  Scope(TimedScheduler& owner, obs::PolicyCallback kind)
      : owner_(owner), kind_(kind), stat_(owner.stats_[static_cast<std::size_t>(kind)]) {
    ++stat_.calls;
    if (owner_.depth_++ == 0) start_ = Clock::now();
  }
  ~Scope() {
    if (--owner_.depth_ != 0) return;
    const auto ns = [](Clock::duration d) {
      return std::chrono::duration_cast<std::chrono::nanoseconds>(d).count();
    };
    const std::int64_t dur = ns(Clock::now() - start_);
    stat_.self_ns += dur;
    if (owner_.obs_ != nullptr) owner_.obs_->policy_slice(kind_, ns(start_ - owner_.epoch_), dur);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  TimedScheduler& owner_;
  obs::PolicyCallback kind_;
  Stat& stat_;
  Clock::time_point start_{};
};

void TimedScheduler::attach(sched::SimulationDriver& driver) {
  IScheduler::attach(driver);
  inner_.attach(driver);
  obs_ = driver.observer();
  epoch_ = Clock::now();
}

void TimedScheduler::on_request_arrival(RequestId id) {
  Scope s(*this, obs::PolicyCallback::kArrival);
  inner_.on_request_arrival(id);
}

void TimedScheduler::on_node_unblocked(RequestId id, std::size_t node) {
  Scope s(*this, obs::PolicyCallback::kNodeUnblocked);
  inner_.on_node_unblocked(id, node);
}

void TimedScheduler::on_tick() {
  Scope s(*this, obs::PolicyCallback::kTick);
  inner_.on_tick();
}

void TimedScheduler::on_late_invocation(RequestId id, std::size_t node) {
  Scope s(*this, obs::PolicyCallback::kLateInvocation);
  inner_.on_late_invocation(id, node);
}

void TimedScheduler::on_node_orphaned(RequestId id, std::size_t node) {
  Scope s(*this, obs::PolicyCallback::kNodeOrphaned);
  inner_.on_node_orphaned(id, node);
}

void TimedScheduler::on_node_started(RequestId id, std::size_t node) {
  Scope s(*this, obs::PolicyCallback::kNodeStarted);
  inner_.on_node_started(id, node);
}

void TimedScheduler::on_node_finished(RequestId id, std::size_t node) {
  Scope s(*this, obs::PolicyCallback::kNodeFinished);
  inner_.on_node_finished(id, node);
}

void TimedScheduler::on_request_finished(RequestId id) {
  Scope s(*this, obs::PolicyCallback::kRequestFinished);
  inner_.on_request_finished(id);
}

double TimedScheduler::seconds() const {
  std::int64_t ns = 0;
  for (const Stat& s : stats_) ns += s.self_ns;
  return static_cast<double>(ns) * 1e-9;
}

}  // namespace vmlp::exp
