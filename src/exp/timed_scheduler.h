// exp::TimedScheduler — opt-in host timing of a scheduler's policy callbacks.
//
// The simulation core never reads the host clock; a run that wants to know
// how much host time its policy spends wraps the scheduler in this decorator
// and hands the decorator to the driver (or to run_experiment's scheduler
// overload). Every callback is counted under its own kind. Only the
// outermost callback on the stack is timed: one the driver delivers while
// another is still running (place() starting a node synchronously, say)
// stays in the outer callback's self time, so the per-kind self times sum to
// the host time spent inside policy, including the driver work the policy
// runs synchronously. When the driver has a telemetry collector attached,
// each outermost interval is also recorded as a Perfetto policy slice
// (DESIGN.md §10). Host time is nondeterministic and never feeds a
// simulation decision or a byte-compared output.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <string>

#include "obs/collector.h"
#include "sched/scheduler.h"

namespace vmlp::exp {

class TimedScheduler final : public sched::IScheduler {
 public:
  struct Stat {
    std::uint64_t calls = 0;
    std::int64_t self_ns = 0;  ///< host time while this kind was outermost
  };

  explicit TimedScheduler(sched::IScheduler& inner) : inner_(inner) {}

  [[nodiscard]] std::string name() const override { return inner_.name(); }
  /// Also starts the policy-slice clock and binds the driver's collector.
  void attach(sched::SimulationDriver& driver) override;

  void on_request_arrival(RequestId id) override;
  void on_node_unblocked(RequestId id, std::size_t node) override;
  void on_tick() override;
  void on_late_invocation(RequestId id, std::size_t node) override;
  void on_node_orphaned(RequestId id, std::size_t node) override;
  void on_node_started(RequestId id, std::size_t node) override;
  void on_node_finished(RequestId id, std::size_t node) override;
  void on_request_finished(RequestId id) override;

  [[nodiscard]] const Stat& stat(obs::PolicyCallback kind) const {
    return stats_[static_cast<std::size_t>(kind)];
  }
  /// Host seconds inside policy callbacks: the sum of every kind's self time.
  [[nodiscard]] double seconds() const;

 private:
  using Clock = std::chrono::steady_clock;
  class Scope;

  sched::IScheduler& inner_;
  std::array<Stat, static_cast<std::size_t>(obs::PolicyCallback::kCallbackCount)> stats_{};
  int depth_ = 0;
  obs::Collector* obs_ = nullptr;
  Clock::time_point epoch_{};
};

}  // namespace vmlp::exp
