// Shared machinery of the Table VI baseline schedulers: the ready-queue
// harness, the profiled baselines' admission drain, and placement helpers.
#pragma once

#include <deque>
#include <utility>

#include "app/application.h"
#include "cluster/cluster.h"
#include "sched/driver.h"
#include "sched/scheduler.h"
#include "trace/profile_store.h"

namespace vmlp::sched {

/// The baselines' harness. It owns the FIFO ready queue of (request, node)
/// entries, fills it from arrivals and unblocks, and drains it after each of
/// those and on every tick; a policy only says how to drain.
class ReadyQueueScheduler : public IScheduler {
 public:
  void on_request_arrival(RequestId id) final;
  void on_node_unblocked(RequestId id, std::size_t node) final;
  void on_tick() final;

 protected:
  /// Place what the policy can; what stays in ready_ waits for the next
  /// drain.
  virtual void drain() = 0;

  std::deque<std::pair<RequestId, std::size_t>> ready_;
};

/// The profiled baselines' drain (PartProfile, FullProfile): the ready
/// entries in stable ascending priority() order, each placed now on the
/// machine `pick` returns for the stage's admission window, or deferred.
/// After kSaturationFailures failed admissions in a row the cluster counts as
/// saturated and the rest is deferred unprobed.
class AdmissionScheduler : public ReadyQueueScheduler {
 protected:
  /// Admission tests `limit` over [now, now + duration); the admitted stage
  /// books `duration` at its own demand.
  struct Window {
    cluster::ResourceVector limit;
    SimDuration duration = 0;
  };
  using MachinePicker = MachineId (*)(const cluster::Cluster&, SimTime, SimDuration,
                                      const cluster::ResourceVector&);

  explicit AdmissionScheduler(MachinePicker pick) : pick_(pick) {}

  /// Sort key of a ready entry, computed once per drain; lower goes first.
  [[nodiscard]] virtual SimDuration priority(const ActiveRequest& ar, std::size_t node) const = 0;
  [[nodiscard]] virtual Window window(const ActiveRequest& ar, std::size_t node) const = 0;

 private:
  static constexpr std::size_t kSaturationFailures = 4;

  void drain() final;

  MachinePicker pick_;
};

/// Mean execution-time estimate for one request node: profile-store mean when
/// history exists, nominal×scale otherwise; at least 1.
SimDuration estimate_mean_exec(const trace::ProfileStore& profiles,
                               const app::Application& application, const app::RequestType& type,
                               std::size_t node);

/// Machine with the fewest containers (ties: lowest id).
MachineId machine_fewest_containers(const cluster::Cluster& clustr);

/// Machine with the lowest instantaneous utilization sum (ties: lowest id).
MachineId machine_lowest_utilization(const cluster::Cluster& clustr);

/// First machine whose ledger fits `demand` over [start, start+duration);
/// invalid id when none does.
MachineId machine_first_fit(const cluster::Cluster& clustr, SimTime start, SimDuration duration,
                            const cluster::ResourceVector& demand);

/// Machine with the most spare capacity over [start, start+duration) that
/// still fits `demand` (best-fit by spare CPU); invalid id when none fits.
MachineId machine_best_fit(const cluster::Cluster& clustr, SimTime start, SimDuration duration,
                           const cluster::ResourceVector& demand);

}  // namespace vmlp::sched
