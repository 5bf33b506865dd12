// Self-organizing module (Section III-E, Algorithm 1).
//
// Coalesces the microservice chains of waiting requests into the cluster's
// committed future: for a popped request it walks its chain choices c_j in
// topological order, estimates each microservice's execution slack Δt per the
// request's volatility band, and admits each stage onto a machine whose
// reservation ledger has the resource budget over [t, t+Δt). A request is
// committed atomically — if any stage cannot be admitted (within a bounded
// slip window), the whole plan is abandoned and the request deferred
// ("switch r_i with r_{i+1}").
//
// Planning uses a local overlay of tentative reservations so stages of the
// same plan cannot double-book a machine before the plan commits.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "app/dag.h"
#include "common/rng.h"
#include "mlp/interface_layer.h"
#include "mlp/metrics.h"

namespace vmlp::mlp {

struct NodePlan {
  std::size_t node = 0;
  MachineId machine;
  SimTime start = 0;
  /// Expected busy time — what the stage books on the machine's ledger.
  SimDuration busy = 0;
  /// Band-conservative Δt — what successors align against (Algorithm 1's
  /// slack). slack >= busy for mid/high-V_r requests.
  SimDuration slack = 0;
};

/// Audit tier: a committed plan must cover each currently unplaced,
/// unfinished node of the request exactly once (the coalesced chain preserves
/// the request's stage multiset), reference only valid node indices, and
/// never book negative/non-finite windows. When `require_full_cover` is
/// false (single-node planning) only the per-entry checks apply. Checks are
/// live only when vmlp::audit::enabled(); violations throw InvariantError.
void audit_plan_integrity(const sched::ActiveRequest& ar, const std::vector<NodePlan>& plans,
                          bool require_full_cover);

class SelfOrganizing {
 public:
  /// Rng is a sink parameter (pass an rvalue substream); see CommModel.
  SelfOrganizing(InterfaceLayer& iface, const VmlpParams& params, Rng&& rng);

  /// Plan and commit every unplaced node of the request. True = fully
  /// assigned (Algorithm 1's "totally assigned").
  bool organize(RequestId id);

  /// Plan and commit a single unblocked node (used for requests that entered
  /// execution piecemeal through the delay slot).
  bool organize_node(RequestId id, std::size_t node);

  /// Reorder ratio R of a waiting request at the current time.
  [[nodiscard]] double reorder_ratio_of(RequestId id);

  /// Algorithm 1's Δt for one node of a request (exposed for self-healing's
  /// candidate sizing).
  [[nodiscard]] SimDuration slack_of(RequestId id, std::size_t node);

  [[nodiscard]] std::size_t plans_committed() const { return plans_committed_; }
  [[nodiscard]] std::size_t plans_deferred() const { return plans_deferred_; }
  /// Time of the most recent failed plan (-1 if none) — the self-healing
  /// module backs off request fills while the cluster is saturated.
  [[nodiscard]] SimTime last_defer_at() const { return last_defer_at_; }

 private:
  /// Tentative reservations of the plan being built, in insertion order. A
  /// plan holds only a handful of entries, so a flat scan filtered by machine
  /// beats hashing, and the filtered sum adds in insertion order.
  struct Overlay {
    struct Entry {
      MachineId machine;
      SimTime t0;
      SimTime t1;
      cluster::ResourceVector res;
    };
    std::vector<Entry> entries;
    void add(MachineId m, SimTime t0, SimTime t1, const cluster::ResourceVector& res);
    [[nodiscard]] cluster::ResourceVector max_over(MachineId m, SimTime t0, SimTime t1) const;
  };

  /// Per-organize() memoized planning inputs. Algorithm 1's per-node slack
  /// Δt, expected busy time and the finish-time predictions seeded from
  /// already-progressed nodes are invariant across the up-to
  /// `max_chain_choices` chain attempts of one organize call (profiles only
  /// record at execution time, and nothing commits until a chain succeeds),
  /// so organize() fills one context and shares it across the attempts.
  struct PlanContext {
    struct NodeEst {
      SimDuration slack = 0;
      SimDuration busy = 0;
    };
    double v_r = 0.0;
    double x = 0.0;
    std::vector<std::optional<NodeEst>> est;
    std::vector<SimTime> seed_finish;
    std::vector<MachineId> seed_machine;
  };

  /// Refill ctx_ for `ar`.
  void reset_context(const sched::ActiveRequest& ar);
  /// Slack/busy estimate for one node, computed on first use per context.
  [[nodiscard]] const PlanContext::NodeEst& node_est(const sched::ActiveRequest& ar,
                                                     std::size_t node);
  [[nodiscard]] PlanContext::NodeEst compute_est(const app::RequestType& type, std::size_t node,
                                                 double v_r, double x) const;

  /// `refit_out` is forwarded to ReservationLedger::fits only on the bare
  /// (overlay-free) path: a blocking-run bound derived with an
  /// overlay-inflated demand would not be sound for later windows whose
  /// overlay contribution is smaller.
  [[nodiscard]] bool fits_with_overlay(MachineId m, SimTime t0, SimTime t1,
                                       const cluster::ResourceVector& r,
                                       std::size_t* cover_hint = nullptr,
                                       SimTime* refit_out = nullptr) const;
  /// Find (machine, start) for one stage against overlay_ and the stage's
  /// parents in parent_finish_/parent_machine_. The scan goes cell by cell
  /// in the topology's ranked order; inside a cell it is first-fit from the
  /// cell's rotating cursor at the desired start, escalating through the
  /// slip window, and it sheds to the next cell after a probeless pass.
  /// nullopt = defer.
  /// Machines whose capacity can never hold the demand, or whose quietest
  /// ledger level across every start this stage could probe already blocks
  /// it, are skipped after the first touch — the skipped probes still count
  /// against `max_admit_probes` and are provably ones that would have
  /// failed, so the accepted (machine, start) and the cursor trajectory are
  /// identical to the exhaustive search.
  [[nodiscard]] std::optional<std::pair<MachineId, SimTime>> admit_stage(
      const cluster::ResourceVector& demand, SimDuration slack);
  /// admit_stage's search loop; the public wrapper only adds telemetry.
  /// `probes` / `pruned` report the stage's probe budget spend and how many
  /// of those probes were pruned (classified or refit-bound skips).
  [[nodiscard]] std::optional<std::pair<MachineId, SimTime>> admit_stage_impl(
      const cluster::ResourceVector& demand, SimDuration slack, std::size_t& probes,
      std::size_t& pruned);

  /// Plan the unplaced nodes of chain[0, length) in order into plans_
  /// (overlay_ holds their tentative reservations). False = some stage could
  /// not be admitted; plans_ is then partial and must not be committed.
  [[nodiscard]] bool try_chain(sched::ActiveRequest& ar, const std::size_t* chain,
                               std::size_t length);

  [[nodiscard]] SimDuration max_slo() const;
  [[nodiscard]] SimDuration ref_stage_time() const;

  InterfaceLayer* iface_;
  VmlpParams params_;
  Rng rng_;
  /// Per-cell rotating first-fit cursors (cell-local offsets).
  std::vector<std::size_t> cell_cursor_;
  /// ranked_cells scratch, reused so routing stays allocation-free.
  std::vector<std::size_t> ranked_cells_;
  // Planning buffers, refilled by every organize()/organize_node() call so a
  // steady-state request plans without allocating. organize() is not
  // re-entrant: place() only books and schedules, it never calls back into
  // the scheduler.
  PlanContext ctx_;
  app::ChainChoices chains_;
  Overlay overlay_;
  std::vector<NodePlan> plans_;
  /// Predicted finish/machine per node for the chain being tried (seeded
  /// from ctx_, then extended stage by stage).
  std::vector<SimTime> pred_finish_;
  std::vector<MachineId> pred_machine_;
  /// The current stage's parents' predicted finishes and machines.
  std::vector<SimTime> parent_finish_;
  std::vector<MachineId> parent_machine_;
  std::size_t plans_committed_ = 0;
  std::size_t plans_deferred_ = 0;
  SimTime last_defer_at_ = -1;
  // Value-carrying caches: 0 is a legitimate result for neither (max_slo of
  // an application with all-zero SLOs, a degenerate ref time), so an empty
  // optional — not a 0 sentinel — marks "not yet computed".
  mutable std::optional<SimDuration> cached_max_slo_;
  mutable std::optional<SimDuration> cached_ref_;
  // admit_stage scratch (sized to the cluster, reused across calls so the
  // inner planning loop stays allocation-free). Per-stage validity is
  // tracked by probe_epoch_, NOT by clearing: an eager per-stage
  // assign() is O(machines) per placement — invisible at 100 machines,
  // ~9 KB of writes per stage at 1k and ~90 KB at 10k, which silently
  // re-couples per-placement cost to cluster size after the cell router
  // decoupled the scan itself. A machine's entry is live only when its
  // epoch matches the current stage's; the scan initializes it on first
  // touch, so stage setup is O(1) and stage cost is O(machines probed).
  std::vector<std::int8_t> probe_state_;
  std::vector<SimTime> probe_desired_;
  /// Stage stamp per machine: entries of probe_state_/probe_refit_ (and
  /// probe_desired_, which is only read once state != 0) are valid iff
  /// probe_epoch_[m] == stage_epoch_.
  std::vector<std::uint64_t> probe_epoch_;
  std::uint64_t stage_epoch_ = 0;
  /// Per-machine ledger covering-index cache (kNoCoverHint = untouched).
  /// Valid for one admit_stage call: the ledger is not mutated while a
  /// stage probes, and each machine's probe starts only slip forward.
  std::vector<std::size_t> probe_cover_;
  /// Per-machine refit bound: after a failed probe, the end of the blocking
  /// run it hit (ReservationLedger::fits refit_out). Later slip steps whose
  /// start is still below the bound overlap the same run and provably fail,
  /// so they are counted but not walked. Valid for one admit_stage call for
  /// the same reasons as probe_cover_.
  std::vector<SimTime> probe_refit_;
};

}  // namespace vmlp::mlp
