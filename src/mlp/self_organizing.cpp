#include "mlp/self_organizing.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/audit.h"
#include "common/error.h"
#include "obs/collector.h"
#include "sched/common.h"

namespace vmlp::mlp {

void audit_plan_integrity(const sched::ActiveRequest& ar, const std::vector<NodePlan>& plans,
                          bool require_full_cover) {
  if (!audit::enabled()) return;
  std::vector<bool> covered(ar.nodes.size(), false);
  for (const NodePlan& plan : plans) {
    VMLP_AUDIT_ASSERT(plan.node < ar.nodes.size(),
                      "plan references node " << plan.node << " outside request of size "
                                              << ar.nodes.size());
    VMLP_AUDIT_ASSERT(!covered[plan.node],
                      "plan books node " << plan.node << " twice (double-booked reservation)");
    covered[plan.node] = true;
    VMLP_AUDIT_ASSERT(ar.runtime.node(plan.node).unplaced(),
                      "plan books node " << plan.node
                                         << " that is already placed, finished or abandoned");
    VMLP_AUDIT_ASSERT(plan.busy > 0 && plan.slack >= 0 && plan.start >= 0,
                      "plan for node " << plan.node << " has a degenerate window: start="
                                       << plan.start << " busy=" << plan.busy
                                       << " slack=" << plan.slack);
  }
  if (require_full_cover) {
    for (std::size_t i = 0; i < ar.nodes.size(); ++i) {
      if (!ar.runtime.node(i).unplaced()) continue;
      VMLP_AUDIT_ASSERT(covered[i], "plan drops node " << i
                                                       << " — coalesced chain does not preserve "
                                                          "the request's stage multiset");
    }
  }
}

SelfOrganizing::SelfOrganizing(InterfaceLayer& iface, const VmlpParams& params, Rng&& rng)
    : iface_(&iface), params_(params), rng_(rng) {}

void SelfOrganizing::Overlay::add(MachineId m, SimTime t0, SimTime t1,
                                  const cluster::ResourceVector& res) {
  entries.push_back(Entry{m, t0, t1, res});
}

cluster::ResourceVector SelfOrganizing::Overlay::max_over(MachineId m, SimTime t0,
                                                          SimTime t1) const {
  // Conservative: sum every overlapping tentative reservation (exact maxima
  // would need sweep-line; plans hold only a handful of entries), in
  // insertion order.
  cluster::ResourceVector total;
  for (const Entry& e : entries) {
    if (e.machine == m && e.t0 < t1 && t0 < e.t1) total += e.res;
  }
  return total;
}

bool SelfOrganizing::fits_with_overlay(MachineId m, SimTime t0, SimTime t1,
                                       const cluster::ResourceVector& r,
                                       std::size_t* cover_hint, SimTime* refit_out) const {
  const auto& ledger = iface_->cluster().machine(m).ledger();
  if (overlay_.entries.empty()) return ledger.fits(t0, t1, r, cover_hint, refit_out);
  return ledger.fits(t0, t1, r + overlay_.max_over(m, t0, t1), cover_hint);
}

SimDuration SelfOrganizing::max_slo() const {
  if (!cached_max_slo_.has_value()) {
    SimDuration max_seen = 0;
    for (const auto& rt : iface_->application().requests()) {
      max_seen = std::max(max_seen, rt.slo());
    }
    cached_max_slo_ = max_seen;
  }
  return *cached_max_slo_;
}

SimDuration SelfOrganizing::ref_stage_time() const {
  if (!cached_ref_.has_value()) {
    double sum = 0.0;
    const auto& services = iface_->application().services();
    for (const auto& s : services) sum += static_cast<double>(s.nominal_time);
    cached_ref_ = std::max<SimDuration>(
        1, static_cast<SimDuration>(sum / std::max<std::size_t>(1, services.size())));
  }
  return *cached_ref_;
}

double SelfOrganizing::reorder_ratio_of(RequestId id) {
  sched::ActiveRequest* ar = iface_->find_request(id);
  if (ar == nullptr) return 0.0;
  const auto& type = ar->runtime.type();
  const double v_r = iface_->volatility(type.id());
  const SimDuration waited = iface_->now() - ar->runtime.arrival();

  SimDuration dt0 = kTimeInfinity;
  for (std::size_t node = 0; node < type.size(); ++node) {
    dt0 = std::min(dt0, sched::estimate_mean_exec(iface_->profiles(), iface_->application(),
                                                  type, node));
  }
  return reorder_ratio(v_r, type.slo(), waited, dt0, ref_stage_time());
}

SelfOrganizing::PlanContext::NodeEst SelfOrganizing::compute_est(const app::RequestType& type,
                                                                 std::size_t node, double v_r,
                                                                 double x) const {
  const auto& req_node = type.nodes()[node];
  const auto& svc = iface_->application().service(req_node.service);
  const auto fallback = static_cast<SimDuration>(
      std::llround(2.0 * static_cast<double>(svc.nominal_time) * req_node.time_scale));
  // Δt (band-conservative) aligns successors; the ledger books only the
  // *expected* busy time — reserving worst-case windows would halve the
  // cluster's effective capacity for volatile streams.
  PlanContext::NodeEst est;
  est.slack =
      estimate_slack(iface_->profiles(), req_node.service, type.id(), v_r, x, fallback, params_);
  est.busy = std::max<SimDuration>(
      1, iface_->profiles().mean_exec(req_node.service, type.id()).value_or(fallback / 2));
  return est;
}

const SelfOrganizing::PlanContext::NodeEst& SelfOrganizing::node_est(
    const sched::ActiveRequest& ar, std::size_t node) {
  auto& slot = ctx_.est[node];
  if (!slot.has_value()) slot = compute_est(ar.runtime.type(), node, ctx_.v_r, ctx_.x);
  return *slot;
}

void SelfOrganizing::reset_context(const sched::ActiveRequest& ar) {
  const auto& type = ar.runtime.type();
  ctx_.v_r = iface_->volatility(type.id());
  ctx_.x = x_percent(ctx_.v_r, type.slo(), max_slo());
  ctx_.est.assign(type.size(), std::nullopt);
  ctx_.seed_finish.assign(type.size(), -1);
  ctx_.seed_machine.assign(type.size(), MachineId());

  // Seed predictions for nodes that already progressed (delay-slot entrants).
  const SimTime now = iface_->now();
  for (std::size_t i = 0; i < type.size(); ++i) {
    const auto& rn = ar.runtime.node(i);
    if (rn.state == app::NodeState::kDone) {
      ctx_.seed_finish[i] = rn.finished_at;
    } else if (rn.state == app::NodeState::kRunning) {
      ctx_.seed_finish[i] = std::max(now + kMsec, rn.started_at + node_est(ar, i).slack);
    } else if (rn.state == app::NodeState::kPlaced) {
      ctx_.seed_finish[i] = std::max(rn.planned_start, now) + ar.nodes[i].reserve_duration;
    } else {
      continue;  // unplaced or abandoned: nothing to seed
    }
    ctx_.seed_machine[i] = rn.machine;
  }
}

SimDuration SelfOrganizing::slack_of(RequestId id, std::size_t node) {
  sched::ActiveRequest* ar = iface_->find_request(id);
  VMLP_CHECK(ar != nullptr);
  const auto& type = ar->runtime.type();
  const double v_r = iface_->volatility(type.id());
  const double x = x_percent(v_r, type.slo(), max_slo());
  return compute_est(type, node, v_r, x).slack;
}

std::optional<std::pair<MachineId, SimTime>> SelfOrganizing::admit_stage(
    const cluster::ResourceVector& demand, SimDuration slack) {
  obs::Collector* obs = iface_->observer();
  const std::uint64_t hint_hits_before =
      obs != nullptr ? obs->counter_value(obs->ledger().hints_hit) : 0;
  std::size_t probes = 0;
  std::size_t pruned = 0;
  const auto result = admit_stage_impl(demand, slack, probes, pruned);
  if (obs != nullptr) {
    // Per-stage summaries, not per-probe records: one kAdmitProbe event per
    // stage keeps the ring readable at admission rates of thousands of
    // probes per simulated second.
    const SimTime t = iface_->now();
    obs->count(obs->mlp().probes_spent, probes);
    obs->event(obs::DecisionKind::kAdmitProbe, t, obs::DecisionEvent::kNoRequest,
               obs::DecisionEvent::kNoIndex,
               result.has_value() ? result->first.value() : obs::DecisionEvent::kNoIndex,
               static_cast<std::int64_t>(probes));
    if (pruned > 0) {
      obs->count(obs->mlp().probes_pruned, pruned);
      obs->event(obs::DecisionKind::kAdmitPrune, t, obs::DecisionEvent::kNoRequest,
                 obs::DecisionEvent::kNoIndex, obs::DecisionEvent::kNoIndex,
                 static_cast<std::int64_t>(pruned));
    }
    const std::uint64_t hits = obs->counter_value(obs->ledger().hints_hit) - hint_hits_before;
    if (hits > 0) {
      obs->event(obs::DecisionKind::kAdmitHintHit, t, obs::DecisionEvent::kNoRequest,
                 obs::DecisionEvent::kNoIndex, obs::DecisionEvent::kNoIndex,
                 static_cast<std::int64_t>(hits));
    }
  }
  return result;
}

std::optional<std::pair<MachineId, SimTime>> SelfOrganizing::admit_stage_impl(
    const cluster::ResourceVector& demand, SimDuration slack, std::size_t& probes,
    std::size_t& pruned) {
  const std::size_t n_machines = iface_->cluster().machine_count();
  const SimTime now = iface_->now();
  const SimDuration step =
      std::max<SimDuration>(1, params_.plan_search_window /
                                   static_cast<SimDuration>(params_.plan_search_steps));

  // Desired starts depend only on the machine (expected_comm is a pure
  // function of topology distance), so one computation per machine serves
  // every slip step k. probe_state_ classifies each machine on first touch:
  // 0 = untouched, 1 = must probe, 2 = every probe this stage is guaranteed
  // to fail (see quick-rejects below).
  //
  // O(1) stage setup: entries are invalidated by bumping the stage epoch,
  // never by clearing the vectors (see the probe_epoch_ declaration — an
  // eager O(machines) assign() per stage is the latent cost that re-couples
  // placements/sec to cluster size). The scan initializes a machine's
  // state/refit on first touch of the stage.
  ++stage_epoch_;
  if (probe_state_.size() < n_machines) {
    probe_state_.resize(n_machines, 0);
    probe_epoch_.resize(n_machines, 0);  // 0 != any stage_epoch_ (it starts at 1)
    probe_refit_.resize(n_machines, std::numeric_limits<SimTime>::min());
    probe_desired_.resize(n_machines);
  }
  // Covering-index hints survive across stages: the ledger validates them
  // against its current profile, and consecutive stages probe each machine
  // at nearby times. Refit bounds do not — they encode this stage's demand
  // and duration.
  if (probe_cover_.size() < n_machines) probe_cover_.resize(n_machines, cluster::kNoCoverHint);

  auto desired_for = [&](MachineId m) {
    SimTime desired = now;
    if (parent_finish_.empty()) {
      // Root stage: ingress hop from the request handler.
      desired = now + iface_->expected_ingress();
    } else {
      for (std::size_t p = 0; p < parent_finish_.size(); ++p) {
        desired =
            std::max(desired, parent_finish_[p] + iface_->expected_comm(parent_machine_[p], m));
      }
      desired = std::max(desired, now);
    }
    return desired;
  };

  // Cells in ranked order (least loaded first), the full slip window inside
  // one cell before shedding to the next. The work bound per stage is
  // O(router_max_cells × cell size), independent of cluster size.
  const auto& clstr = iface_->cluster();
  const cluster::CellTopology& cells = clstr.cells();
  const std::size_t n_cells = cells.cell_count();
  cells.ranked_cells(ranked_cells_);
  if (cell_cursor_.size() != n_cells) cell_cursor_.assign(n_cells, 0);
  const std::size_t visit =
      std::min(n_cells, std::max<std::size_t>(1, params_.router_max_cells));
  obs::Collector* obs = iface_->observer();
  if (obs != nullptr && n_cells > 1) obs->count(obs->topology().stages_routed);
  for (std::size_t ci = 0; ci < visit; ++ci) {
    const std::size_t cell = ranked_cells_[ci];
    const std::size_t begin = cells.cell_begin(cell);
    const std::size_t size = cells.cell_size(cell);
    std::size_t& cursor = cell_cursor_[cell];
    // Headroom-index jump (multi-cell only — a single cell keeps its
    // rotating first-fit trajectory, which determinism_check claim 5 pins):
    // rotate the scan base to the first machine the per-32-machine summary
    // guarantees can host the demand at every time (a vectorized find-first
    // over the cell's cached free fractions — see
    // CellTopology::first_fit_candidate). Typically its j = 0 probe admits
    // immediately; if a plan overlay blocks it, the scan continues from
    // there — same coverage, rotated order, still a pure function of
    // simulation state.
    std::size_t base = cursor;
    if (n_cells > 1) {
      const double frac = clstr.machine(MachineId(static_cast<std::uint32_t>(begin)))
                              .ledger()
                              .demand_fraction_of(demand);
      const std::size_t cand = cells.first_fit_candidate(clstr, cell, cursor, frac);
      if (cand != cluster::CellTopology::kNoMachine) {
        base = cand - begin;
        if (obs != nullptr) obs->count(obs->topology().index_jumps);
      }
    }
    // Each slip pass tracks whether it met any machine that could still
    // admit. Once every up machine is classified 2 (guaranteed fail), the
    // remaining passes only tick the probe counter — no probe can succeed
    // and no cursor moves — so the cell is shed at once. Machines cannot
    // change state while a stage runs (the simulation does not advance
    // inside admit_stage).
    bool any_probeable = true;
    for (std::size_t k = 0; k <= params_.plan_search_steps && any_probeable; ++k) {
      any_probeable = false;
      for (std::size_t j = 0; j < size; ++j) {
        const MachineId m(static_cast<std::uint32_t>(begin + (base + j) % size));
        // Pruned probes still consume budget: which probe exhausts
        // max_admit_probes must not depend on pruning.
        if (++probes > params_.max_admit_probes) return std::nullopt;
        if (!clstr.machine(m).up()) continue;  // crash window
        if (probe_epoch_[m.value()] != stage_epoch_) {
          // First touch this stage: lazily reset what an eager per-stage
          // clear would write for every machine.
          probe_epoch_[m.value()] = stage_epoch_;
          probe_state_[m.value()] = 0;
          probe_refit_[m.value()] = std::numeric_limits<SimTime>::min();
        }
        std::int8_t& state = probe_state_[m.value()];
        if (state == 2) {
          ++pruned;
          continue;  // counted, and provably would have failed
        }
        if (state == 0) probe_desired_[m.value()] = desired_for(m);
        const SimTime desired = probe_desired_[m.value()];
        const SimTime start = desired + static_cast<SimDuration>(k) * step;
        if (start < probe_refit_[m.value()]) {
          // The window still overlaps the blocking run an earlier probe of
          // this machine hit, so it provably fails (the run's bound holds
          // for every later-starting window of the same demand and
          // duration).
          any_probeable = true;  // later slip steps may clear the run
          ++pruned;
          continue;
        }
        std::size_t* cover = &probe_cover_[m.value()];
        if (fits_with_overlay(m, start, start + slack, demand, cover,
                              &probe_refit_[m.value()])) {
          cursor = (m.value() - begin + 1) % size;
          return std::make_pair(m, start);
        }
        if (state == 0) {
          // First failed probe on this machine: classify it so the slip
          // loop does not keep paying for probes that provably fail.
          // Classification is deferred until a failure because a machine
          // whose first probe succeeds never needs it.
          const auto& machine = clstr.machine(m);
          if (!demand.fits_within(machine.capacity())) {
            // The bare capacity can never hold the demand; any
            // non-negative ledger level or overlay only raises the tested
            // usage.
            state = 2;
          } else {
            // Every start this stage can probe lies in
            // [desired, desired + steps·step], so every probed window is a
            // subset of that span plus the slack tail. If even the quietest
            // level across the whole span cannot host the demand, each
            // window's max certainly cannot (max ≥ span min, and the exact
            // test adds the same non-negative demand+overlay on top).
            // span_could_fit early-exits the span fold on the usual
            // "machine stays probeable" verdict.
            const SimTime span_end =
                desired + static_cast<SimDuration>(params_.plan_search_steps) * step + slack;
            // The span starts at `desired` == this k=0 probe's start, so
            // the hint the failed probe just stored is already the span's
            // covering index.
            state = machine.ledger().span_could_fit(desired, span_end, demand, cover) ? 1 : 2;
          }
        }
        if (state != 2) any_probeable = true;
      }
    }
    if (obs != nullptr && n_cells > 1 && ci + 1 < visit) {
      obs->count(obs->topology().cells_shed);
    }
  }
  return std::nullopt;
}

bool SelfOrganizing::try_chain(sched::ActiveRequest& ar, const std::size_t* chain,
                               std::size_t length) {
  const auto& type = ar.runtime.type();
  const auto& application = iface_->application();

  pred_finish_.assign(ctx_.seed_finish.begin(), ctx_.seed_finish.end());
  pred_machine_.assign(ctx_.seed_machine.begin(), ctx_.seed_machine.end());
  overlay_.entries.clear();
  plans_.clear();
  for (std::size_t i = 0; i < length; ++i) {
    const std::size_t node = chain[i];
    if (!ar.runtime.node(node).unplaced()) continue;

    const auto& req_node = type.nodes()[node];
    const auto& svc = application.service(req_node.service);
    const PlanContext::NodeEst est = node_est(ar, node);

    parent_finish_.clear();
    parent_machine_.clear();
    for (std::size_t parent : type.dag().parents(node)) {
      VMLP_CHECK_MSG(pred_finish_[parent] >= 0, "chain order violated dependency order");
      parent_finish_.push_back(pred_finish_[parent]);
      parent_machine_.push_back(pred_machine_[parent]);
    }

    const auto admitted = admit_stage(svc.demand, est.busy);
    if (!admitted.has_value()) return false;

    const auto [machine, start] = *admitted;
    plans_.push_back(NodePlan{node, machine, start, est.busy, est.slack});
    overlay_.add(machine, start, start + est.busy, svc.demand);
    pred_finish_[node] = start + std::max(est.busy, est.slack);
    pred_machine_[node] = machine;
  }
  return true;
}

bool SelfOrganizing::organize(RequestId id) {
  sched::ActiveRequest* ar = iface_->find_request(id);
  if (ar == nullptr) return false;
  obs::Collector* obs = iface_->observer();
  if (obs != nullptr) obs->count(obs->mlp().organize_calls);
  const auto& type = ar->runtime.type();
  reset_context(*ar);

  type.dag().chain_choices(params_.max_chain_choices, rng_, chains_);
  std::size_t failed = 0;
  for (std::size_t c = 0; c < chains_.count; ++c) {
    if (failed >= params_.max_failed_chains) break;  // saturated; retrying costs more than it buys
    if (!try_chain(*ar, chains_.row(c), chains_.width)) {
      ++failed;
      continue;
    }
    audit_plan_integrity(*ar, plans_, /*require_full_cover=*/true);
    for (const auto& plan : plans_) {
      const auto& svc = iface_->application().service(type.nodes()[plan.node].service);
      iface_->place(id, plan.node, plan.machine, svc.demand, plan.start, plan.busy);
    }
    ++plans_committed_;
    if (obs != nullptr) {
      obs->count(obs->mlp().plans_committed);
      obs->count(obs->mlp().stages_coalesced, plans_.size());
      obs->event(obs::DecisionKind::kCoalesce, iface_->now(), id.value(),
                 obs::DecisionEvent::kNoIndex, obs::DecisionEvent::kNoIndex,
                 static_cast<std::int64_t>(plans_.size()));
      for (const auto& plan : plans_) {
        // A stage with predecessors was aligned against their predicted
        // finishes (Algorithm 1's Δt alignment); roots only pay the ingress
        // hop.
        if (type.dag().parents(plan.node).empty()) continue;
        obs->count(obs->mlp().stages_aligned);
        obs->event(obs::DecisionKind::kAlign, iface_->now(), id.value(),
                   static_cast<std::uint32_t>(plan.node), plan.machine.value(),
                   static_cast<std::int64_t>(plan.slack));
      }
    }
    return true;
  }
  ++plans_deferred_;
  last_defer_at_ = iface_->now();
  if (obs != nullptr) obs->count(obs->mlp().plans_deferred);
  return false;
}

bool SelfOrganizing::organize_node(RequestId id, std::size_t node) {
  sched::ActiveRequest* ar = iface_->find_request(id);
  if (ar == nullptr) return false;
  if (!ar->runtime.node(node).unplaced()) return true;
  const auto& type = ar->runtime.type();
  reset_context(*ar);
  if (!try_chain(*ar, &node, 1) || plans_.empty()) return false;
  audit_plan_integrity(*ar, plans_, /*require_full_cover=*/false);
  const auto& plan = plans_.front();
  const auto& svc = iface_->application().service(type.nodes()[plan.node].service);
  iface_->place(id, plan.node, plan.machine, svc.demand, plan.start, plan.busy);
  return true;
}

}  // namespace vmlp::mlp
