#include "app/dag.h"

#include <algorithm>

#include "common/error.h"

namespace vmlp::app {

Dag::Dag(std::size_t nodes)
    : n_(nodes), parents_(nodes), children_(nodes), parent_offsets_(nodes + 1, 0) {
  VMLP_CHECK_MSG(nodes > 0, "DAG needs at least one node");
  refresh_canonical();
}

void Dag::add_edge(std::size_t from, std::size_t to) {
  VMLP_CHECK_MSG(from < n_ && to < n_, "edge endpoint out of range");
  VMLP_CHECK_MSG(from != to, "self edge on node " << from);
  edges_.emplace_back(from, to);
  children_[from].push_back(to);
  parents_[to].push_back(from);
  for (std::size_t i = to + 1; i <= n_; ++i) ++parent_offsets_[i];
  refresh_canonical();
}

const std::vector<std::size_t>& Dag::parents(std::size_t node) const {
  VMLP_CHECK(node < n_);
  return parents_[node];
}

const std::vector<std::size_t>& Dag::children(std::size_t node) const {
  VMLP_CHECK(node < n_);
  return children_[node];
}

std::size_t Dag::parent_offset(std::size_t node) const {
  VMLP_CHECK(node <= n_);
  return parent_offsets_[node];
}

std::vector<std::size_t> Dag::roots() const {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < n_; ++i) {
    if (parents_[i].empty()) out.push_back(i);
  }
  return out;
}

std::vector<std::size_t> Dag::sinks() const {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < n_; ++i) {
    if (children_[i].empty()) out.push_back(i);
  }
  return out;
}

std::size_t Dag::kahn(Rng* rng, std::vector<std::size_t>& indegree,
                      std::vector<std::size_t>& frontier, std::size_t* order) const {
  indegree.resize(n_);
  frontier.clear();
  for (std::size_t i = 0; i < n_; ++i) {
    indegree[i] = parents_[i].size();
    if (indegree[i] == 0) frontier.push_back(i);
  }
  std::size_t placed = 0;
  while (!frontier.empty()) {
    std::size_t pick_pos = 0;
    if (rng != nullptr && frontier.size() > 1) {
      pick_pos = static_cast<std::size_t>(
          rng->uniform_int(0, static_cast<std::int64_t>(frontier.size()) - 1));
    } else {
      pick_pos = static_cast<std::size_t>(
          std::min_element(frontier.begin(), frontier.end()) - frontier.begin());
    }
    const std::size_t node = frontier[pick_pos];
    frontier.erase(frontier.begin() + static_cast<std::ptrdiff_t>(pick_pos));
    order[placed++] = node;
    for (std::size_t child : children_[node]) {
      if (--indegree[child] == 0) frontier.push_back(child);
    }
  }
  return placed;
}

void Dag::refresh_canonical() {
  std::vector<std::size_t> indegree;
  std::vector<std::size_t> frontier;
  canonical_.resize(n_);
  canonical_.resize(kahn(nullptr, indegree, frontier, canonical_.data()));
  acyclic_ = canonical_.size() == n_;
}

const std::vector<std::size_t>& Dag::topo_order() const {
  VMLP_CHECK_MSG(acyclic_, "DAG contains a cycle");
  return canonical_;
}

void Dag::chain_choices(std::size_t max_choices, Rng& rng, ChainChoices& out) const {
  VMLP_CHECK(max_choices >= 1);
  const std::vector<std::size_t>& canonical = topo_order();
  out.width = n_;
  if (out.rows.size() < max_choices * n_) out.rows.resize(max_choices * n_);
  std::copy(canonical.begin(), canonical.end(), out.rows.begin());
  out.count = 1;
  // Sampling budget: a few tries per requested choice is enough in practice;
  // narrow DAGs simply yield fewer distinct linearizations.
  const std::size_t attempts = max_choices * 4;
  for (std::size_t i = 0; i < attempts && out.count < max_choices; ++i) {
    // Sample straight into the next free row; it is kept only if it differs
    // from every row already kept (at most m, so a scan beats a set).
    std::size_t* candidate = out.rows.data() + out.count * n_;
    (void)kahn(&rng, out.indegree, out.frontier, candidate);
    bool fresh = true;
    for (std::size_t r = 0; r < out.count && fresh; ++r) {
      fresh = !std::equal(candidate, candidate + n_, out.rows.data() + r * n_);
    }
    if (fresh) ++out.count;
  }
}

std::size_t Dag::critical_path_length() const {
  std::vector<std::size_t> depth(n_, 1);
  for (std::size_t node : topo_order()) {
    for (std::size_t child : children_[node]) {
      depth[child] = std::max(depth[child], depth[node] + 1);
    }
  }
  return *std::max_element(depth.begin(), depth.end());
}

bool Dag::reaches(std::size_t ancestor, std::size_t node) const {
  VMLP_CHECK(ancestor < n_ && node < n_);
  if (ancestor == node) return true;
  std::vector<bool> seen(n_, false);
  std::vector<std::size_t> stack{ancestor};
  seen[ancestor] = true;
  while (!stack.empty()) {
    const std::size_t cur = stack.back();
    stack.pop_back();
    for (std::size_t child : children_[cur]) {
      if (child == node) return true;
      if (!seen[child]) {
        seen[child] = true;
        stack.push_back(child);
      }
    }
  }
  return false;
}

}  // namespace vmlp::app
