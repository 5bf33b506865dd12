// Directed acyclic graph over request nodes.
//
// A request's invoked microservices form a DAG (Fig. 1(b)); execution follows
// topological order, and Algorithm 1 considers m distinct chain choices c_j —
// topological linearizations — per request. Enumerating all linearizations is
// exponential, so chain_choices() samples distinct ones via randomized Kahn
// tie-breaking (deterministic given the Rng).
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "common/rng.h"

namespace vmlp::app {

/// Caller-owned buffers for Dag::chain_choices. The linearizations sit back
/// to back in `rows` (row i is [i·width, (i+1)·width)); the rest is Kahn
/// working state. An owner that keeps one of these across calls samples
/// without allocating once the buffers reached the DAG's size.
struct ChainChoices {
  std::vector<std::size_t> rows;
  std::size_t count = 0;  ///< rows filled by the last call
  std::size_t width = 0;  ///< nodes per row
  std::vector<std::size_t> indegree;
  std::vector<std::size_t> frontier;

  /// First of row i's `width` entries.
  [[nodiscard]] const std::size_t* row(std::size_t i) const { return rows.data() + i * width; }
};

class Dag {
 public:
  explicit Dag(std::size_t nodes);

  void add_edge(std::size_t from, std::size_t to);

  [[nodiscard]] std::size_t node_count() const { return n_; }
  [[nodiscard]] std::size_t edge_count() const { return edges_.size(); }
  [[nodiscard]] const std::vector<std::pair<std::size_t, std::size_t>>& edges() const {
    return edges_;
  }
  [[nodiscard]] const std::vector<std::size_t>& parents(std::size_t node) const;
  [[nodiscard]] const std::vector<std::size_t>& children(std::size_t node) const;
  /// Start of `node`'s slice in a per-request array holding one entry per
  /// (parent, child) edge grouped by child: parents(node).size() entries from
  /// here on. parent_offset(node_count()) == edge_count().
  [[nodiscard]] std::size_t parent_offset(std::size_t node) const;
  [[nodiscard]] std::vector<std::size_t> roots() const;
  [[nodiscard]] std::vector<std::size_t> sinks() const;

  /// True when the graph has no directed cycle.
  [[nodiscard]] bool is_acyclic() const { return acyclic_; }

  /// Canonical topological order (Kahn, smallest-index tie-break). Throws on
  /// cyclic graphs.
  [[nodiscard]] const std::vector<std::size_t>& topo_order() const;

  /// Fill `out` with up to `max_choices` distinct topological linearizations
  /// (the paper's chain choices c_j). The canonical order is always row 0;
  /// the others are sampled with `rng` in draw order, duplicates dropped.
  void chain_choices(std::size_t max_choices, Rng& rng, ChainChoices& out) const;

  /// Longest path length in *node count* (chain depth).
  [[nodiscard]] std::size_t critical_path_length() const;

  /// True if `ancestor` can reach `node` through directed edges.
  [[nodiscard]] bool reaches(std::size_t ancestor, std::size_t node) const;

 private:
  /// Kahn's algorithm into `order` (room for node_count() entries): random
  /// tie-break with `rng`, smallest index without. Returns the number of
  /// nodes ordered — fewer than node_count() on a cycle.
  std::size_t kahn(Rng* rng, std::vector<std::size_t>& indegree,
                   std::vector<std::size_t>& frontier, std::size_t* order) const;
  /// Recompute the canonical order and the acyclicity flag. Every mutation
  /// calls it, so a const Dag never writes — trial threads share request
  /// types read-only.
  void refresh_canonical();

  std::size_t n_;
  std::vector<std::pair<std::size_t, std::size_t>> edges_;
  std::vector<std::vector<std::size_t>> parents_;
  std::vector<std::vector<std::size_t>> children_;
  std::vector<std::size_t> parent_offsets_;  ///< n_ + 1 prefix sums of parent counts
  std::vector<std::size_t> canonical_;
  bool acyclic_ = true;
};

}  // namespace vmlp::app
