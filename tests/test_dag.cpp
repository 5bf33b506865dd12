// Request DAGs: topological sorting, chain choices, reachability.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "app/dag.h"
#include "common/error.h"

namespace vmlp::app {
namespace {

/// Dag::chain_choices' rows as vectors, for comparisons.
std::vector<std::vector<std::size_t>> chain_choices(const Dag& dag, std::size_t max_choices,
                                                    Rng& rng) {
  ChainChoices out;
  dag.chain_choices(max_choices, rng, out);
  std::vector<std::vector<std::size_t>> rows;
  for (std::size_t i = 0; i < out.count; ++i) {
    rows.emplace_back(out.row(i), out.row(i) + out.width);
  }
  return rows;
}

// Reference chain sampler: the set-deduplicated implementation Dag used
// before it filled caller-owned buffers. Kept as the oracle that the buffer
// version draws the same random numbers and keeps the same rows in order.
std::vector<std::size_t> reference_topo(const Dag& dag, Rng* rng) {
  const std::size_t n = dag.node_count();
  std::vector<std::size_t> indegree(n, 0);
  for (const auto& [from, to] : dag.edges()) {
    (void)from;
    ++indegree[to];
  }
  std::vector<std::size_t> frontier;
  for (std::size_t i = 0; i < n; ++i) {
    if (indegree[i] == 0) frontier.push_back(i);
  }
  std::vector<std::size_t> order;
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
    order.push_back(node);
    for (std::size_t child : dag.children(node)) {
      if (--indegree[child] == 0) frontier.push_back(child);
    }
  }
  return order;
}

std::vector<std::vector<std::size_t>> reference_chain_choices(const Dag& dag,
                                                              std::size_t max_choices, Rng& rng) {
  std::set<std::vector<std::size_t>> unique;
  std::vector<std::vector<std::size_t>> out;
  const auto canonical = reference_topo(dag, nullptr);
  unique.insert(canonical);
  out.push_back(canonical);
  const std::size_t attempts = max_choices * 4;
  for (std::size_t i = 0; i < attempts && out.size() < max_choices; ++i) {
    auto order = reference_topo(dag, &rng);
    if (unique.insert(order).second) out.push_back(std::move(order));
  }
  return out;
}

/// Random DAG: each forward pair (i < j) is an edge with probability
/// `density`, so every graph is acyclic and every shape is reachable.
Dag random_dag(std::size_t nodes, double density, Rng& rng) {
  Dag d(nodes);
  for (std::size_t j = 1; j < nodes; ++j) {
    for (std::size_t i = 0; i < j; ++i) {
      if (rng.bernoulli(density)) d.add_edge(i, j);
    }
  }
  return d;
}

bool respects_dependencies(const Dag& dag, const std::vector<std::size_t>& order) {
  std::vector<std::size_t> position(dag.node_count());
  for (std::size_t i = 0; i < order.size(); ++i) position[order[i]] = i;
  for (const auto& [from, to] : dag.edges()) {
    if (position[from] >= position[to]) return false;
  }
  return true;
}

Dag diamond() {
  Dag d(4);
  d.add_edge(0, 1);
  d.add_edge(0, 2);
  d.add_edge(1, 3);
  d.add_edge(2, 3);
  return d;
}

TEST(Dag, SingleNode) {
  Dag d(1);
  EXPECT_TRUE(d.is_acyclic());
  EXPECT_EQ(d.topo_order(), std::vector<std::size_t>{0});
  EXPECT_EQ(d.roots(), std::vector<std::size_t>{0});
  EXPECT_EQ(d.sinks(), std::vector<std::size_t>{0});
  EXPECT_EQ(d.critical_path_length(), 1u);
}

TEST(Dag, ZeroNodesThrows) { EXPECT_THROW(Dag(0), InvariantError); }

TEST(Dag, EdgeValidation) {
  Dag d(3);
  EXPECT_THROW(d.add_edge(0, 3), InvariantError);
  EXPECT_THROW(d.add_edge(1, 1), InvariantError);
}

TEST(Dag, DiamondStructure) {
  const Dag d = diamond();
  EXPECT_TRUE(d.is_acyclic());
  EXPECT_EQ(d.roots(), std::vector<std::size_t>{0});
  EXPECT_EQ(d.sinks(), std::vector<std::size_t>{3});
  EXPECT_EQ(d.parents(3).size(), 2u);
  EXPECT_EQ(d.children(0).size(), 2u);
  EXPECT_EQ(d.critical_path_length(), 3u);
}

TEST(Dag, TopoOrderValid) {
  const Dag d = diamond();
  const auto order = d.topo_order();
  EXPECT_EQ(order.size(), 4u);
  EXPECT_TRUE(respects_dependencies(d, order));
  EXPECT_EQ(order.front(), 0u);
  EXPECT_EQ(order.back(), 3u);
}

TEST(Dag, TopoOrderCanonicalIsDeterministic) {
  const Dag d = diamond();
  EXPECT_EQ(d.topo_order(), d.topo_order());
  // Smallest-index tie-break: 1 before 2.
  EXPECT_EQ(d.topo_order(), (std::vector<std::size_t>{0, 1, 2, 3}));
}

TEST(Dag, CycleDetected) {
  Dag d(3);
  d.add_edge(0, 1);
  d.add_edge(1, 2);
  d.add_edge(2, 0);
  EXPECT_FALSE(d.is_acyclic());
  EXPECT_THROW((void)d.topo_order(), InvariantError);
}

TEST(Dag, ChainChoicesAreDistinctValidLinearizations) {
  const Dag d = diamond();
  Rng rng(5);
  const auto chains = chain_choices(d, 4, rng);
  ASSERT_GE(chains.size(), 1u);
  EXPECT_LE(chains.size(), 4u);
  std::set<std::vector<std::size_t>> unique(chains.begin(), chains.end());
  EXPECT_EQ(unique.size(), chains.size());
  for (const auto& chain : chains) {
    EXPECT_EQ(chain.size(), 4u);
    EXPECT_TRUE(respects_dependencies(d, chain));
  }
  // The diamond has exactly two linearizations; with 4 requested we should
  // find both.
  EXPECT_EQ(chains.size(), 2u);
}

TEST(Dag, ChainChoicesOfPureChainIsSingle) {
  Dag d(4);
  d.add_edge(0, 1);
  d.add_edge(1, 2);
  d.add_edge(2, 3);
  Rng rng(5);
  EXPECT_EQ(chain_choices(d, 8, rng).size(), 1u);
}

TEST(Dag, ChainChoicesFirstIsCanonical) {
  const Dag d = diamond();
  Rng rng(9);
  EXPECT_EQ(chain_choices(d, 3, rng).front(), d.topo_order());
}

TEST(Dag, Reaches) {
  const Dag d = diamond();
  EXPECT_TRUE(d.reaches(0, 3));
  EXPECT_TRUE(d.reaches(1, 3));
  EXPECT_TRUE(d.reaches(2, 2));  // self
  EXPECT_FALSE(d.reaches(3, 0));
  EXPECT_FALSE(d.reaches(1, 2));
}

TEST(Dag, DisconnectedComponents) {
  Dag d(4);
  d.add_edge(0, 1);
  // 2 and 3 isolated.
  EXPECT_EQ(d.roots().size(), 3u);
  EXPECT_EQ(d.sinks().size(), 3u);
  EXPECT_TRUE(respects_dependencies(d, d.topo_order()));
}

TEST(Dag, WideFanoutCriticalPath) {
  Dag d(6);
  for (std::size_t i = 1; i < 6; ++i) d.add_edge(0, i);
  EXPECT_EQ(d.critical_path_length(), 2u);
  Rng rng(3);
  // 5! = 120 linearizations exist; we should find several distinct ones.
  EXPECT_GE(chain_choices(d, 6, rng).size(), 3u);
}

TEST(Dag, ParentOffsetsSliceEdgesByChild) {
  const Dag d = diamond();
  EXPECT_EQ(d.parent_offset(0), 0u);
  EXPECT_EQ(d.parent_offset(1), 0u);
  EXPECT_EQ(d.parent_offset(2), 1u);
  EXPECT_EQ(d.parent_offset(3), 2u);
  EXPECT_EQ(d.parent_offset(4), d.edge_count());
}

TEST(Dag, TopoOrderFollowsLaterEdges) {
  // The canonical order is recomputed by every add_edge, so a reference
  // taken before the last edge sees the final order.
  Dag d(3);
  const auto& order = d.topo_order();
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2}));
  d.add_edge(2, 0);
  EXPECT_EQ(order, (std::vector<std::size_t>{1, 2, 0}));
  d.add_edge(0, 2);
  EXPECT_FALSE(d.is_acyclic());
  d = diamond();
  EXPECT_TRUE(d.is_acyclic());
}

TEST(Dag, ChainChoicesMatchesSetReference) {
  Rng shapes(11);
  ChainChoices out;  // reused across DAGs of every size, like a scheduler's
  for (std::uint64_t seed = 0; seed < 400; ++seed) {
    const std::size_t nodes = 1 + static_cast<std::size_t>(shapes.uniform_int(0, 15));
    const Dag d = random_dag(nodes, shapes.uniform(0.0, 0.6), shapes);
    ASSERT_TRUE(d.is_acyclic());
    EXPECT_EQ(d.topo_order(), reference_topo(d, nullptr));
    Rng rng(seed);
    Rng ref_rng(seed);
    for (int call = 0; call < 3; ++call) {
      const std::size_t m = 1 + static_cast<std::size_t>(shapes.uniform_int(0, 7));
      d.chain_choices(m, rng, out);
      const auto expected = reference_chain_choices(d, m, ref_rng);
      ASSERT_EQ(out.count, expected.size()) << "seed " << seed << " call " << call;
      ASSERT_EQ(out.width, nodes);
      for (std::size_t i = 0; i < out.count; ++i) {
        EXPECT_TRUE(std::equal(out.row(i), out.row(i) + out.width, expected[i].begin(),
                               expected[i].end()))
            << "seed " << seed << " call " << call << " row " << i;
      }
      // Same draws consumed: the streams stay in lockstep.
      Rng a = rng;
      Rng b = ref_rng;
      ASSERT_EQ(a.next_u64(), b.next_u64()) << "seed " << seed << " call " << call;
    }
  }
}

}  // namespace
}  // namespace vmlp::app
