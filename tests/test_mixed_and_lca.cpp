// Tests for the mixed top-down/bottom-up baseline (Section 2.3.3) and the
// LCA / cophenetic-distance oracle built on Theorem 1.

#include <gtest/gtest.h>

#include <set>

#include "pandora/dendrogram/lca.hpp"
#include "pandora/dendrogram/mixed.hpp"
#include "pandora/dendrogram/pandora.hpp"
#include "pandora/dendrogram/union_find_dendrogram.hpp"
#include "pandora/graph/tree.hpp"
#include "test_helpers.hpp"

namespace {

using namespace pandora;
using dendrogram::Dendrogram;
using pandora::testing::Topology;
using pandora::testing::all_topologies;
using pandora::testing::make_tree;
using pandora::testing::topology_name;

class MixedSweep
    : public ::testing::TestWithParam<std::tuple<Topology, index_t, double>> {};

INSTANTIATE_TEST_SUITE_P(Sweep, MixedSweep,
                         ::testing::Combine(::testing::ValuesIn(all_topologies()),
                                            ::testing::Values<index_t>(2, 33, 500, 4096),
                                            ::testing::Values(0.05, 0.1, 0.5, 1.0)));

TEST_P(MixedSweep, MatchesUnionFindExactly) {
  const auto& [topo, n, fraction] = GetParam();
  for (std::uint64_t seed = 0; seed < 3; ++seed) {
    const graph::EdgeList tree = make_tree(topo, n, seed, seed == 2 ? 3 : 0);
    const Dendrogram reference = dendrogram::union_find_dendrogram(exec::default_executor(), tree, n);
    for (const auto& space : exec::registered_backends()) {
      const Dendrogram mixed =
          dendrogram::mixed_dendrogram(exec::default_executor(space), tree, n, fraction);
      ASSERT_EQ(mixed.parent, reference.parent)
          << topology_name(topo) << " n=" << n << " fraction=" << fraction
          << " space=" << space->name() << " seed=" << seed;
    }
  }
}

TEST(Mixed, PhaseTimesSplitSubtreesStitch) {
  const graph::EdgeList tree = make_tree(Topology::random_attach, 50000, 1);
  const exec::Executor executor(exec::default_backend());
  PhaseTimes times;
  executor.set_phase_times(&times);
  (void)dendrogram::mixed_dendrogram(executor, tree, 50000, 0.1);
  executor.set_phase_times(nullptr);
  EXPECT_GT(times.get("sort"), 0.0);
  EXPECT_GT(times.get("split"), 0.0);
  EXPECT_GT(times.get("subtrees"), 0.0);
  EXPECT_GT(times.get("stitch"), 0.0);
}

TEST(Mixed, RejectsBadFraction) {
  const graph::EdgeList tree = make_tree(Topology::path, 10, 1);
  const exec::Executor executor(exec::serial_backend());
  EXPECT_THROW((void)dendrogram::mixed_dendrogram(executor, tree, 10, -0.1),
               std::invalid_argument);
  EXPECT_THROW((void)dendrogram::mixed_dendrogram(executor, tree, 10, 1.5),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------

/// Brute-force LCDA via ancestor sets.
index_t brute_lca(const Dendrogram& d, index_t a, index_t b) {
  std::set<index_t> ancestors;
  for (index_t cur = a; cur != kNone; cur = d.parent[static_cast<std::size_t>(cur)])
    ancestors.insert(cur);
  for (index_t cur = b; cur != kNone; cur = d.parent[static_cast<std::size_t>(cur)])
    if (ancestors.contains(cur)) return cur;
  return kNone;
}

class LcaSweep : public ::testing::TestWithParam<Topology> {};
INSTANTIATE_TEST_SUITE_P(Sweep, LcaSweep, ::testing::ValuesIn(all_topologies()),
                         [](const auto& info) { return std::string(topology_name(info.param)); });

TEST_P(LcaSweep, MatchesBruteForceOnAllPairs) {
  const index_t nv = 150;
  const graph::EdgeList tree = make_tree(GetParam(), nv, 5);
  const Dendrogram d = dendrogram::pandora_dendrogram(exec::default_executor(), tree, nv);
  const dendrogram::DendrogramLca lca(d);
  for (index_t a = 0; a < d.num_edges; a += 3)
    for (index_t b = 0; b < d.num_edges; b += 5)
      ASSERT_EQ(lca.lca_edges(a, b), brute_lca(d, a, b)) << "a=" << a << " b=" << b;
}

TEST_P(LcaSweep, CopheneticDistanceIsMaxEdgeOnTreePath) {
  // Theorem 1 via points: the single-linkage merge height of u and v equals
  // the heaviest edge weight on the MST path between them.
  const index_t nv = 120;
  const graph::EdgeList tree = make_tree(GetParam(), nv, 11);
  const Dendrogram d = dendrogram::pandora_dendrogram(exec::default_executor(), tree, nv);
  const dendrogram::DendrogramLca lca(d);
  const graph::Adjacency adj = graph::build_adjacency(tree, nv);

  // BFS from each source tracking the max edge weight en route.
  for (index_t src = 0; src < nv; src += 7) {
    std::vector<double> max_weight(static_cast<std::size_t>(nv), -1.0);
    std::vector<index_t> queue{src};
    max_weight[static_cast<std::size_t>(src)] = 0.0;
    for (std::size_t head = 0; head < queue.size(); ++head) {
      const index_t x = queue[head];
      for (const auto& half : adj.incident(x)) {
        if (max_weight[static_cast<std::size_t>(half.neighbor)] >= 0.0) continue;
        max_weight[static_cast<std::size_t>(half.neighbor)] =
            std::max(max_weight[static_cast<std::size_t>(x)],
                     tree[static_cast<std::size_t>(half.edge)].weight);
        queue.push_back(half.neighbor);
      }
    }
    for (index_t dst = 0; dst < nv; dst += 3) {
      if (dst == src) continue;
      ASSERT_DOUBLE_EQ(lca.cophenetic_distance(src, dst),
                       max_weight[static_cast<std::size_t>(dst)])
          << "src=" << src << " dst=" << dst;
    }
  }
}

TEST(Lca, SelfDistanceIsZeroAndSymmetry) {
  const graph::EdgeList tree = make_tree(Topology::preferential, 200, 2);
  const Dendrogram d = dendrogram::pandora_dendrogram(exec::default_executor(), tree, 200);
  const dendrogram::DendrogramLca lca(d);
  EXPECT_EQ(lca.cophenetic_distance(5, 5), 0.0);
  for (index_t a = 0; a < 200; a += 17)
    for (index_t b = a + 1; b < 200; b += 13)
      EXPECT_DOUBLE_EQ(lca.cophenetic_distance(a, b), lca.cophenetic_distance(b, a));
}

TEST(Lca, DepthsMatchAnalysis) {
  const graph::EdgeList tree = make_tree(Topology::broom, 300, 4);
  const Dendrogram d = dendrogram::pandora_dendrogram(exec::default_executor(), tree, 300);
  const dendrogram::DendrogramLca lca(d);
  for (index_t e = 1; e < d.num_edges; ++e)
    EXPECT_EQ(lca.depth(e),
              lca.depth(d.parent[static_cast<std::size_t>(e)]) + 1);
}

}  // namespace
