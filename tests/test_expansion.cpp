// Direct behavioural tests of the expansion stage (Section 3.3) on trees
// whose dendrograms are known by hand, including the paper's inverted-Y
// chain example (Figure 5), plus cross-validation against the union-find
// dendrogram (Algorithm 2) under adversarial tie patterns.

#include <gtest/gtest.h>

#include <numeric>

#include "pandora/dendrogram/analysis.hpp"
#include "pandora/dendrogram/contraction.hpp"
#include "pandora/dendrogram/pandora.hpp"
#include "pandora/dendrogram/sorted_edges.hpp"
#include "pandora/dendrogram/union_find_dendrogram.hpp"
#include "test_helpers.hpp"

namespace {

using namespace pandora;
using dendrogram::Dendrogram;
using pandora::testing::Topology;
using pandora::testing::make_tree;

// The inverted-Y dendrogram of Figure 5: a heavy bridge joins two weight-
// decreasing paths.  Every quantity below is computed by hand.
//
//   path A: 0 -3.0- 1 -10- 2 -30- 3          bridge: 3 -100- 7
//   path B: 4 -2.0- 5 -8.0- 6 -20- 7
//
// Descending ranks: r0=bridge, r1=(2,3,30), r2=(6,7,20), r3=(1,2,10),
// r4=(5,6,8), r5=(0,1,3), r6=(4,5,2).
class InvertedY : public ::testing::TestWithParam<std::shared_ptr<const exec::Backend>> {};

INSTANTIATE_TEST_SUITE_P(AllBackends, InvertedY,
                         ::testing::ValuesIn(exec::registered_backends()));

graph::EdgeList inverted_y_tree() {
  return {{0, 1, 3.0}, {1, 2, 10.0}, {2, 3, 30.0}, {3, 7, 100.0},
          {4, 5, 2.0}, {5, 6, 8.0},  {6, 7, 20.0}};
}

TEST_P(InvertedY, HandComputedParents) {
  const exec::Executor& executor = exec::default_executor(GetParam());
  const Dendrogram d = dendrogram::pandora_dendrogram(executor, inverted_y_tree(), 8);
  EXPECT_EQ(d.parent, dendrogram::union_find_dendrogram(executor, inverted_y_tree(), 8).parent);

  // Edge parents: the root chain is {0}; chains {1,3,5} and {2,4,6} hang off
  // its two sides.
  const std::vector<index_t> expected_edges{kNone, 0, 0, 1, 2, 3, 4};
  for (index_t e = 0; e < 7; ++e)
    EXPECT_EQ(d.parent[static_cast<std::size_t>(e)], expected_edges[static_cast<std::size_t>(e)])
        << "edge rank " << e;

  // Vertex parents by Eq. (1): each vertex hangs off its lightest incident
  // edge.
  EXPECT_EQ(d.parent[static_cast<std::size_t>(d.vertex_node(0))], 5);
  EXPECT_EQ(d.parent[static_cast<std::size_t>(d.vertex_node(1))], 5);
  EXPECT_EQ(d.parent[static_cast<std::size_t>(d.vertex_node(2))], 3);
  EXPECT_EQ(d.parent[static_cast<std::size_t>(d.vertex_node(3))], 1);
  EXPECT_EQ(d.parent[static_cast<std::size_t>(d.vertex_node(4))], 6);
  EXPECT_EQ(d.parent[static_cast<std::size_t>(d.vertex_node(5))], 6);
  EXPECT_EQ(d.parent[static_cast<std::size_t>(d.vertex_node(6))], 4);
  EXPECT_EQ(d.parent[static_cast<std::size_t>(d.vertex_node(7))], 2);

  // Structure: exactly one alpha edge (the bridge), two leaf chains.
  const auto counts = dendrogram::classify_edges(d);
  EXPECT_EQ(counts.alpha_edges, 1);
  EXPECT_EQ(counts.leaf_edges, 2);
  EXPECT_EQ(counts.chain_edges, 4);
}

TEST(InvertedYContraction, OneAlphaEdgeTwoLevels) {
  const auto sorted = dendrogram::sort_edges(exec::default_executor(exec::serial_backend()), inverted_y_tree(), 8);
  std::vector<index_t> gid(7);
  std::iota(gid.begin(), gid.end(), index_t{0});
  const auto h = dendrogram::build_hierarchy(exec::default_executor(exec::serial_backend()), sorted.u, sorted.v,
                                             std::move(gid), 8, 7);
  ASSERT_EQ(h.num_levels(), 2);
  EXPECT_EQ(h.levels[0].num_alpha, 1);
  EXPECT_EQ(h.levels[1].num_edges, 1);
  EXPECT_EQ(h.levels[1].num_alpha, 0);
  EXPECT_EQ(h.levels[1].num_vertices, 2);
  // The bridge (rank 0) survives to the final level; all others contract at
  // level 0 into one of the two supervertices.
  EXPECT_EQ(h.contraction_level[0], 1);
  EXPECT_EQ(h.supervertex[0], kNone);
  for (index_t e = 1; e < 7; ++e) {
    EXPECT_EQ(h.contraction_level[static_cast<std::size_t>(e)], 0) << e;
    ASSERT_NE(h.supervertex[static_cast<std::size_t>(e)], kNone) << e;
  }
  // Path A's edges (ranks 1,3,5) share a supervertex; so do B's (2,4,6).
  EXPECT_EQ(h.supervertex[1], h.supervertex[3]);
  EXPECT_EQ(h.supervertex[3], h.supervertex[5]);
  EXPECT_EQ(h.supervertex[2], h.supervertex[4]);
  EXPECT_EQ(h.supervertex[4], h.supervertex[6]);
  EXPECT_NE(h.supervertex[1], h.supervertex[2]);
}

TEST(Expansion, StarIsASingleRootChain) {
  // No alpha edges at all: every edge lands in the root chain, sorted by
  // rank — the Theorem 4 "dendrogram construction is sorting" instance.
  graph::EdgeList tree = data::star_tree(1000);
  pandora::Rng rng(3);
  data::assign_random_weights(tree, rng);
  const Dendrogram d = dendrogram::pandora_dendrogram(exec::default_executor(), tree, 1000);
  EXPECT_EQ(d.parent[0], kNone);
  for (index_t e = 1; e < d.num_edges; ++e)
    ASSERT_EQ(d.parent[static_cast<std::size_t>(e)], e - 1);
  EXPECT_EQ(d.parent, dendrogram::union_find_dendrogram(exec::default_executor(), tree, 1000).parent);
}

TEST(Expansion, AgreesWithUnionFindUnderHeavyTies) {
  // Two distinct weight values force long tie runs through every sort and
  // every chain; multilevel expansion must still match the union-find
  // construction bit-for-bit.
  for (const Topology topo :
       {Topology::preferential, Topology::caterpillar, Topology::broom}) {
    const graph::EdgeList tree = make_tree(topo, 20000, 5, /*distinct=*/2);
    const exec::Executor executor(exec::default_backend());
    const Dendrogram a = dendrogram::pandora_dendrogram(executor, tree, 20000);
    const Dendrogram b = dendrogram::union_find_dendrogram(executor, tree, 20000);
    ASSERT_EQ(a.parent, b.parent);
    dendrogram::validate_dendrogram(a);
  }
}

TEST(Expansion, DeepChainOfBridgesExercisesManyLevels) {
  // A "binary caterpillar": balanced topology whose weights alternate so
  // that contraction needs several levels; checks the per-level scan path.
  graph::EdgeList tree = data::balanced_tree(4096);
  pandora::Rng rng(9);
  data::assign_random_weights(tree, rng);
  const auto sorted = dendrogram::sort_edges(exec::default_executor(exec::serial_backend()), tree, 4096);
  std::vector<index_t> gid(sorted.u.size());
  std::iota(gid.begin(), gid.end(), index_t{0});
  const auto h = dendrogram::build_hierarchy(exec::default_executor(exec::serial_backend()), sorted.u, sorted.v,
                                             std::move(gid), 4096, 4095);
  EXPECT_GE(h.num_levels(), 3) << "random balanced trees need multiple contraction levels";

  const exec::Executor executor(exec::default_backend());
  const Dendrogram reference = dendrogram::union_find_dendrogram(executor, tree, 4096);
  const Dendrogram d = dendrogram::pandora_dendrogram(executor, tree, 4096);
  EXPECT_EQ(reference.parent, d.parent);
}

}  // namespace
