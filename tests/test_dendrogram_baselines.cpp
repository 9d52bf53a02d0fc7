// Direct behavioural tests of the two baseline constructions (Algorithms 1
// and 2) on hand-checkable trees; the large-scale agreement with PANDORA is
// covered by test_dendrogram_equivalence.

#include <gtest/gtest.h>

#include "pandora/dendrogram/analysis.hpp"
#include "pandora/dendrogram/top_down.hpp"
#include "pandora/dendrogram/union_find_dendrogram.hpp"
#include "test_helpers.hpp"

namespace {

using namespace pandora;
using dendrogram::Dendrogram;

// Star with ascending weights: edge i (0-based, weight i+1) connects the hub.
// Sorted descending, edge rank r corresponds to original edge n-1-r.  The
// dendrogram must be a single chain: rank 0 root, each rank's parent the one
// above — the Theorem 4 sorting construction.
TEST(UnionFindDendrogram, StarWithAscendingWeightsIsASortedChain) {
  const index_t nv = 64;
  graph::EdgeList tree = data::star_tree(nv);
  data::assign_increasing_weights(tree);
  const Dendrogram d = dendrogram::union_find_dendrogram(exec::default_executor(), tree, nv);
  dendrogram::validate_dendrogram(d);
  EXPECT_EQ(d.parent[0], kNone);
  for (index_t e = 1; e < d.num_edges; ++e)
    EXPECT_EQ(d.parent[static_cast<std::size_t>(e)], e - 1) << "chain broken at " << e;
  EXPECT_EQ(dendrogram::height(d), d.num_edges);
  // The hub vertex falls out at the lightest edge (the deepest chain node);
  // every leaf vertex hangs off its own edge.
  EXPECT_EQ(d.parent[static_cast<std::size_t>(d.vertex_node(0))], d.num_edges - 1);
}

TEST(UnionFindDendrogram, PathWithAscendingWeightsIsAComb) {
  // Path 0-1-2-...-n with weight i+1 on edge (i, i+1): removing the heaviest
  // edge always splits off a single vertex; each edge's parent is the next
  // heavier edge.
  const index_t nv = 32;
  graph::EdgeList tree = data::path_tree(nv);
  data::assign_increasing_weights(tree);
  const Dendrogram d = dendrogram::union_find_dendrogram(exec::default_executor(), tree, nv);
  dendrogram::validate_dendrogram(d);
  for (index_t e = 1; e < d.num_edges; ++e)
    EXPECT_EQ(d.parent[static_cast<std::size_t>(e)], e - 1);
  const auto counts = dendrogram::classify_edges(d);
  EXPECT_EQ(counts.alpha_edges, 0);
  EXPECT_EQ(counts.leaf_edges, 1);
  EXPECT_EQ(counts.chain_edges, d.num_edges - 1);
}

TEST(UnionFindDendrogram, BalancedFourPointExample) {
  // Two tight pairs joined by a long bridge:
  //   0 -1.0- 1   (edge 0)
  //   2 -1.5- 3   (edge 1)
  //   1 -9.0- 2   (edge 2, the bridge)
  const graph::EdgeList tree{{0, 1, 1.0}, {2, 3, 1.5}, {1, 2, 9.0}};
  const Dendrogram d = dendrogram::union_find_dendrogram(exec::default_executor(), tree, 4);
  // Sorted descending: rank0 = bridge(9.0), rank1 = 1.5, rank2 = 1.0.
  EXPECT_EQ(d.edge_order, (std::vector<index_t>{2, 1, 0}));
  EXPECT_EQ(d.parent[0], kNone);
  EXPECT_EQ(d.parent[1], 0);  // both pair-edges are children of the bridge
  EXPECT_EQ(d.parent[2], 0);
  EXPECT_EQ(d.parent[static_cast<std::size_t>(d.vertex_node(0))], 2);
  EXPECT_EQ(d.parent[static_cast<std::size_t>(d.vertex_node(1))], 2);
  EXPECT_EQ(d.parent[static_cast<std::size_t>(d.vertex_node(2))], 1);
  EXPECT_EQ(d.parent[static_cast<std::size_t>(d.vertex_node(3))], 1);
  const auto counts = dendrogram::classify_edges(d);
  EXPECT_EQ(counts.alpha_edges, 1);
  EXPECT_EQ(counts.leaf_edges, 2);
}

TEST(TopDownDendrogram, MatchesUnionFindOnPaperStyleExample) {
  // A 12-vertex tree with mixed chain/branch structure.
  pandora::Rng rng(21);
  graph::EdgeList tree = data::preferential_attachment_tree(12, rng);
  data::assign_random_weights(tree, rng);
  const Dendrogram a = dendrogram::union_find_dendrogram(exec::default_executor(), tree, 12);
  const Dendrogram b = dendrogram::top_down_dendrogram(tree, 12);
  EXPECT_EQ(a.parent, b.parent);
}

TEST(TopDownDendrogram, HandlesSingleEdgeAndTwoEdges) {
  {
    const graph::EdgeList tree{{0, 1, 1.0}};
    const Dendrogram d = dendrogram::top_down_dendrogram(tree, 2);
    EXPECT_EQ(d.parent[0], kNone);
  }
  {
    const graph::EdgeList tree{{0, 1, 2.0}, {1, 2, 1.0}};
    const Dendrogram d = dendrogram::top_down_dendrogram(tree, 3);
    EXPECT_EQ(d.parent[0], kNone);
    EXPECT_EQ(d.parent[1], 0);
    // Vertex 0 detaches at the heavy edge; 1 and 2 at the light one.
    EXPECT_EQ(d.parent[static_cast<std::size_t>(d.vertex_node(0))], 0);
    EXPECT_EQ(d.parent[static_cast<std::size_t>(d.vertex_node(1))], 1);
    EXPECT_EQ(d.parent[static_cast<std::size_t>(d.vertex_node(2))], 1);
  }
}

TEST(UnionFindDendrogram, PhaseTimesAreRecorded) {
  pandora::Rng rng(5);
  graph::EdgeList tree = data::random_attachment_tree(5000, rng);
  data::assign_random_weights(tree, rng);
  // A PhaseTimes sink on the executor replaces the old PhaseTimes* out-params.
  const exec::Executor executor(exec::default_backend());
  PhaseTimes times;
  executor.set_phase_times(&times);
  (void)dendrogram::union_find_dendrogram(executor, tree, 5000);
  executor.set_phase_times(nullptr);
  EXPECT_GT(times.get("sort"), 0.0);
  EXPECT_GT(times.get("dendrogram"), 0.0);
}

}  // namespace
