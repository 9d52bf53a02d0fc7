// The central property suite of the repository: PANDORA (Algorithm 3) must
// produce node-for-node the same dendrogram as the bottom-up union-find
// construction (Algorithm 2) and the top-down construction (Algorithm 1) on
// every tree topology, size, weight distribution and execution space.

#include <gtest/gtest.h>

#include <tuple>

#include "pandora/dendrogram/analysis.hpp"
#include "pandora/dendrogram/pandora.hpp"
#include "pandora/dendrogram/top_down.hpp"
#include "pandora/dendrogram/union_find_dendrogram.hpp"
#include "test_helpers.hpp"

namespace {

using namespace pandora;
using dendrogram::Dendrogram;
using pandora::testing::Topology;
using pandora::testing::all_topologies;
using pandora::testing::make_tree;
using pandora::testing::topology_name;

// (topology, num_vertices, distinct weight values [0 = continuous])
using Case = std::tuple<Topology, index_t, int>;

class EquivalenceTest : public ::testing::TestWithParam<Case> {};

std::string case_name(const ::testing::TestParamInfo<Case>& info) {
  const auto& [topo, n, distinct] = info.param;
  return std::string(topology_name(topo)) + "_n" + std::to_string(n) + "_w" +
         std::to_string(distinct);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, EquivalenceTest,
    ::testing::Combine(::testing::ValuesIn(all_topologies()),
                       ::testing::Values<index_t>(2, 3, 7, 64, 257, 1024),
                       ::testing::Values(0, 4)),
    case_name);

TEST_P(EquivalenceTest, PandoraMatchesUnionFindAllSpaces) {
  const auto& [topo, n, distinct] = GetParam();
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    const graph::EdgeList tree = make_tree(topo, n, seed, distinct);
    const Dendrogram reference = dendrogram::union_find_dendrogram(exec::default_executor(), tree, n);
    dendrogram::validate_dendrogram(reference);

    for (const auto& space : exec::registered_backends()) {
      const Dendrogram ours =
          dendrogram::pandora_dendrogram(exec::default_executor(space), tree, n);
      ASSERT_EQ(ours.parent, reference.parent)
          << topology_name(topo) << " n=" << n << " seed=" << seed
          << " space=" << space->name();
      ASSERT_EQ(ours.edge_order, reference.edge_order);
      ASSERT_EQ(ours.weight, reference.weight);
    }
  }
}

TEST_P(EquivalenceTest, TopDownAgreesOnSmallTrees) {
  const auto& [topo, n, distinct] = GetParam();
  if (n > 300) GTEST_SKIP() << "top-down oracle is O(n h); small sizes only";
  for (std::uint64_t seed = 0; seed < 3; ++seed) {
    const graph::EdgeList tree = make_tree(topo, n, seed, distinct);
    const Dendrogram reference = dendrogram::union_find_dendrogram(exec::default_executor(), tree, n);
    const Dendrogram top_down = dendrogram::top_down_dendrogram(tree, n);
    ASSERT_EQ(top_down.parent, reference.parent)
        << topology_name(topo) << " n=" << n << " seed=" << seed;
  }
}

TEST(EquivalenceEdgeCases, SingleVertex) {
  const graph::EdgeList empty;
  const Dendrogram d =
      dendrogram::pandora_dendrogram(exec::default_executor(), empty, 1);
  EXPECT_EQ(d.num_edges, 0);
  EXPECT_EQ(d.num_vertices, 1);
  EXPECT_EQ(d.parent, std::vector<index_t>{kNone});
  EXPECT_EQ(d.root(), kNone);
}

TEST(EquivalenceEdgeCases, SingleEdge) {
  const graph::EdgeList tree{{0, 1, 2.5}};
  for (const auto& space : exec::registered_backends()) {
    const Dendrogram d = dendrogram::pandora_dendrogram(exec::default_executor(space), tree, 2);
    EXPECT_EQ(d.parent[0], kNone);             // the lone edge is the root
    EXPECT_EQ(d.parent[d.vertex_node(0)], 0);  // both vertices hang below it
    EXPECT_EQ(d.parent[d.vertex_node(1)], 0);
    dendrogram::validate_dendrogram(d);
  }
}

TEST(EquivalenceEdgeCases, AllWeightsEqual) {
  // Fully tied weights: the canonical order is the original edge order; all
  // three algorithms must still agree exactly.
  for (const Topology topo : all_topologies()) {
    const graph::EdgeList tree = make_tree(topo, 128, /*seed=*/1, /*distinct=*/1);
    const Dendrogram reference = dendrogram::union_find_dendrogram(exec::default_executor(), tree, 128);
    const Dendrogram ours =
        dendrogram::pandora_dendrogram(exec::default_executor(), tree, 128);
    ASSERT_EQ(ours.parent, reference.parent) << topology_name(topo);
  }
}

TEST(EquivalenceEdgeCases, DeterministicAcrossRepeatsAndSpaces) {
  const graph::EdgeList tree = make_tree(Topology::preferential, 3000, 42, 0);
  const Dendrogram first =
      dendrogram::pandora_dendrogram(exec::default_executor(), tree, 3000);
  for (int repeat = 0; repeat < 3; ++repeat) {
    for (const auto& space : exec::registered_backends()) {
      const Dendrogram d =
          dendrogram::pandora_dendrogram(exec::default_executor(space), tree, 3000);
      ASSERT_EQ(d.parent, first.parent) << "repeat " << repeat;
    }
  }
}

TEST(EquivalenceLarge, RandomTreesTenThousandVertices) {
  for (const Topology topo : {Topology::preferential, Topology::random_attach,
                              Topology::star, Topology::balanced}) {
    const graph::EdgeList tree = make_tree(topo, 10000, 9, 0);
    const Dendrogram reference = dendrogram::union_find_dendrogram(exec::default_executor(), tree, 10000);
    const Dendrogram ours =
        dendrogram::pandora_dendrogram(exec::default_executor(), tree, 10000);
    ASSERT_EQ(ours.parent, reference.parent) << topology_name(topo);
    dendrogram::validate_dendrogram(ours);
  }
}

}  // namespace
