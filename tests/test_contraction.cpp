// Structural properties of the recursive tree contraction (Sections 3.2/4.2):
// alpha-edge counts, level-count bounds, vertex-map consistency.

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "pandora/dendrogram/analysis.hpp"
#include "pandora/dendrogram/contraction.hpp"
#include "pandora/dendrogram/pandora.hpp"
#include "pandora/dendrogram/sorted_edges.hpp"
#include "test_helpers.hpp"

namespace {

using namespace pandora;
using dendrogram::ContractionHierarchy;
using dendrogram::SortedEdges;
using pandora::testing::Topology;
using pandora::testing::all_topologies;
using pandora::testing::make_tree;
using pandora::testing::topology_name;

ContractionHierarchy hierarchy_of(const graph::EdgeList& tree, index_t nv,
                                  const std::shared_ptr<const exec::Backend>& space) {
  const SortedEdges sorted = dendrogram::sort_edges(exec::default_executor(space), tree, nv);
  std::vector<index_t> gid(static_cast<std::size_t>(sorted.num_edges()));
  std::iota(gid.begin(), gid.end(), index_t{0});
  return dendrogram::build_hierarchy(exec::default_executor(space), sorted.u, sorted.v, std::move(gid), nv,
                                     sorted.num_edges());
}

class ContractionSweep : public ::testing::TestWithParam<std::tuple<Topology, index_t>> {};

INSTANTIATE_TEST_SUITE_P(Sweep, ContractionSweep,
                         ::testing::Combine(::testing::ValuesIn(all_topologies()),
                                            ::testing::Values<index_t>(2, 17, 128, 1000, 4096)));

TEST_P(ContractionSweep, PaperBoundsHold) {
  const auto& [topo, nv] = GetParam();
  for (std::uint64_t seed = 0; seed < 3; ++seed) {
    const graph::EdgeList tree = make_tree(topo, nv, seed);
    const index_t n = nv - 1;
    const ContractionHierarchy h = hierarchy_of(tree, nv, exec::default_backend());

    // Section 4.2: at most ceil(log2(n+1)) contraction levels.
    const auto level_bound =
        static_cast<index_t>(std::ceil(std::log2(static_cast<double>(n) + 1))) + 1;
    EXPECT_LE(h.num_levels(), std::max<index_t>(level_bound, 1))
        << topology_name(topo) << " n=" << n;

    index_t total_edges = 0;
    for (index_t l = 0; l < h.num_levels(); ++l) {
      const auto& level = h.levels[static_cast<std::size_t>(l)];
      // n_alpha <= (n_level - 1) / 2 (Section 4.2).
      EXPECT_LE(2 * level.num_alpha, std::max<index_t>(level.num_edges - 1, 0))
          << "level " << l;
      // The next level is exactly the alpha edges.
      if (l + 1 < h.num_levels()) {
        EXPECT_EQ(h.levels[static_cast<std::size_t>(l) + 1].num_edges, level.num_alpha);
      }
      total_edges += level.num_edges - level.num_alpha;
    }
    EXPECT_EQ(total_edges, n) << "every edge contracted exactly once (or in the final chain)";

    // Fate arrays: every edge has a level; only final-level edges lack a
    // supervertex.
    for (index_t g = 0; g < n; ++g) {
      const index_t lvl = h.contraction_level[static_cast<std::size_t>(g)];
      ASSERT_NE(lvl, kNone);
      if (h.supervertex[static_cast<std::size_t>(g)] == kNone)
        EXPECT_EQ(lvl, h.num_levels() - 1);
      else
        EXPECT_LT(h.supervertex[static_cast<std::size_t>(g)],
                  h.levels[static_cast<std::size_t>(lvl) + 1].num_vertices);
    }
  }
}

TEST_P(ContractionSweep, VertexMapsComposeToConnectedPartitions) {
  const auto& [topo, nv] = GetParam();
  const graph::EdgeList tree = make_tree(topo, nv, 1);
  const ContractionHierarchy h = hierarchy_of(tree, nv, exec::serial_backend());
  for (index_t l = 0; l + 1 < h.num_levels(); ++l) {
    const auto& level = h.levels[static_cast<std::size_t>(l)];
    ASSERT_EQ(static_cast<index_t>(level.vertex_map.size()), level.num_vertices);
    const index_t next_nv = h.levels[static_cast<std::size_t>(l) + 1].num_vertices;
    std::vector<bool> hit(static_cast<std::size_t>(next_nv), false);
    for (const index_t sv : level.vertex_map) {
      ASSERT_GE(sv, 0);
      ASSERT_LT(sv, next_nv);
      hit[static_cast<std::size_t>(sv)] = true;
    }
    EXPECT_TRUE(std::all_of(hit.begin(), hit.end(), [](bool b) { return b; }))
        << "vertex map onto level " << l + 1 << " must be surjective";
  }
}

TEST_P(ContractionSweep, SidedParentsAreIncidentEdges) {
  const auto& [topo, nv] = GetParam();
  const graph::EdgeList tree = make_tree(topo, nv, 2);
  const SortedEdges sorted = dendrogram::sort_edges(exec::default_executor(exec::serial_backend()), tree, nv);
  std::vector<index_t> gid(static_cast<std::size_t>(sorted.num_edges()));
  std::iota(gid.begin(), gid.end(), index_t{0});
  const ContractionHierarchy h = dendrogram::build_hierarchy(exec::default_executor(exec::serial_backend()), sorted.u, sorted.v, std::move(gid), nv, sorted.num_edges());

  // Level 0 sided parents are Eq. (1): the lightest incident edge, with the
  // side bit naming the endpoint.
  const auto& sided = h.levels[0].sided_parent;
  for (index_t v = 0; v < nv; ++v) {
    const auto g = static_cast<index_t>(sided[static_cast<std::size_t>(v)] >> 1);
    const bool side = (sided[static_cast<std::size_t>(v)] & 1) != 0;
    const index_t endpoint = side ? sorted.v[static_cast<std::size_t>(g)]
                                  : sorted.u[static_cast<std::size_t>(g)];
    ASSERT_EQ(endpoint, v) << "side bit must name the vertex's own endpoint";
    // No incident edge may be lighter (larger index).
    for (index_t e = 0; e < sorted.num_edges(); ++e)
      if (sorted.u[static_cast<std::size_t>(e)] == v ||
          sorted.v[static_cast<std::size_t>(e)] == v) {
        ASSERT_LE(e, g);
      }
  }
}

TEST(Contraction, StarTreeContractsInOneLevel) {
  // Every star edge is incident to the hub; only the hub's maxIncident rule
  // applies, so no edge is alpha and the recursion stops immediately.
  graph::EdgeList tree = data::star_tree(500);
  pandora::Rng rng(1);
  data::assign_random_weights(tree, rng);
  const ContractionHierarchy h = hierarchy_of(tree, 500, exec::default_backend());
  EXPECT_EQ(h.num_levels(), 1);
  EXPECT_EQ(h.levels[0].num_alpha, 0);
}

TEST(Contraction, HierarchyCoversEveryGlobalEdge) {
  // The fate arrays are written by the passes themselves (no kNone fill),
  // so a hierarchy over fewer edges than num_global_edges is rejected.
  const graph::EdgeList tree = make_tree(Topology::random_attach, 50, 3);
  const SortedEdges sorted = dendrogram::sort_edges(exec::default_executor(), tree, 50);
  EXPECT_THROW((void)dendrogram::build_hierarchy(exec::default_executor(), sorted.u, sorted.v,
                                                 {}, 50, sorted.num_edges() + 1),
               std::invalid_argument);
}

TEST(Contraction, AlphaCountMatchesDendrogramClassification) {
  // The alpha edges found by local incidence (Eq. 2) are exactly the edge
  // nodes with two edge children in the final dendrogram.
  for (const Topology topo : all_topologies()) {
    const graph::EdgeList tree = make_tree(topo, 600, 5);
    const ContractionHierarchy h = hierarchy_of(tree, 600, exec::default_backend());
    const auto d = dendrogram::pandora_dendrogram(exec::default_executor(), tree, 600);
    const auto counts = dendrogram::classify_edges(d);
    EXPECT_EQ(h.levels[0].num_alpha, counts.alpha_edges) << topology_name(topo);
    // And the paper's identity n_alpha = n_leaf - 1.
    EXPECT_EQ(counts.alpha_edges, counts.leaf_edges - 1) << topology_name(topo);
  }
}

}  // namespace
