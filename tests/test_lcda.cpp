// Theorem 1: the Lowest Common Dendrogram Ancestor of two edges is the
// heaviest edge (smallest sorted index) on the tree path between them.
// Verified by brute force against the constructed dendrogram, plus
// Corollary 1.1 (incident edges are ancestor-related) and the lineage-
// preservation property of the alpha contraction (Theorem 3 / Section 3.4.3).

#include <gtest/gtest.h>

#include <span>
#include <set>

#include "pandora/dendrogram/contraction.hpp"
#include "pandora/dendrogram/pandora.hpp"
#include "pandora/dendrogram/sorted_edges.hpp"
#include "pandora/graph/tree.hpp"
#include "test_helpers.hpp"

namespace {

using namespace pandora;
using dendrogram::Dendrogram;
using dendrogram::SortedEdges;
using pandora::testing::Topology;
using pandora::testing::all_topologies;
using pandora::testing::make_tree;
using pandora::testing::topology_name;

/// Ancestor chain of an edge in the dendrogram (including itself).
std::vector<index_t> ancestors(const Dendrogram& d, index_t e) {
  std::vector<index_t> chain;
  for (index_t cur = e; cur != kNone; cur = d.parent[static_cast<std::size_t>(cur)])
    chain.push_back(cur);
  return chain;
}

index_t lcda_by_parents(const Dendrogram& d, index_t a, index_t b) {
  const std::vector<index_t> ca = ancestors(d, a);
  const std::set<index_t> sb(ca.begin(), ca.end());
  for (index_t cur = b; cur != kNone; cur = d.parent[static_cast<std::size_t>(cur)])
    if (sb.contains(cur)) return cur;
  return kNone;
}

/// Heaviest (minimum sorted index) edge on the tree path between edges a and
/// b, by BFS over the sorted-edge adjacency.
index_t heaviest_on_path(const SortedEdges& sorted, index_t a, index_t b) {
  const index_t n = sorted.num_edges();
  graph::EdgeList edges(static_cast<std::size_t>(n));
  for (index_t i = 0; i < n; ++i)
    edges[static_cast<std::size_t>(i)] = {sorted.u[static_cast<std::size_t>(i)],
                                          sorted.v[static_cast<std::size_t>(i)], 0.0};
  const graph::Adjacency adj = graph::build_adjacency(edges, sorted.num_vertices);

  // Path between edge a and edge b: walk from a's endpoints to b's endpoints.
  // BFS from vertex u_a tracking parent edges.
  std::vector<index_t> parent_edge(static_cast<std::size_t>(sorted.num_vertices), kNone);
  std::vector<bool> visited(static_cast<std::size_t>(sorted.num_vertices), false);
  std::vector<index_t> queue{sorted.u[static_cast<std::size_t>(a)]};
  visited[static_cast<std::size_t>(queue[0])] = true;
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const index_t x = queue[head];
    for (const auto& half : adj.incident(x)) {
      if (visited[static_cast<std::size_t>(half.neighbor)]) continue;
      visited[static_cast<std::size_t>(half.neighbor)] = true;
      parent_edge[static_cast<std::size_t>(half.neighbor)] = half.edge;
      queue.push_back(half.neighbor);
    }
  }
  // Collect edges from each endpoint of b back to u_a; the path between the
  // two edges is the union of {a}, {b} and the vertex path; the minimum index
  // over the walked edges (plus a and b) is the heaviest on Path(a, b).
  index_t heaviest = std::min(a, b);
  index_t walk = sorted.u[static_cast<std::size_t>(b)];
  while (parent_edge[static_cast<std::size_t>(walk)] != kNone) {
    const index_t e = parent_edge[static_cast<std::size_t>(walk)];
    if (e == a) break;  // reached a; the rest is not on the a-b path
    heaviest = std::min(heaviest, e);
    const index_t eu = sorted.u[static_cast<std::size_t>(e)];
    walk = (eu == walk) ? sorted.v[static_cast<std::size_t>(e)] : eu;
  }
  return heaviest;
}

class LcdaSweep : public ::testing::TestWithParam<Topology> {};
INSTANTIATE_TEST_SUITE_P(Sweep, LcdaSweep, ::testing::ValuesIn(all_topologies()),
                         [](const auto& info) { return std::string(topology_name(info.param)); });

TEST_P(LcdaSweep, LcdaIsHeaviestEdgeOnPath) {
  const index_t nv = 60;
  for (std::uint64_t seed = 0; seed < 3; ++seed) {
    const graph::EdgeList tree = make_tree(GetParam(), nv, seed);
    const SortedEdges sorted = dendrogram::sort_edges(exec::default_executor(exec::serial_backend()), tree, nv);
    const Dendrogram d = dendrogram::pandora_dendrogram(exec::default_executor(), sorted);
    for (index_t a = 0; a < d.num_edges; ++a)
      for (index_t b = a; b < d.num_edges; ++b)
        ASSERT_EQ(lcda_by_parents(d, a, b), heaviest_on_path(sorted, a, b))
            << topology_name(GetParam()) << " seed=" << seed << " a=" << a << " b=" << b;
  }
}

TEST_P(LcdaSweep, IncidentEdgesAreAncestorRelated) {
  // Corollary 1.1: adjacent tree edges are comparable in the dendrogram.
  const index_t nv = 200;
  const graph::EdgeList tree = make_tree(GetParam(), nv, 4);
  const SortedEdges sorted = dendrogram::sort_edges(exec::default_executor(exec::serial_backend()), tree, nv);
  const Dendrogram d = dendrogram::pandora_dendrogram(exec::default_executor(), sorted);
  for (index_t a = 0; a < d.num_edges; ++a)
    for (index_t b = a + 1; b < d.num_edges; ++b) {
      const bool incident = sorted.u[static_cast<std::size_t>(a)] ==
                                sorted.u[static_cast<std::size_t>(b)] ||
                            sorted.u[static_cast<std::size_t>(a)] ==
                                sorted.v[static_cast<std::size_t>(b)] ||
                            sorted.v[static_cast<std::size_t>(a)] ==
                                sorted.u[static_cast<std::size_t>(b)] ||
                            sorted.v[static_cast<std::size_t>(a)] ==
                                sorted.v[static_cast<std::size_t>(b)];
      if (!incident) continue;
      // a < b, so a (heavier) must be an ancestor of b.
      ASSERT_EQ(lcda_by_parents(d, a, b), a);
    }
}

TEST(LineagePreservation, AlphaContractionPreservesAncestry) {
  // Theorem 3 via Section 3.4.3: for alpha edges, ancestry in the contracted
  // tree's dendrogram equals ancestry in the full dendrogram.
  for (const Topology topo : all_topologies()) {
    const index_t nv = 120;
    const graph::EdgeList tree = make_tree(topo, nv, 7);
    const SortedEdges sorted = dendrogram::sort_edges(exec::default_executor(exec::serial_backend()), tree, nv);
    const Dendrogram full = dendrogram::pandora_dendrogram(exec::default_executor(), sorted);

    // Build the alpha-MST from level 0 of the contraction hierarchy: the
    // alpha edges are those that survive past level 0, and their endpoints
    // map to level-1 supervertices through level 0's vertex map.
    const auto h = dendrogram::build_hierarchy(exec::default_executor(exec::serial_backend()),
                                               sorted.u, sorted.v, {}, nv, sorted.num_edges());
    if (h.levels[0].num_alpha == 0) continue;
    const std::span<const index_t> vertex_map = h.levels[0].vertex_map;
    graph::EdgeList alpha_tree;
    std::vector<index_t> alpha_gid;
    for (index_t g = 0; g < sorted.num_edges(); ++g) {
      const auto gi = static_cast<std::size_t>(g);
      if (h.contraction_level[gi] < 1) continue;
      alpha_tree.push_back({vertex_map[static_cast<std::size_t>(sorted.u[gi])],
                            vertex_map[static_cast<std::size_t>(sorted.v[gi])], sorted.weight[gi]});
      alpha_gid.push_back(g);
    }
    const Dendrogram alpha_dendro =
        dendrogram::pandora_dendrogram(exec::default_executor(), alpha_tree, h.levels[1].num_vertices);

    // Compare ancestor relations pairwise (alpha dendrogram indices map to
    // global ones through alpha_gid; sort order is preserved, so position i
    // in alpha_dendro corresponds to alpha_gid[edge_order[i]]).
    auto global_of = [&](index_t alpha_rank) {
      return alpha_gid[static_cast<std::size_t>(
          alpha_dendro.edge_order[static_cast<std::size_t>(alpha_rank)])];
    };
    const index_t na = alpha_dendro.num_edges;
    for (index_t a = 0; a < na; ++a)
      for (index_t b = 0; b < na; ++b) {
        const index_t lc_alpha = lcda_by_parents(alpha_dendro, a, b);
        const index_t lc_full = lcda_by_parents(full, global_of(a), global_of(b));
        ASSERT_EQ(global_of(lc_alpha), lc_full)
            << topology_name(topo) << " a=" << a << " b=" << b;
      }
  }
}

}  // namespace
