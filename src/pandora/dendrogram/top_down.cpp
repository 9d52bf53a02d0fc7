#include "pandora/dendrogram/top_down.hpp"

#include <algorithm>
#include <vector>

#include "pandora/exec/executor.hpp"
#include "pandora/graph/tree.hpp"

namespace pandora::dendrogram {

namespace {

struct Component {
  std::vector<index_t> edges;  ///< sorted-edge ids, arbitrary order
  index_t parent = kNone;      ///< dendrogram parent of this component's root
  index_t anchor = kNone;      ///< a vertex inside the component
};

}  // namespace

Dendrogram top_down_dendrogram(const SortedEdges& sorted) {
  const index_t n = sorted.num_edges();
  const index_t nv = sorted.num_vertices;

  Dendrogram dendrogram;
  dendrogram.num_edges = n;
  dendrogram.num_vertices = nv;
  dendrogram.weight = sorted.weight;
  dendrogram.edge_order = sorted.order;
  dendrogram.parent.assign(static_cast<std::size_t>(n) + static_cast<std::size_t>(nv), kNone);
  if (n == 0) return dendrogram;

  // Global adjacency over the sorted edges; component membership is tracked
  // with an epoch stamp so splitting costs O(component size).
  graph::EdgeList edges(static_cast<std::size_t>(n));
  for (index_t i = 0; i < n; ++i)
    edges[static_cast<std::size_t>(i)] = {sorted.u[static_cast<std::size_t>(i)],
                                          sorted.v[static_cast<std::size_t>(i)],
                                          sorted.weight[static_cast<std::size_t>(i)]};
  const graph::Adjacency adj = graph::build_adjacency(edges, nv);

  std::vector<index_t> edge_epoch(static_cast<std::size_t>(n), 0);
  index_t epoch = 0;

  std::vector<Component> work;
  {
    Component whole;
    whole.edges.resize(static_cast<std::size_t>(n));
    for (index_t i = 0; i < n; ++i) whole.edges[static_cast<std::size_t>(i)] = i;
    whole.anchor = sorted.u[0];
    work.push_back(std::move(whole));
  }

  std::vector<index_t> stack;
  while (!work.empty()) {
    Component comp = std::move(work.back());
    work.pop_back();

    // The heaviest edge (smallest sorted index) roots this sub-dendrogram.
    const index_t heaviest =
        *std::min_element(comp.edges.begin(), comp.edges.end());
    dendrogram.parent[static_cast<std::size_t>(heaviest)] = comp.parent;

    // Stamp the component's remaining edges, then flood from each endpoint of
    // the removed edge to split them into the two sides.
    ++epoch;
    for (index_t e : comp.edges)
      if (e != heaviest) edge_epoch[static_cast<std::size_t>(e)] = epoch;

    for (int side = 0; side < 2; ++side) {
      const index_t start = side == 0 ? sorted.u[static_cast<std::size_t>(heaviest)]
                                      : sorted.v[static_cast<std::size_t>(heaviest)];
      Component child;
      child.parent = heaviest;
      child.anchor = start;
      stack.clear();
      stack.push_back(start);
      while (!stack.empty()) {
        const index_t x = stack.back();
        stack.pop_back();
        for (const auto& half : adj.incident(x)) {
          if (edge_epoch[static_cast<std::size_t>(half.edge)] != epoch) continue;
          edge_epoch[static_cast<std::size_t>(half.edge)] = epoch - 1;  // claim
          child.edges.push_back(half.edge);
          stack.push_back(half.neighbor);
        }
      }
      if (child.edges.empty()) {
        // The side collapsed to the lone endpoint: a vertex leaf whose
        // dendrogram parent is the removed edge (Eq. 1).
        dendrogram.parent[static_cast<std::size_t>(dendrogram.vertex_node(start))] = heaviest;
      } else {
        work.push_back(std::move(child));
      }
    }
  }
  return dendrogram;
}

Dendrogram top_down_dendrogram(const graph::EdgeList& mst, index_t num_vertices) {
  return top_down_dendrogram(
      sort_edges(exec::default_executor(exec::serial_backend()), mst, num_vertices));
}

}  // namespace pandora::dendrogram
