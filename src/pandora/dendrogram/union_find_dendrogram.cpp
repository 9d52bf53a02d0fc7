#include "pandora/dendrogram/union_find_dendrogram.hpp"

#include "pandora/graph/union_find.hpp"

namespace pandora::dendrogram {

Dendrogram union_find_dendrogram(const exec::Executor& exec, const SortedEdges& sorted) {
  const index_t n = sorted.num_edges();
  const index_t nv = sorted.num_vertices;

  Dendrogram dendrogram;
  dendrogram.num_edges = n;
  dendrogram.num_vertices = nv;
  dendrogram.weight = sorted.weight;
  dendrogram.edge_order = sorted.order;
  dendrogram.parent.assign(static_cast<std::size_t>(n) + static_cast<std::size_t>(nv), kNone);

  const exec::ScopedPhase phase(exec, "dendrogram");
  graph::UnionFind uf(nv);
  // rep_edge[root]: the most recent (lightest-processed-so-far) edge that
  // merged the component rooted at `root`; it is the component's current
  // representative node in the partially built dendrogram.
  std::vector<index_t> rep_edge(static_cast<std::size_t>(nv), kNone);

  for (index_t i = n - 1; i >= 0; --i) {
    const index_t eu = sorted.u[static_cast<std::size_t>(i)];
    const index_t ev = sorted.v[static_cast<std::size_t>(i)];
    for (index_t x : {eu, ev}) {
      const index_t r = uf.find(x);
      if (rep_edge[static_cast<std::size_t>(r)] != kNone) {
        dendrogram.parent[static_cast<std::size_t>(rep_edge[static_cast<std::size_t>(r)])] = i;
      } else {
        // First edge ever to touch x's (singleton) component: by Eq. (1)
        // this edge is maxIncident(x), the dendrogram parent of the vertex.
        dendrogram.parent[static_cast<std::size_t>(dendrogram.vertex_node(x))] = i;
      }
    }
    uf.unite(eu, ev);
    rep_edge[static_cast<std::size_t>(uf.find(eu))] = i;
  }
  return dendrogram;
}

Dendrogram union_find_dendrogram(const exec::Executor& exec, const graph::EdgeList& mst,
                                 index_t num_vertices, bool validate_input) {
  const std::shared_ptr<const SortedEdges> sorted = [&] {
    const exec::ScopedPhase phase(exec, "sort");
    return sorted_edges_cached(exec, mst, num_vertices, validate_input);
  }();
  return union_find_dendrogram(exec, *sorted);
}

}  // namespace pandora::dendrogram
