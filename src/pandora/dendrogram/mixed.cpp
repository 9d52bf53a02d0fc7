#include "pandora/dendrogram/mixed.hpp"

#include <algorithm>
#include <vector>

#include "pandora/common/expect.hpp"
#include "pandora/exec/parallel.hpp"
#include "pandora/graph/union_find.hpp"

namespace pandora::dendrogram {

namespace {

/// Runs the Algorithm-2 merge step for one edge against shared state.  The
/// per-component phase may call this concurrently for *vertex-disjoint*
/// components: every touched slot (union-find entries, rep_edge roots,
/// parent slots) belongs to exactly one component.
void merge_edge(const SortedEdges& sorted, index_t i, graph::UnionFind& uf,
                std::vector<index_t>& rep_edge, Dendrogram& dendrogram) {
  const index_t eu = sorted.u[static_cast<std::size_t>(i)];
  const index_t ev = sorted.v[static_cast<std::size_t>(i)];
  for (const index_t x : {eu, ev}) {
    const index_t r = uf.find(x);
    if (rep_edge[static_cast<std::size_t>(r)] != kNone) {
      dendrogram.parent[static_cast<std::size_t>(rep_edge[static_cast<std::size_t>(r)])] = i;
    } else {
      dendrogram.parent[static_cast<std::size_t>(dendrogram.vertex_node(x))] = i;
    }
  }
  uf.unite(eu, ev);
  rep_edge[static_cast<std::size_t>(uf.find(eu))] = i;
}

}  // namespace

Dendrogram mixed_dendrogram(const exec::Executor& exec, const SortedEdges& sorted,
                            double top_fraction) {
  PANDORA_EXPECT(top_fraction >= 0.0 && top_fraction <= 1.0,
                 "top_fraction must be a fraction");
  const index_t n = sorted.num_edges();
  const index_t nv = sorted.num_vertices;

  Dendrogram dendrogram;
  dendrogram.num_edges = n;
  dendrogram.num_vertices = nv;
  dendrogram.weight = sorted.weight;
  dendrogram.edge_order = sorted.order;
  dendrogram.parent.assign(static_cast<std::size_t>(n) + static_cast<std::size_t>(nv), kNone);
  if (n == 0) return dendrogram;

  // Withhold the top_fraction heaviest edges (ranks [0, cut)).
  const auto cut = std::min<index_t>(
      n, std::max<index_t>(1, static_cast<index_t>(top_fraction * static_cast<double>(n))));

  std::vector<std::vector<index_t>> buckets;
  std::vector<index_t> roots;
  {
    const exec::ScopedPhase phase(exec, "split");
    // Subtree discovery: components of the light edges [cut, n).
    graph::ConcurrentUnionFind components(nv);
    exec::parallel_for(exec, static_cast<size_type>(n) - cut, [&](size_type k) {
      const auto i = static_cast<index_t>(cut + k);
      components.unite(sorted.u[static_cast<std::size_t>(i)],
                       sorted.v[static_cast<std::size_t>(i)]);
    });

    // Bucket the light edges by component.  Edges are appended in descending
    // rank order (ascending weight reversed), so each bucket ends up sorted
    // the way the bottom-up pass consumes it (back() = lightest first).
    auto component_of_lease = exec.workspace().take<index_t>(n, kNone);
    const std::span<index_t> component_of = component_of_lease.span();
    exec::parallel_for(exec, static_cast<size_type>(n) - cut, [&](size_type k) {
      const auto i = static_cast<index_t>(cut + k);
      component_of[static_cast<std::size_t>(i)] =
          components.find(sorted.u[static_cast<std::size_t>(i)]);
    });
    buckets.resize(static_cast<std::size_t>(nv));
    for (index_t i = n - 1; i >= cut; --i)
      buckets[static_cast<std::size_t>(component_of[static_cast<std::size_t>(i)])].push_back(i);
    for (index_t v = 0; v < nv; ++v)
      if (!buckets[static_cast<std::size_t>(v)].empty()) roots.push_back(v);
  }

  // Phase 1: bottom-up per subtree, parallel over subtrees.  Shared state is
  // safe because subtrees are vertex-disjoint (see merge_edge).
  graph::UnionFind uf(0);
  std::vector<index_t> rep_edge;
  {
    const exec::ScopedPhase phase(exec, "subtrees");
    uf = graph::UnionFind(nv);
    rep_edge.assign(static_cast<std::size_t>(nv), kNone);
    if (exec.num_threads() > 1) {
      // One chunk per subtree, dynamically balanced across the backend's
      // workers (bucket sizes are highly skewed).
      auto subtree = [&](int b) {
        const auto& bucket =
            buckets[static_cast<std::size_t>(roots[static_cast<std::size_t>(b)])];
        for (const index_t i : bucket) merge_edge(sorted, i, uf, rep_edge, dendrogram);
      };
      exec.run_chunks(static_cast<int>(roots.size()), exec.num_threads(), subtree);
    } else {
      for (const index_t root : roots)
        for (const index_t i : buckets[static_cast<std::size_t>(root)])
          merge_edge(sorted, i, uf, rep_edge, dendrogram);
    }
  }

  // Phase 2: stitch the withheld top edges, lightest first — the same
  // bottom-up recurrence continued over the whole tree.
  const exec::ScopedPhase phase(exec, "stitch");
  for (index_t i = cut - 1; i >= 0; --i) merge_edge(sorted, i, uf, rep_edge, dendrogram);
  return dendrogram;
}

Dendrogram mixed_dendrogram(const exec::Executor& exec, const graph::EdgeList& mst,
                            index_t num_vertices, double top_fraction) {
  const std::shared_ptr<const SortedEdges> sorted = [&] {
    const exec::ScopedPhase phase(exec, "sort");
    return sorted_edges_cached(exec, mst, num_vertices);
  }();
  return mixed_dendrogram(exec, *sorted, top_fraction);
}

}  // namespace pandora::dendrogram
