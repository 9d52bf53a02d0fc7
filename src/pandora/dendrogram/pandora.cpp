#include "pandora/dendrogram/pandora.hpp"

#include <atomic>

#include "pandora/dendrogram/contraction.hpp"
#include "pandora/dendrogram/expansion.hpp"
#include "pandora/exec/fingerprint.hpp"
#include "pandora/exec/parallel.hpp"
#include "pandora/graph/tree.hpp"

namespace pandora::dendrogram {

void pandora_dendrogram_into(const exec::Executor& exec, const SortedEdges& sorted,
                             const PandoraOptions& /*options*/, Dendrogram& out) {
  const index_t n = sorted.num_edges();
  const index_t nv = sorted.num_vertices;

  out.num_edges = n;
  out.num_vertices = nv;
  out.weight = sorted.weight;        // copy-assign: reuses capacity
  out.edge_order = sorted.order;
  out.parent.assign(static_cast<std::size_t>(n) + static_cast<std::size_t>(nv), kNone);
  if (n == 0) return;  // single data point: the vertex is the root

  std::span<index_t> edge_parent(out.parent.data(), static_cast<std::size_t>(n));

  const ContractionHierarchy hierarchy = [&] {
    const exec::ScopedPhase phase(exec, "contraction");
    // The base level's global indices are the identity, so no gid iota is
    // ever materialised (the contraction reads the loop index directly).
    return build_hierarchy(exec, sorted.u, sorted.v, {}, nv, n);
  }();

  expand_multilevel(exec, hierarchy, edge_parent);

  // Vertex parents by Eq. (1), straight from the base level's sided parents.
  const std::span<const std::int64_t> sided0 = hierarchy.levels[0].sided_parent;
  exec::parallel_for(exec, nv, [&](size_type x) {
    out.parent[static_cast<std::size_t>(n + x)] =
        static_cast<index_t>(sided0[static_cast<std::size_t>(x)] >> 1);
  });
}

void pandora_dendrogram_into(const exec::Executor& exec, const graph::EdgeList& mst,
                             index_t num_vertices, const PandoraOptions& options,
                             Dendrogram& out) {
  const std::shared_ptr<const SortedEdges> sorted = [&] {
    const exec::ScopedPhase phase(exec, "sort");
    return sorted_edges_cached(exec, mst, num_vertices, options.validate_input);
  }();
  pandora_dendrogram_into(exec, *sorted, options, out);
}

Dendrogram pandora_dendrogram(const exec::Executor& exec, const SortedEdges& sorted,
                              const PandoraOptions& options) {
  Dendrogram dendrogram;
  pandora_dendrogram_into(exec, sorted, options, dendrogram);
  return dendrogram;
}

Dendrogram pandora_dendrogram(const exec::Executor& exec, const graph::EdgeList& mst,
                              index_t num_vertices, const PandoraOptions& options) {
  Dendrogram dendrogram;
  pandora_dendrogram_into(exec, mst, num_vertices, options, dendrogram);
  return dendrogram;
}

namespace {

/// A dendrogram artifact as stored in the Executor's ArtifactCache.  The
/// validation flag is atomic for the same reason as CachedSortedEdges:
/// concurrent batch queries may share the entry, and validation is monotone.
struct CachedDendrogram {
  Dendrogram dendrogram;
  std::atomic<bool> validated{false};
};

}  // namespace

std::shared_ptr<const Dendrogram> pandora_dendrogram_cached(const exec::Executor& exec,
                                                            const graph::EdgeList& mst,
                                                            index_t num_vertices,
                                                            const PandoraOptions& options) {
  if (!exec.artifact_caching()) {
    auto owned = std::make_shared<Dendrogram>();
    pandora_dendrogram_into(exec, mst, num_vertices, options, *owned);
    return owned;
  }

  const std::uint64_t key = exec::tagged_fingerprint(exec::ArtifactTag::dendrogram,
                                                     mst_fingerprint(exec, mst, num_vertices));
  std::shared_ptr<CachedDendrogram> entry = exec.artifact_cache().find<CachedDendrogram>(key);
  if (entry == nullptr) {
    entry = std::make_shared<CachedDendrogram>();
    entry->validated = options.validate_input;
    pandora_dendrogram_into(exec, mst, num_vertices, options, entry->dendrogram);
    exec.artifact_cache().insert(key, entry);
  } else if (options.validate_input && !entry->validated) {
    graph::validate_tree(mst, num_vertices);
    entry->validated = true;
  }
  const Dendrogram* view = &entry->dendrogram;
  return {std::move(entry), view};
}

}  // namespace pandora::dendrogram
