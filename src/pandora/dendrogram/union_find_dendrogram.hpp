#pragma once

#include "pandora/common/timer.hpp"
#include "pandora/common/types.hpp"
#include "pandora/dendrogram/dendrogram.hpp"
#include "pandora/dendrogram/sorted_edges.hpp"
#include "pandora/exec/executor.hpp"
#include "pandora/graph/edge.hpp"

namespace pandora::dendrogram {

/// Bottom-up dendrogram construction with a union-find structure
/// (Algorithm 2 of the paper) — the "UnionFind-MT" baseline [46].
///
/// Edges are processed from lightest to heaviest; each edge becomes the
/// parent of the representative nodes of its endpoints' clusters.  The sort
/// is parallel (under the executor) but the merge loop is inherently
/// sequential — parents can come from arbitrarily distant parts of the tree,
/// which is precisely the parallelisation obstacle PANDORA removes
/// (Section 2.3.2).
///
/// Phases (exec::ScopedPhase): "sort" (EdgeList overload), "dendrogram".
[[nodiscard]] Dendrogram union_find_dendrogram(const exec::Executor& exec,
                                               const SortedEdges& sorted);

/// Convenience overload that sorts internally.
[[nodiscard]] Dendrogram union_find_dendrogram(const exec::Executor& exec,
                                               const graph::EdgeList& mst,
                                               index_t num_vertices,
                                               bool validate_input = false);

}  // namespace pandora::dendrogram
