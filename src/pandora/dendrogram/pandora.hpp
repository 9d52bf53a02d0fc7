#pragma once

#include "pandora/common/timer.hpp"
#include "pandora/common/types.hpp"
#include "pandora/dendrogram/dendrogram.hpp"
#include "pandora/dendrogram/sorted_edges.hpp"
#include "pandora/exec/executor.hpp"
#include "pandora/graph/edge.hpp"

namespace pandora::dendrogram {

/// Options for pandora_dendrogram.
struct PandoraOptions {
  /// Reject inputs that are not spanning trees with finite weights.  Read by
  /// the MST overloads; the SortedEdges overloads take already-sorted input.
  bool validate_input = false;
};

/// PANDORA: parallel dendrogram construction by recursive tree contraction
/// (Algorithm 3): sort the edges, build the contraction hierarchy
/// (build_hierarchy), then expand it level by level (expand_multilevel).
/// Work-optimal (O(n log n), Section 4) and expressed entirely in parallel
/// loops, scans and sorts.
///
/// The MST overloads run the initial sort through the cross-call SortedEdges
/// cache (see sorted_edges_cached), so repeated queries against one MST sort
/// once; the `_into` variants additionally reuse the output Dendrogram's
/// storage — a second identical call on a warm Executor performs no heap
/// allocation at all.
///
/// Phases (exec::ScopedPhase): "sort" (initial edge sort),
/// "contraction" (multilevel tree contraction), "expansion" (chain
/// assignment + stitching).
[[nodiscard]] Dendrogram pandora_dendrogram(const exec::Executor& exec,
                                            const graph::EdgeList& mst, index_t num_vertices,
                                            const PandoraOptions& options = {});

/// As above, starting from pre-sorted edges (skips the "sort" phase's initial
/// sort; useful when the caller shares one sort across algorithms).
[[nodiscard]] Dendrogram pandora_dendrogram(const exec::Executor& exec,
                                            const SortedEdges& sorted,
                                            const PandoraOptions& options = {});

/// Output-reusing variants: `out` is overwritten in place, reusing its
/// vectors' capacity.
void pandora_dendrogram_into(const exec::Executor& exec, const graph::EdgeList& mst,
                             index_t num_vertices, const PandoraOptions& options,
                             Dendrogram& out);

void pandora_dendrogram_into(const exec::Executor& exec, const SortedEdges& sorted,
                             const PandoraOptions& options, Dendrogram& out);

/// The cross-call dendrogram cache: the PANDORA dendrogram of `mst`, replayed
/// from the Executor's ArtifactCache when the MST fingerprint matches.  This
/// is the artifact a `min_cluster_size` sweep replays: the
/// contraction-hierarchy construction and expansion run once, and every
/// sweep value only re-condenses the tree (min_cluster_size does not enter
/// the key because it does not enter the dendrogram).  A mutated MST derives
/// a different key and misses.  With `Executor::set_artifact_caching(false)`
/// every call rebuilds.
[[nodiscard]] std::shared_ptr<const Dendrogram> pandora_dendrogram_cached(
    const exec::Executor& exec, const graph::EdgeList& mst, index_t num_vertices,
    const PandoraOptions& options = {});

}  // namespace pandora::dendrogram
