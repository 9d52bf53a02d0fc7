#pragma once

#include <span>

#include "pandora/common/timer.hpp"
#include "pandora/common/types.hpp"
#include "pandora/dendrogram/contraction.hpp"
#include "pandora/exec/executor.hpp"

namespace pandora::dendrogram {

/// Multilevel dendrogram expansion (Sections 3.3.2-3.3.3), the only
/// expansion stage: O(n log n) work, where the single-level walk-up of
/// Section 3.3.1 would cost O(n * h_alpha) on skewed dendrograms.
///
/// For every edge e contracted at level k, scans levels m = k+1, k+2, ... for
/// the first one whose supervertex containing e has a dendrogram parent
/// heavier than e; that (edge, side) pair is e's chain.  Edges that exhaust
/// all levels — and all edges of the final chain-only tree — belong to the
/// root chain.  Every chain is then stitched in ascending edge order: its
/// first edge attaches to the chain's defining edge, every other edge to its
/// predecessor on the chain.  The paper sorts (chain, edge) pairs for this
/// (Section 3.3.3); here one owner-computes pass (exec::parallel_for_owned)
/// over the 2m+1 chain slots does it with plain stores: each chunk owns a
/// slot range and streams the chain slots of all m edges in ascending order,
/// keeping the latest edge per owned chain.  The stream is read once per
/// chunk, so its reads grow with the thread count (4x at 4 threads).
///
/// Writes `edge_parent[g]` for every global edge g present in `hierarchy`;
/// other entries are left untouched.  Phase (exec::ScopedPhase): "expansion".
void expand_multilevel(const exec::Executor& exec, const ContractionHierarchy& hierarchy,
                       std::span<index_t> edge_parent);

}  // namespace pandora::dendrogram
