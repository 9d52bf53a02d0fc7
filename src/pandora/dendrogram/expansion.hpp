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
/// root chain.  A single radix sort then materialises every chain: it runs
/// over the chain-key bytes only, and since entries are packed in ascending
/// edge order its stability leaves each chain sorted by index.  The first
/// edge of a chain attaches to the chain's defining edge, all others to their
/// predecessor (the "sorting + stitching" step).
///
/// Writes `edge_parent[g]` for every global edge g present in `hierarchy`;
/// other entries are left untouched.  Phases (exec::ScopedPhase):
/// "expansion" (level scans + stitching), "sort" (the radix sort).
void expand_multilevel(const exec::Executor& exec, const ContractionHierarchy& hierarchy,
                       std::span<index_t> edge_parent);

}  // namespace pandora::dendrogram
