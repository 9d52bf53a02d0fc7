#pragma once

#include "pandora/common/types.hpp"
#include "pandora/dendrogram/dendrogram.hpp"
#include "pandora/dendrogram/sorted_edges.hpp"
#include "pandora/graph/edge.hpp"

namespace pandora::dendrogram {

/// Top-down divide-and-conquer dendrogram construction (Algorithm 1).
///
/// Removes the heaviest edge of each component recursively; the removed edge
/// becomes the parent of the two resulting sub-dendrograms.  O(n·h) work with
/// h the dendrogram height — quadratic on the skewed dendrograms this paper
/// targets — so this implementation exists as a third independent oracle for
/// the property tests and for the background discussion, not for performance.
[[nodiscard]] Dendrogram top_down_dendrogram(const SortedEdges& sorted);

/// Convenience overload that sorts internally (serially; this is a test oracle).
[[nodiscard]] Dendrogram top_down_dendrogram(const graph::EdgeList& mst, index_t num_vertices);

}  // namespace pandora::dendrogram
