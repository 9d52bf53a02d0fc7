#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "pandora/common/types.hpp"
#include "pandora/exec/executor.hpp"
#include "pandora/graph/edge.hpp"

namespace pandora::dendrogram {

/// The MST in the canonical form every dendrogram algorithm in this library
/// consumes: edges sorted by weight in descending order (Section 3.1.1), with
/// ties broken by the original edge index.  The consistent tie order is what
/// makes the dendrogram unique and lets independent algorithms (Pandora,
/// union-find, top-down) be compared node-for-node.
struct SortedEdges {
  index_t num_vertices = 0;
  std::vector<index_t> u;        ///< endpoint of sorted edge i
  std::vector<index_t> v;        ///< other endpoint of sorted edge i
  std::vector<double> weight;    ///< non-increasing
  std::vector<index_t> order;    ///< sorted index -> original edge index

  [[nodiscard]] index_t num_edges() const { return static_cast<index_t>(u.size()); }
};

/// Sorts `edges` descending by (weight, original index).  When
/// `validate_input` is set, rejects inputs that are not spanning trees with
/// finite non-negative weights.
///
/// The sort packs the order-preserving (sign-flipped, inverted) weight key
/// with the edge id into one 64-bit word — the id replaces the key's low
/// bit_width(m-1) bits, so 1M edges keep a 44-bit key prefix — radix-sorts
/// only the key bytes through `radix_sort_u64` (so weights and endpoints are
/// gathered exactly once from the resulting permutation instead of sorting
/// structs), and repairs the runs whose weights differ only below the
/// prefix.  When such runs cover most of the input, an exact two-pass radix
/// argsort over the full 64-bit key replaces the repair.  Every backend and
/// thread count runs this same path.
[[nodiscard]] SortedEdges sort_edges(const exec::Executor& exec, const graph::EdgeList& edges,
                                     index_t num_vertices, bool validate_input = false);

/// As sort_edges, but reusing `out`'s storage: a second identical call on a
/// warm Executor performs no heap allocation.  Does not validate.
void sort_edges_into(const exec::Executor& exec, const graph::EdgeList& edges,
                     index_t num_vertices, SortedEdges& out);

/// Derives the canonical SortedEdges of an *updated* edge list from the
/// sorted run of its predecessor, without re-sorting the bulk: survivors of
/// `base` keep their relative order (weights unchanged), so one linear merge
/// of the surviving run with the small sorted `added` run reproduces the
/// canonical descending-(weight, index) order.  This is the dynamic
/// subsystem's dendrogram-replay preparation — O(E + A) (the added run is
/// radix-sorted like `sort_edges`) instead of a full re-sort.
///
/// The updated edge list is defined as: the edges of `base`'s original list
/// whose original index i has `keep[i] != 0`, in their original relative
/// order (renumbered densely from 0), followed by the edges of `added`
/// (original indices continuing after the survivors).  `keep.size()` must be
/// `base.num_edges()`.  A non-empty `vertex_remap` relabels every surviving
/// endpoint (erase compaction); `added` endpoints are already in the new
/// vertex space.  `out` must not alias `base`.
///
/// The result is bit-identical to `sort_edges` over the materialised updated
/// edge list: survivors precede added edges on exact weight ties (their new
/// indices are smaller), and the tie order within each run is preserved.
void merge_sorted_edges_delta(const exec::Executor& exec, const SortedEdges& base,
                              std::span<const char> keep, const graph::EdgeList& added,
                              std::span<const index_t> vertex_remap, index_t num_vertices,
                              SortedEdges& out);

/// Order-sensitive 64-bit fingerprint of an MST (endpoints, weights, edge
/// order, vertex count) — the key of the cross-call SortedEdges cache.
[[nodiscard]] std::uint64_t mst_fingerprint(const exec::Executor& exec,
                                            const graph::EdgeList& edges,
                                            index_t num_vertices);

/// The cross-call SortedEdges cache: returns the canonical sorted form of
/// `edges`, reusing the copy stored in the Executor's ArtifactCache when the
/// MST fingerprint matches — so repeated queries against one MST (mpts
/// sweeps, algorithm comparisons, repeated pipeline runs) sort once and
/// replay.  A cache hit costs one fingerprint pass and allocates nothing.
/// With `Executor::set_artifact_caching(false)` every call sorts afresh.
[[nodiscard]] std::shared_ptr<const SortedEdges> sorted_edges_cached(
    const exec::Executor& exec, const graph::EdgeList& edges, index_t num_vertices,
    bool validate_input = false);

}  // namespace pandora::dendrogram
