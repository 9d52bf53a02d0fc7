#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "pandora/common/types.hpp"
#include "pandora/exec/executor.hpp"

namespace pandora::dendrogram {

/// One level of the recursive tree contraction (Section 3.2).
///
/// A level is a tree whose vertices are supervertices of the previous level
/// and whose edges are the previous level's α-edges, still identified by
/// their *global* sorted index (0 = heaviest).  For every vertex the level
/// stores its "sided parent": the dendrogram parent of the vertex node by
/// Eq. (1) — the incident edge with the largest global index — encoded as
/// `2*edge + side` where side says which endpoint of that edge the vertex is.
/// The side bit distinguishes the two chains hanging below an edge node,
/// e.g. the 13L / 13R chains of Figure 9.
///
/// Levels are trivially copyable *views*: their per-vertex arrays are spans
/// into flat storage leased from the building Executor's Workspace (see
/// ContractionHierarchy), so repeated hierarchies on one Executor allocate
/// nothing after warm-up.
struct ContractionLevel {
  index_t num_vertices = 0;
  index_t num_edges = 0;
  index_t num_alpha = 0;

  /// Per vertex: 2*maxIncident + side.  Always set while the level has edges.
  std::span<const std::int64_t> sided_parent;

  /// Per vertex: containing supervertex at the next level.  Empty at the
  /// final (chain-only) level, which is never contracted.
  std::span<const index_t> vertex_map;
};

/// The full recursive contraction: MST -> α-MST -> β-MST -> ... until a level
/// has no α-edges (at most ceil(log2(n+1)) levels, Section 4.2).
///
/// maxIncident is an owner-computes pass (exec::parallel_for_owned): each
/// chunk owns a vertex range and streams the level's edges, storing the
/// local edge index plainly, so no locked CAS runs; the edges are read once
/// per chunk (4x at 4 threads).
///
/// A level's supervertices are the trees of the pointer forest in which every
/// vertex points across its max-incident edge.  In each tree exactly one edge
/// is the max-incident edge of both its endpoints; its smaller endpoint is
/// the tree's root.  Supervertices are numbered in ascending order of their
/// roots, so the hierarchy is the same on every backend and thread count.
///
/// `contraction_level[g]` / `supervertex[g]` give, for global edge g, the
/// level at which g was contracted away and the supervertex (vertex id of
/// level contraction_level+1) that absorbed it.  Edges of the final level are
/// marked with `supervertex == kNone`; they form the root chain.
///
/// All storage is leased from the building Executor's Workspace arena (the
/// per-level vertex arrays concatenate into two flat blocks of at most
/// 2*num_vertices entries each, since levels at least halve).  The hierarchy
/// is move-only and must not outlive the Executor it was built on.
struct ContractionHierarchy {
  std::span<const ContractionLevel> levels;
  std::span<const index_t> contraction_level;
  std::span<const index_t> supervertex;
  index_t num_global_edges = 0;

  [[nodiscard]] index_t num_levels() const { return static_cast<index_t>(levels.size()); }

  /// Backing storage for the spans above (leased; do not touch directly).
  exec::Workspace::Lease<ContractionLevel> levels_store;
  exec::Workspace::Lease<std::int64_t> sided_store;
  exec::Workspace::Lease<index_t> map_store;
  exec::Workspace::Lease<index_t> fate_store;
};

/// Builds the complete contraction hierarchy of the tree given by parallel
/// arrays (`u[i]`, `v[i]`) with global edge indices `gid[i]` over
/// `num_vertices` vertices; an empty `gid` means the identity mapping (the
/// common case — the canonical sorted MST — which then needs no materialised
/// iota at all).  `gid` must be a permutation of the edge indices, so
/// `num_global_edges`, which sizes the per-global-edge fate arrays, equals
/// the edge count: the hierarchy covers every global edge.
[[nodiscard]] ContractionHierarchy build_hierarchy(const exec::Executor& exec,
                                                   std::span<const index_t> u,
                                                   std::span<const index_t> v,
                                                   std::span<const index_t> gid,
                                                   index_t num_vertices,
                                                   index_t num_global_edges);

}  // namespace pandora::dendrogram
