#pragma once

#include <memory>
#include <optional>
#include <span>

#include "pandora/common/types.hpp"
#include "pandora/exec/executor.hpp"
#include "pandora/graph/edge.hpp"
#include "pandora/graph/union_find.hpp"
#include "pandora/spatial/kdtree.hpp"
#include "pandora/spatial/knn.hpp"
#include "pandora/spatial/point_set.hpp"

namespace pandora::spatial {

/// Euclidean minimum spanning tree via parallel Borůvka over the kd-tree —
/// the stand-in for the single-tree GPU Borůvka of [39] that the paper's
/// HDBSCAN* pipeline uses.  Each round finds, per component, the exact
/// (distance, point-id) lexicographic minimum outgoing edge, and the
/// winners hook the components together.  A point whose candidate from an
/// earlier round still points outside its component reuses it; every other
/// point queries its nearest neighbour outside its component, bounded as in
/// [39] by the component's running minimum, so subtrees that cannot beat
/// the best edge found so far are pruned.  Queries walk the kd-tree's leaves
/// in dynamically scheduled chunks; a leaf inside one component first takes
/// one box test against that component's minimum, and when nothing foreign
/// lies within it, its points store the minimum as their bound, exactly as
/// their empty queries would.  The bound only drops candidates
/// that cannot win (ties at the bound are kept), so the edges and their
/// order are those of unbounded queries.  Deterministic under distance ties
/// and across backends.
///
/// Lower-bound invariant: each point keeps a bound that all of its foreign
/// (other-component) scores are >= — the score of its last exact candidate
/// once that candidate's partner joins its component, the radius of a query
/// that found nothing, or (with kNN seeds) its list's certificate F*.
/// Components only merge, so the bound stays valid for the whole build.  A
/// point whose bound exceeds its component's running minimum cannot attain
/// the minimum and skips its query; every point that does attain it still
/// holds its exact candidate.
/// `pandora_emst_queries_total` (obs registry, labelled by round) counts the
/// queries that do run.
///
/// The tree is read-only: per-round component annotations live in
/// query-local `KdTreeAnnotations`, so one (possibly cached and shared) tree
/// can back concurrent EMST queries.
///
/// Index spaces.  `tree` must index `points`.  Inside the build every
/// per-point array — squared core distances, component labels, candidates,
/// kNN lists — is kept in the tree's rank order (see KdTree), so the rounds'
/// passes and leaf scans read it at consecutive positions.  Point ids only
/// break ties: the (score, id) candidate order, the smallest-id winner of a
/// component's tied minima, and the hook order, which visits components by
/// their smallest id.  Inputs and outputs are by id: `core_distances` is
/// indexed by point id (squared into rank order once), and edges name their
/// endpoints by id, so every edge, its orientation, its order and its weight
/// bits are those of an id-ordered index.
[[nodiscard]] graph::EdgeList euclidean_mst(const exec::Executor& exec, const PointSet& points,
                                            const KdTree& tree);

/// Component-restricted Borůvka: joins the pre-seeded components of `uf`
/// (one slot per point; seed by uniting along a partial tree's edges) with
/// exactly the minimum-weight Euclidean edges between them, returning only
/// the joining edges.  If the seed components are those of a forest F that
/// is a subset of the full EMST, then F plus the returned edges *is* the
/// full EMST — the dynamic subsystem's erase path splinters its maintained
/// tree and re-joins the splinters through this entry.  `uf` is left fully
/// united.
[[nodiscard]] graph::EdgeList join_components_emst(const exec::Executor& exec,
                                                   const PointSet& points, const KdTree& tree,
                                                   graph::ConcurrentUnionFind& uf);

/// MST under the HDBSCAN* mutual-reachability metric
/// d_mreach(p, q) = max(core(p), core(q), |p - q|), given per-point core
/// distances (Section 6.5).  This is the "MST construction" phase of the
/// paper's Figure 1/15 pipeline.
///
/// `seeds`, when given, must be neighbour lists of `tree` (rank-indexed,
/// see NeighborLists): each point's L nearest neighbours and its fence F(p),
/// the squared distance of the (L+1)-th neighbour.  Any L is a valid
/// certificate: those `hdbscan::core_distances` filled while computing
/// `core_distances` (L = max(minPts - 1, kMinListLength)), or the longer
/// lists of an `hdbscan::NeighborPass` fetched at a larger minPts.  They resolve
/// candidates without tree queries in every round — the kNN-graph start of
/// cuSLINK, kept exact by a cut certificate.  Every point outside p's list
/// scores >= F*(p) = max(core(p)^2, F(p)).  In each round, a point without a
/// valid candidate whose lower bound is below F*(p) takes w, the
/// (score, id) minimum of its list entries in other components, under
/// squared mutual reachability.  When w's score is strictly below F*(p)
/// (the fence rule), w is p's exact candidate; otherwise p's lower bound
/// rises to F*(p), and a tree query decides if the bound does not rule p
/// out.  The lists are checked before any query of the round runs, so their
/// candidates tighten the component radii the queries start from.  The
/// edges and their order are the same with or without seeds.
[[nodiscard]] graph::EdgeList mutual_reachability_mst(const exec::Executor& exec,
                                                      const PointSet& points,
                                                      const KdTree& tree,
                                                      std::span<const double> core_distances,
                                                      const NeighborLists* seeds = nullptr);

/// The cross-call EMST cache: the mutual-reachability MST of `points` at
/// `min_pts`, reusing the copy stored in the Executor's ArtifactCache when
/// the point-set fingerprint AND `min_pts` match — so a `min_cluster_size`
/// sweep (which shares one mpts) skips Borůvka entirely on repeated calls,
/// the ROADMAP follow-up to the kd-tree / core-distance caches.  Entries
/// remember the PointSet object they were computed over (cf. kdtree_cached);
/// mutated or different point sets miss.  `core_distances` must be the core
/// distances of `points` at `min_pts` (they are part of the computation, not
/// the key: (points, min_pts) already determines them).
/// `fingerprint` shares a precomputed `point_set_fingerprint` pass.
/// `seeds` are passed to `mutual_reachability_mst` on a miss.
/// With `Executor::set_artifact_caching(false)` every call recomputes.
[[nodiscard]] std::shared_ptr<const graph::EdgeList> mutual_reachability_mst_cached(
    const exec::Executor& exec, const PointSet& points, const KdTree& tree,
    std::span<const double> core_distances, int min_pts,
    std::optional<std::uint64_t> fingerprint = std::nullopt,
    const NeighborLists* seeds = nullptr);

}  // namespace pandora::spatial
