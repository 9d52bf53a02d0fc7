#pragma once

#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "pandora/common/types.hpp"
#include "pandora/exec/executor.hpp"
#include "pandora/spatial/kdtree.hpp"
#include "pandora/spatial/knn.hpp"
#include "pandora/spatial/point_set.hpp"

namespace pandora::hdbscan {

/// HDBSCAN* core distance: the distance from each point to its minPts-th
/// nearest neighbour, the point itself counted among the minPts (so
/// minPts = 2 is the distance to the nearest other point, matching the
/// paper's default "mpts = 2").  minPts = 1 yields zeros (plain
/// single-linkage on Euclidean distance).
///
/// The distances are indexed by point id.  The pass itself runs over
/// `tree`'s ranks (see KdTree) and scatters each distance to its id once.
///
/// With `seeds`, the same pass fetches L + 1 neighbours instead of
/// minPts - 1, L = max(minPts - 1, spatial::kMinListLength), and keeps, per
/// point p, its L nearest neighbours (the first minPts - 1 of them define
/// core(p)) plus the fence F(p): the squared distance of the (L+1)-th
/// neighbour, +inf when fewer than L + 1 other points exist.  The seeds are
/// in `tree`'s rank space — list and fence at p's rank, entries as ranks —
/// and are only meaningful with the same tree.
/// Every point outside p's list lies at squared distance >= F(p), so each
/// of its mutual-reachability scores is >= max(core(p)^2, F(p)) — the
/// certificate `mutual_reachability_mst` uses to resolve p's Borůvka
/// candidates from the list, in every round, without a tree query.  The
/// distances returned are the same with or without `seeds`.  minPts = 1
/// leaves `seeds` empty (no list).
[[nodiscard]] std::vector<double> core_distances(const exec::Executor& exec,
                                                 const spatial::PointSet& points,
                                                 const spatial::KdTree& tree, int min_pts,
                                                 spatial::NeighborLists* seeds = nullptr);

/// The cross-call core-distance cache: returns the per-point core distances
/// at `min_pts`, reusing the copy stored in the Executor's ArtifactCache when
/// the point-set fingerprint AND `min_pts` match — two different `min_pts`
/// values over the same points derive distinct keys and never alias, so
/// repeated direct `hdbscan()` calls at several mpts replay.  Entries
/// remember the PointSet object they were computed over (cf. kdtree_cached);
/// mutated or different point sets miss.  With
/// `Executor::set_artifact_caching(false)` every call recomputes.
/// `fingerprint` shares a precomputed `point_set_fingerprint` pass,
/// as in `kdtree_cached`.  `seeds`, when given, receives the seeds of
/// `core_distances` when this call computes the distances; a cache hit
/// leaves it empty.  Entries never store seeds: they are consumed by the
/// MST build that follows, and a cached MST needs none.
[[nodiscard]] std::shared_ptr<const std::vector<double>> core_distances_cached(
    const exec::Executor& exec, const spatial::PointSet& points, const spatial::KdTree& tree,
    int min_pts, std::optional<std::uint64_t> fingerprint = std::nullopt,
    spatial::NeighborLists* seeds = nullptr);

/// One kNN pass over a kd-tree, prepared for every `min_pts` up to a bound:
/// only the core distances and the MR-MST depend on mpts, so an mpts sweep,
/// or a snapshot's readers at different mpts, need one neighbour pass, not
/// one each (cuSLINK's point: one kNN graph serves every Borůvka round).
///
/// The pass holds `tree`'s rank-space neighbour lists (see
/// spatial::NeighborLists) at L = min(max(max_min_pts - 1, kMinListLength),
/// n - 1).  It serves every `min_pts` whose k = min(min_pts - 1, n - 1) is at
/// most L: core(p) is the distance to list entry k - 1, and the whole list is
/// the MST's seed certificate at any mpts (every point outside it lies beyond
/// its fence).  Core distances, MST edges and their order are therefore
/// bit-identical to `core_distances(..., min_pts, &seeds)` and the MST built
/// on those seeds.  `max_min_pts` = 1 runs no kNN pass and holds no list.
///
/// `tree` is kept by reference and must outlive the pass.  The pass is
/// immutable: concurrent queries may share one.
class NeighborPass {
 public:
  NeighborPass(const exec::Executor& exec, const spatial::KdTree& tree, int max_min_pts);

  [[nodiscard]] const spatial::KdTree& tree() const noexcept { return *tree_; }
  [[nodiscard]] const spatial::NeighborLists& lists() const noexcept { return lists_; }

  /// Whether the lists are long enough for `min_pts`.
  [[nodiscard]] bool serves(int min_pts) const;

  /// The core distances at `min_pts` (which the pass must serve), indexed by
  /// point id: sqrt(tree.squared_distance(r, list[r][k - 1])) scattered from
  /// rank r to its id.  Computed here, in the library, because the tree's
  /// inline pair distance matches the kNN leaf scan only under the library's
  /// -ffp-contract=off (see KdTree::squared_distance).
  [[nodiscard]] std::vector<double> core_distances(const exec::Executor& exec,
                                                   int min_pts) const;

 private:
  const spatial::KdTree* tree_;
  spatial::NeighborLists lists_;
};

/// The longest NeighborPass any query over one kd-tree has asked for, shared
/// by concurrent queries behind a mutex — what the tree-taking `hdbscan()`
/// and sweep overloads take their pass from, and so what a snapshot's
/// readers at different mpts share.  Thread-safe.
class SharedNeighborPass {
 public:
  /// A pass over `tree` that serves `min_pts`.  The held pass when it
  /// serves; otherwise this computes one at max(min_pts, fetch_min_pts) on
  /// `exec` and holds it in place of the shorter one.  Computations run one
  /// at a time: a concurrent query that needs a pass waits for the running
  /// one rather than run its own, then takes it if it serves.  Callers keep
  /// the returned pass alive through the `shared_ptr`, even once it is
  /// replaced.
  [[nodiscard]] std::shared_ptr<const NeighborPass> get(const exec::Executor& exec,
                                                        const spatial::KdTree& tree,
                                                        int min_pts, int fetch_min_pts);

  /// Drops the held pass and holds none from now on: every later `get`
  /// computes a private pass, without waiting for other queries.  Never
  /// waits for a pass being computed (a snapshot's publisher calls it).
  void release();

 private:
  /// Held by the one query computing a pass.  `mutex_` is taken only
  /// briefly, never across a computation, so `release` and the queries the
  /// held pass serves never wait on one.
  std::mutex compute_mutex_;
  /// Guards `pass_` and `released_`, for pointer work only.
  std::mutex mutex_;
  std::shared_ptr<const NeighborPass> pass_;
  bool released_ = false;
};

}  // namespace pandora::hdbscan
