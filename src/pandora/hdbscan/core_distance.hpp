#pragma once

#include <memory>
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
/// values over the same points derive distinct keys and never alias, which is
/// what makes repeated mpts sweeps replays rather than rebuilds.  Entries
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

}  // namespace pandora::hdbscan
