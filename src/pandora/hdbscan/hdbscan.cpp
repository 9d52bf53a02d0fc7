#include "pandora/hdbscan/hdbscan.hpp"

#include <optional>

#include "pandora/common/expect.hpp"
#include "pandora/dendrogram/pandora.hpp"
#include "pandora/dendrogram/union_find_dendrogram.hpp"
#include "pandora/hdbscan/core_distance.hpp"
#include "pandora/spatial/emst.hpp"
#include "pandora/spatial/kdtree.hpp"

namespace pandora::hdbscan {

namespace {

FlatClustering extract_with(const CondensedTree& tree, const HdbscanOptions& options) {
  ExtractOptions extract_options;
  extract_options.method = options.cluster_selection_method;
  extract_options.allow_single_cluster = options.allow_single_cluster;
  extract_options.selection_epsilon = options.cluster_selection_epsilon;
  return extract_clusters(tree, extract_options);
}

}  // namespace

namespace {

/// The pipeline body behind hdbscan() and the sweep front doors; a caller
/// that already hashed the point set passes the fingerprint so one query
/// hashes the data at most once (and an mpts sweep, once for all values).
HdbscanResult hdbscan_with_fingerprint(const exec::Executor& exec,
                                       const spatial::PointSet& points,
                                       const HdbscanOptions& options,
                                       std::optional<std::uint64_t> points_fp) {
  PANDORA_EXPECT(points.size() > 0, "need at least one point");
  HdbscanResult result;
  // Every phase below lands in result.times; the caller's sink (if any)
  // comes back when the call ends.
  struct RestoreSink {
    const exec::Executor& exec;
    PhaseTimes* saved;
    ~RestoreSink() { exec.set_phase_times(saved); }
  } restore{exec, exec.phase_times()};
  exec.set_phase_times(&result.times);

  // The kd-tree and per-mpts core distances go through the Executor's
  // ArtifactCache: repeated queries against one point set (and mpts sweeps,
  // for the tree) replay instead of rebuilding.  With caching off the plain
  // paths run — no fingerprint hashed, no wrapper copied — so the phases
  // below time exactly the real work.
  if (exec.artifact_caching() && !points_fp)
    points_fp = spatial::point_set_fingerprint(exec, points);

  const std::shared_ptr<const spatial::KdTree> tree = [&] {
    const exec::ScopedPhase phase(exec, "tree_build");
    return spatial::kdtree_cached(exec, points, 32, points_fp);
  }();

  {
    // The core pass hands its kNN lists to the MST as seeds for Borůvka's
    // rounds (empty on a core-distance cache hit); they die with this scope.
    spatial::NeighborLists seeds;
    {
      const exec::ScopedPhase phase(exec, "core_distance");
      if (exec.artifact_caching()) {
        const std::shared_ptr<const std::vector<double>> core =
            core_distances_cached(exec, points, *tree, options.min_pts, points_fp, &seeds);
        result.core_distances = *core;
      } else {
        result.core_distances = core_distances(exec, points, *tree, options.min_pts, &seeds);
      }
    }

    const exec::ScopedPhase phase(exec, "mst");
    if (exec.artifact_caching()) {
      const std::shared_ptr<const graph::EdgeList> mst = spatial::mutual_reachability_mst_cached(
          exec, points, *tree, result.core_distances, options.min_pts, points_fp, &seeds);
      // Copy-out is the price of keeping HdbscanResult::mst a plain value: one
      // O(E) memcpy, well under a millesimal of the Borůvka build it replaces
      // on a warm hit.
      result.mst = *mst;
    } else {
      result.mst =
          spatial::mutual_reachability_mst(exec, points, *tree, result.core_distances, &seeds);
    }
  }

  if (options.dendrogram_algorithm == DendrogramAlgorithm::pandora) {
    result.dendrogram = dendrogram::pandora_dendrogram(exec, result.mst, points.size());
  } else {
    result.dendrogram = dendrogram::union_find_dendrogram(exec, result.mst, points.size());
  }

  result.condensed_tree =
      build_condensed_tree(exec, result.dendrogram, options.min_cluster_size);

  {
    const exec::ScopedPhase phase(exec, "extract");
    FlatClustering flat = extract_with(result.condensed_tree, options);
    result.labels = std::move(flat.labels);
    result.num_clusters = flat.num_clusters;
  }
  return result;
}

}  // namespace

HdbscanResult hdbscan(const exec::Executor& exec, const spatial::PointSet& points,
                      const HdbscanOptions& options,
                      std::optional<std::uint64_t> points_fingerprint) {
  return hdbscan_with_fingerprint(exec, points, options, points_fingerprint);
}

MinClusterSizeSweep hdbscan_sweep_min_cluster_size(const exec::Executor& exec,
                                                   const spatial::PointSet& points,
                                                   std::span<const index_t> min_cluster_sizes,
                                                   const HdbscanOptions& base,
                                                   std::optional<std::uint64_t> points_fingerprint) {
  PANDORA_EXPECT(points.size() > 0, "need at least one point");
  MinClusterSizeSweep sweep;

  // Shared prefix, computed once per sweep call and replayed from the
  // ArtifactCache across calls: min_cluster_size touches nothing above the
  // condensed tree, so repeated sweeps skip the kd-tree build, the core
  // distances AND the Borůvka EMST (the cached-EMST ROADMAP follow-up).
  std::optional<std::uint64_t> points_fp = points_fingerprint;
  if (exec.artifact_caching() && !points_fp)
    points_fp = spatial::point_set_fingerprint(exec, points);
  const std::shared_ptr<const spatial::KdTree> tree =
      spatial::kdtree_cached(exec, points, 32, points_fp);
  spatial::NeighborLists seeds;
  if (exec.artifact_caching()) {
    const std::shared_ptr<const std::vector<double>> core =
        core_distances_cached(exec, points, *tree, base.min_pts, points_fp, &seeds);
    sweep.core_distances = *core;
    const std::shared_ptr<const graph::EdgeList> mst = spatial::mutual_reachability_mst_cached(
        exec, points, *tree, sweep.core_distances, base.min_pts, points_fp, &seeds);
    sweep.mst = *mst;
  } else {
    sweep.core_distances = core_distances(exec, points, *tree, base.min_pts, &seeds);
    sweep.mst =
        spatial::mutual_reachability_mst(exec, points, *tree, sweep.core_distances, &seeds);
  }

  if (base.dendrogram_algorithm == DendrogramAlgorithm::pandora) {
    sweep.dendrogram = dendrogram::pandora_dendrogram_cached(exec, sweep.mst, points.size());
  } else {
    sweep.dendrogram = std::make_shared<const dendrogram::Dendrogram>(
        dendrogram::union_find_dendrogram(exec, sweep.mst, points.size()));
  }

  sweep.entries.reserve(min_cluster_sizes.size());
  for (const index_t min_cluster_size : min_cluster_sizes) {
    MinClusterSizeSweep::Entry entry;
    entry.min_cluster_size = min_cluster_size;
    entry.condensed_tree = build_condensed_tree(exec, *sweep.dendrogram, min_cluster_size);
    HdbscanOptions options = base;
    options.min_cluster_size = min_cluster_size;
    FlatClustering flat = extract_with(entry.condensed_tree, options);
    entry.labels = std::move(flat.labels);
    entry.num_clusters = flat.num_clusters;
    sweep.entries.push_back(std::move(entry));
  }
  return sweep;
}

std::vector<HdbscanResult> hdbscan_sweep_min_pts(const exec::Executor& exec,
                                                 const spatial::PointSet& points,
                                                 std::span<const int> min_pts_values,
                                                 const HdbscanOptions& base,
                                                 std::optional<std::uint64_t> points_fingerprint) {
  std::vector<HdbscanResult> results;
  results.reserve(min_pts_values.size());
  // One content hash serves the whole sweep; per value, the kd-tree replays
  // from the cache after the first, while the core distances and EMST depend
  // on mpts and are rebuilt (under distinct, never-aliasing cache keys for
  // the former).
  std::optional<std::uint64_t> points_fp = points_fingerprint;
  if (exec.artifact_caching() && points.size() > 0 && !points_fp)
    points_fp = spatial::point_set_fingerprint(exec, points);
  for (const int min_pts : min_pts_values) {
    HdbscanOptions options = base;
    options.min_pts = min_pts;
    results.push_back(hdbscan_with_fingerprint(exec, points, options, points_fp));
  }
  return results;
}

}  // namespace pandora::hdbscan
