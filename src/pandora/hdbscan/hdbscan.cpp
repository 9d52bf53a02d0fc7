#include "pandora/hdbscan/hdbscan.hpp"

#include <algorithm>
#include <cstdint>
#include <optional>

#include "pandora/common/expect.hpp"
#include "pandora/dendrogram/pandora.hpp"
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

/// The front-door check of every entry point, run before any hashing, tree
/// build or cache lookup: a bad option or a NaN/Inf coordinate fails before
/// it costs anything.
void expect_valid(const spatial::PointSet& points, std::span<const int> min_pts_values,
                  std::span<const index_t> min_cluster_sizes) {
  PANDORA_EXPECT(points.size() > 0, "need at least one point");
  spatial::validate_points(points, "hdbscan");
  for (const int min_pts : min_pts_values)
    PANDORA_EXPECT(min_pts >= 1, "min_pts must be at least 1");
  for (const index_t min_cluster_size : min_cluster_sizes)
    PANDORA_EXPECT(min_cluster_size >= 1, "min_cluster_size must be at least 1");
}

/// Where a query's kd-tree comes from.  A caller's `tree` means the query
/// consults no ArtifactCache.  Otherwise the query takes the tree and every
/// later artifact through the executor's cache, keyed on `key`, the points'
/// content hash (empty with caching off: nothing is looked up).
///
/// `passes` (when set) is where the query takes its kNN pass; a pass it
/// computes there serves every mpts up to `pass_min_pts` (an mpts sweep's
/// largest value).  A keyed artifact after the core distances still goes
/// through the cache.
struct TreeSource {
  const spatial::KdTree* tree = nullptr;
  std::optional<std::uint64_t> key;
  SharedNeighborPass* passes = nullptr;
  int pass_min_pts = 0;
};

/// The source of a direct call: one content hash serves the whole call.
TreeSource cache_source(const exec::Executor& exec, const spatial::PointSet& points) {
  if (!exec.artifact_caching()) return {};
  return {nullptr, spatial::point_set_fingerprint(exec, points)};
}

/// The query's kd-tree: the caller's, or the executor's cached one (built on
/// a miss), which `holder` keeps alive for the query.
const spatial::KdTree& resolve_tree(const exec::Executor& exec, const spatial::PointSet& points,
                                    const TreeSource& source,
                                    std::shared_ptr<const spatial::KdTree>& holder) {
  if (source.tree != nullptr) return *source.tree;
  const exec::ScopedPhase phase(exec, "tree_build");
  holder = spatial::kdtree_cached(exec, points, 32, source.key);
  return *holder;
}

/// Core distances and the mutual-reachability EMST at `min_pts`.  The core
/// distances come from a neighbour pass — `source.passes`'s, or a private
/// one when the query has neither a pass store nor a cache key — or, for a
/// keyed query without a pass store, through the core-distance cache.  The
/// kNN lists behind them go to the MST as seeds for Borůvka's rounds (none
/// on a core-distance cache hit).  A cached artifact is copied out: one O(n)
/// memcpy, far below the pass it replaces.  The "core_distance" phase
/// includes computing the pass when this query is the one that computes it.
void build_mr_mst(const exec::Executor& exec, const spatial::PointSet& points,
                  const spatial::KdTree& tree, int min_pts, const TreeSource& source,
                  std::vector<double>& core_distances_out, graph::EdgeList& mst_out) {
  const std::optional<std::uint64_t>& key = source.key;
  spatial::NeighborLists seeds;
  std::shared_ptr<const NeighborPass> pass;
  {
    const exec::ScopedPhase phase(exec, "core_distance");
    if (source.passes != nullptr)
      pass = source.passes->get(exec, tree, min_pts, source.pass_min_pts);
    else if (!key)
      pass = std::make_shared<const NeighborPass>(exec, tree, min_pts);
    core_distances_out = pass != nullptr
                             ? pass->core_distances(exec, min_pts)
                             : *core_distances_cached(exec, points, tree, min_pts, key, &seeds);
  }
  const spatial::NeighborLists* lists = pass != nullptr ? &pass->lists() : &seeds;
  const exec::ScopedPhase phase(exec, "mst");
  mst_out = key ? *spatial::mutual_reachability_mst_cached(exec, points, tree, core_distances_out,
                                                           min_pts, key, lists)
                : spatial::mutual_reachability_mst(exec, points, tree, core_distances_out, lists);
}

/// The PANDORA dendrogram of `mst`; a caching query sorts through the
/// SortedEdges cache.
dendrogram::Dendrogram build_dendrogram(const exec::Executor& exec, const graph::EdgeList& mst,
                                        index_t num_vertices, bool caching) {
  const std::shared_ptr<const dendrogram::SortedEdges> sorted = [&] {
    const exec::ScopedPhase phase(exec, "sort");
    if (caching) return dendrogram::sorted_edges_cached(exec, mst, num_vertices);
    return std::make_shared<const dendrogram::SortedEdges>(
        dendrogram::sort_edges(exec, mst, num_vertices));
  }();
  return dendrogram::pandora_dendrogram(exec, *sorted);
}

/// The pipeline body behind both hdbscan() overloads and the mpts sweeps.
HdbscanResult run_hdbscan(const exec::Executor& exec, const spatial::PointSet& points,
                          const TreeSource& source, const HdbscanOptions& options) {
  HdbscanResult result;
  // Every phase below lands in result.times; the caller's sink (if any)
  // comes back when the call ends.
  struct RestoreSink {
    const exec::Executor& exec;
    PhaseTimes* saved;
    ~RestoreSink() { exec.set_phase_times(saved); }
  } restore{exec, exec.phase_times()};
  exec.set_phase_times(&result.times);

  std::shared_ptr<const spatial::KdTree> holder;
  const spatial::KdTree& tree = resolve_tree(exec, points, source, holder);
  build_mr_mst(exec, points, tree, options.min_pts, source, result.core_distances, result.mst);
  result.dendrogram =
      build_dendrogram(exec, result.mst, points.size(), source.key.has_value());
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

/// The body behind both `min_cluster_size` sweeps.  The shared prefix runs
/// once per call: min_cluster_size touches nothing above the condensed tree.
/// With caching on, repeated sweeps replay the kd-tree, core distances, EMST
/// and dendrogram from the ArtifactCache.
MinClusterSizeSweep run_sweep_min_cluster_size(const exec::Executor& exec,
                                               const spatial::PointSet& points,
                                               const TreeSource& source,
                                               std::span<const index_t> min_cluster_sizes,
                                               const HdbscanOptions& base) {
  MinClusterSizeSweep sweep;
  std::shared_ptr<const spatial::KdTree> holder;
  const spatial::KdTree& tree = resolve_tree(exec, points, source, holder);
  build_mr_mst(exec, points, tree, base.min_pts, source, sweep.core_distances, sweep.mst);

  if (source.key) {
    sweep.dendrogram = dendrogram::pandora_dendrogram_cached(exec, sweep.mst, points.size());
  } else {
    sweep.dendrogram = std::make_shared<const dendrogram::Dendrogram>(
        build_dendrogram(exec, sweep.mst, points.size(), false));
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

/// The body behind both mpts sweeps: one kd-tree (the caller's, or taken
/// through the cache) and one neighbour pass at the largest value, computed
/// by the first value's query unless `source.passes` already holds one long
/// enough; then one pipeline per value on them.  Only the core distances
/// and the EMST depend on mpts, and both come from the pass; with a cache
/// key, each value's EMST and sorted edges still replay from the cache.
std::vector<HdbscanResult> run_sweep_min_pts(const exec::Executor& exec,
                                             const spatial::PointSet& points,
                                             const TreeSource& source,
                                             std::span<const int> min_pts_values,
                                             const HdbscanOptions& base) {
  std::vector<HdbscanResult> results;
  if (min_pts_values.empty()) return results;
  std::shared_ptr<const spatial::KdTree> holder;
  SharedNeighborPass own;
  const TreeSource shared{&resolve_tree(exec, points, source, holder), source.key,
                          source.passes != nullptr ? source.passes : &own,
                          *std::max_element(min_pts_values.begin(), min_pts_values.end())};
  results.reserve(min_pts_values.size());
  for (const int min_pts : min_pts_values) {
    HdbscanOptions options = base;
    options.min_pts = min_pts;
    results.push_back(run_hdbscan(exec, points, shared, options));
  }
  return results;
}

}  // namespace

HdbscanResult hdbscan(const exec::Executor& exec, const spatial::PointSet& points,
                      const HdbscanOptions& options) {
  expect_valid(points, {&options.min_pts, 1}, {&options.min_cluster_size, 1});
  return run_hdbscan(exec, points, cache_source(exec, points), options);
}

HdbscanResult hdbscan(const exec::Executor& exec, const spatial::KdTree& tree,
                      SharedNeighborPass& passes, const HdbscanOptions& options) {
  expect_valid(tree.points(), {&options.min_pts, 1}, {&options.min_cluster_size, 1});
  return run_hdbscan(exec, tree.points(), {&tree, std::nullopt, &passes}, options);
}

MinClusterSizeSweep hdbscan_sweep_min_cluster_size(const exec::Executor& exec,
                                                   const spatial::PointSet& points,
                                                   std::span<const index_t> min_cluster_sizes,
                                                   const HdbscanOptions& base) {
  expect_valid(points, {&base.min_pts, 1}, min_cluster_sizes);
  return run_sweep_min_cluster_size(exec, points, cache_source(exec, points), min_cluster_sizes,
                                    base);
}

MinClusterSizeSweep hdbscan_sweep_min_cluster_size(const exec::Executor& exec,
                                                   const spatial::KdTree& tree,
                                                   SharedNeighborPass& passes,
                                                   std::span<const index_t> min_cluster_sizes,
                                                   const HdbscanOptions& base) {
  expect_valid(tree.points(), {&base.min_pts, 1}, min_cluster_sizes);
  return run_sweep_min_cluster_size(exec, tree.points(), {&tree, std::nullopt, &passes},
                                    min_cluster_sizes, base);
}

std::vector<HdbscanResult> hdbscan_sweep_min_pts(const exec::Executor& exec,
                                                 const spatial::PointSet& points,
                                                 std::span<const int> min_pts_values,
                                                 const HdbscanOptions& base) {
  expect_valid(points, min_pts_values, {&base.min_cluster_size, 1});
  return run_sweep_min_pts(exec, points, cache_source(exec, points), min_pts_values, base);
}

std::vector<HdbscanResult> hdbscan_sweep_min_pts(const exec::Executor& exec,
                                                 const spatial::KdTree& tree,
                                                 SharedNeighborPass& passes,
                                                 std::span<const int> min_pts_values,
                                                 const HdbscanOptions& base) {
  expect_valid(tree.points(), min_pts_values, {&base.min_cluster_size, 1});
  return run_sweep_min_pts(exec, tree.points(), {&tree, std::nullopt, &passes}, min_pts_values,
                           base);
}

}  // namespace pandora::hdbscan
