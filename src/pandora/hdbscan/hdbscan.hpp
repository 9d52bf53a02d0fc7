#pragma once

#include <memory>
#include <span>
#include <vector>

#include "pandora/common/timer.hpp"
#include "pandora/common/types.hpp"
#include "pandora/dendrogram/dendrogram.hpp"
#include "pandora/exec/executor.hpp"
#include "pandora/graph/edge.hpp"
#include "pandora/hdbscan/condensed_tree.hpp"
#include "pandora/hdbscan/core_distance.hpp"
#include "pandora/spatial/kdtree.hpp"
#include "pandora/spatial/point_set.hpp"

namespace pandora::hdbscan {

struct HdbscanOptions {
  int min_pts = 2;                  ///< the paper's "mpts" (default 2, Section 6.5)
  index_t min_cluster_size = 5;     ///< condensed-tree shedding threshold
  bool allow_single_cluster = false;
  ClusterSelectionMethod cluster_selection_method = ClusterSelectionMethod::excess_of_mass;
  double cluster_selection_epsilon = 0.0;  ///< see ExtractOptions
};

struct HdbscanResult {
  std::vector<double> core_distances;
  graph::EdgeList mst;                    ///< mutual-reachability EMST
  dendrogram::Dendrogram dendrogram;
  CondensedTree condensed_tree;
  std::vector<index_t> labels;            ///< per point; kNone = noise
  index_t num_clusters = 0;
  /// Phases: "tree_build", "core_distance", "mst", "sort", "contraction",
  /// "expansion", "condense", "extract".  hdbscan() installs this as the Executor's PhaseTimes sink
  /// for the duration of the call; the caller's own sink does not see them.
  PhaseTimes times;
};

/// The full HDBSCAN* pipeline (Section 6.5): core distances ->
/// mutual-reachability EMST -> dendrogram -> condensed tree -> stability-
/// optimal flat clusters.  Repeated calls on one Executor reuse its
/// workspace arena, so steady-state queries allocate far less than the
/// first call; with artifact caching on (the default) the kd-tree, the
/// per-mpts core distances and the per-mpts mutual-reachability EMST also
/// replay from the Executor's ArtifactCache, so repeated queries against one
/// point set skip the corresponding phases entirely.  With caching off the
/// query computes its kNN pass as a private NeighborPass.
///
/// Every entry point below throws std::invalid_argument before any work —
/// hashing, tree build or cache lookup — when the point set is empty, a
/// coordinate is NaN or ±Inf ("non-finite coordinate at point ..."), or a
/// `min_pts` / `min_cluster_size` value is below 1.
[[nodiscard]] HdbscanResult hdbscan(const exec::Executor& exec,
                                    const spatial::PointSet& points,
                                    const HdbscanOptions& options = {});

/// As above, over the points `tree` indexes, on that tree — the snapshot
/// tier's path.  Such a query consults no ArtifactCache: the caller owns the
/// tree, and `times` has no "tree_build" phase.  The query takes its kNN
/// pass from `passes`, the caller's store for this tree: the held pass when
/// it serves `options.min_pts`, else one computed at that mpts, which
/// `passes` then holds (see SharedNeighborPass, core_distance.hpp).  Queries
/// at different mpts that share one store so share one kNN pass; the query
/// that computes it reports its cost under "core_distance".  The results do
/// not depend on which pass a query takes.
[[nodiscard]] HdbscanResult hdbscan(const exec::Executor& exec, const spatial::KdTree& tree,
                                    SharedNeighborPass& passes,
                                    const HdbscanOptions& options = {});

/// A `min_cluster_size` sweep over one point set: the pipeline runs once up
/// to the dendrogram (kd-tree, core distances and dendrogram served from the
/// ArtifactCache on repeated sweeps), then each sweep value re-condenses
/// the shared dendrogram and re-extracts flat clusters.  Entries are aligned
/// with `min_cluster_sizes`; the shared prefix artifacts are returned once
/// instead of being copied into every entry.
struct MinClusterSizeSweep {
  std::vector<double> core_distances;
  graph::EdgeList mst;
  /// The dendrogram every entry condensed (cache-resident when caching is
  /// on; keeps the artifact alive independently of eviction).
  std::shared_ptr<const dendrogram::Dendrogram> dendrogram;

  struct Entry {
    index_t min_cluster_size = 0;
    CondensedTree condensed_tree;
    std::vector<index_t> labels;  ///< per point; kNone = noise
    index_t num_clusters = 0;
  };
  std::vector<Entry> entries;
};

[[nodiscard]] MinClusterSizeSweep hdbscan_sweep_min_cluster_size(
    const exec::Executor& exec, const spatial::PointSet& points,
    std::span<const index_t> min_cluster_sizes, const HdbscanOptions& base = {});

/// As above, on a caller's tree, consulting no ArtifactCache, with the kNN
/// pass taken from `passes` (see `hdbscan`).
[[nodiscard]] MinClusterSizeSweep hdbscan_sweep_min_cluster_size(
    const exec::Executor& exec, const spatial::KdTree& tree, SharedNeighborPass& passes,
    std::span<const index_t> min_cluster_sizes, const HdbscanOptions& base = {});

/// An mpts sweep over one point set: one full pipeline per `min_pts` value
/// (results aligned with `min_pts_values`, which may be unsorted or
/// repeated) on one kd-tree and ONE kNN pass.  Only the core distances and
/// the mutual-reachability EMST depend on mpts: the first value's query runs
/// the pass at the sweep's largest value (and reports it under
/// "core_distance"), and every value derives its core distances from it and
/// hands the pass's lists to its EMST as seeds (see NeighborPass).  Every
/// result is bit-identical to a per-value `hdbscan()` call.  The kd-tree is
/// taken through the ArtifactCache (built once with caching off), and no
/// result's `times` has a "tree_build" phase.  With caching on, each value's
/// EMST and sorted edges replay from the cache as in `hdbscan()`, so a
/// repeated sweep runs its one kNN pass and replays the rest of the
/// preparation.
[[nodiscard]] std::vector<HdbscanResult> hdbscan_sweep_min_pts(
    const exec::Executor& exec, const spatial::PointSet& points,
    std::span<const int> min_pts_values, const HdbscanOptions& base = {});

/// As above, on a caller's tree, consulting no ArtifactCache, with the kNN
/// pass taken from `passes` (see `hdbscan`): each value takes the pass held
/// there when it serves that value, and a pass the sweep computes there
/// serves its largest value, so the sweep runs at most one kNN pass.
[[nodiscard]] std::vector<HdbscanResult> hdbscan_sweep_min_pts(
    const exec::Executor& exec, const spatial::KdTree& tree, SharedNeighborPass& passes,
    std::span<const int> min_pts_values, const HdbscanOptions& base = {});

}  // namespace pandora::hdbscan
