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
#include "pandora/spatial/point_set.hpp"

namespace pandora::spatial {
class KdTree;
}  // namespace pandora::spatial

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
/// point set — and mpts sweeps, which share the tree — skip the
/// corresponding phases entirely.
///
/// Every entry point below throws std::invalid_argument before any work —
/// hashing, tree build or cache lookup — when the point set is empty, a
/// coordinate is NaN or ±Inf ("non-finite coordinate at point ..."), or a
/// `min_pts` / `min_cluster_size` value is below 1.
[[nodiscard]] HdbscanResult hdbscan(const exec::Executor& exec,
                                    const spatial::PointSet& points,
                                    const HdbscanOptions& options = {});

/// As above, over the points `tree` indexes, on that tree — the snapshot
/// tier's path.  Such a query consults no ArtifactCache: every artifact
/// after the tree depends on mpts, so the tree is the one worth sharing, and
/// the caller owns it.  `times` then has no "tree_build" phase.
[[nodiscard]] HdbscanResult hdbscan(const exec::Executor& exec, const spatial::KdTree& tree,
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

/// As above, on a caller's tree, consulting no ArtifactCache (see `hdbscan`).
[[nodiscard]] MinClusterSizeSweep hdbscan_sweep_min_cluster_size(
    const exec::Executor& exec, const spatial::KdTree& tree,
    std::span<const index_t> min_cluster_sizes, const HdbscanOptions& base = {});

/// An mpts sweep over one point set: one full pipeline per `min_pts` value
/// (results aligned with `min_pts_values`), sharing the kd-tree through the
/// ArtifactCache — only the core distances and the mutual-reachability EMST,
/// which genuinely depend on mpts, are rebuilt per value.  Two sweep values
/// derive distinct core-distance cache keys and never alias.
[[nodiscard]] std::vector<HdbscanResult> hdbscan_sweep_min_pts(
    const exec::Executor& exec, const spatial::PointSet& points,
    std::span<const int> min_pts_values, const HdbscanOptions& base = {});

/// As above, on a caller's tree, consulting no ArtifactCache (see `hdbscan`).
[[nodiscard]] std::vector<HdbscanResult> hdbscan_sweep_min_pts(
    const exec::Executor& exec, const spatial::KdTree& tree,
    std::span<const int> min_pts_values, const HdbscanOptions& base = {});

}  // namespace pandora::hdbscan
