#pragma once

#include <vector>

#include "pandora/common/types.hpp"
#include "pandora/dendrogram/dendrogram.hpp"
#include "pandora/exec/executor.hpp"

namespace pandora::hdbscan {

/// The HDBSCAN* condensed cluster tree (Campello et al. [9]).
///
/// Walking the dendrogram top-down, a cluster persists while splits shed
/// fewer than `min_cluster_size` points; a split into two sufficiently large
/// sides creates two child clusters.  Density is expressed as
/// lambda = 1 / distance.  Semantics implemented here (documented because
/// published implementations differ in minor conventions):
///  * points shed by a too-small split leave the cluster at the split's
///    lambda;
///  * a cluster whose both sides are too small dies at that lambda, all
///    remaining points leaving with it;
///  * stability(C) = sum over member points of (lambda_exit - lambda_birth),
///    where points surviving to a true split exit at the split lambda.
struct CondensedTree {
  struct Cluster {
    index_t parent = kNone;        ///< parent cluster id
    double birth_lambda = 0.0;     ///< lambda at which the cluster appeared
    double death_lambda = 0.0;     ///< lambda of its final split / dissolution
    index_t size = 0;              ///< member points at birth
    double stability = 0.0;
    index_t child_a = kNone;       ///< child clusters (kNone for leaves)
    index_t child_b = kNone;
  };

  std::vector<Cluster> clusters;   ///< clusters[0] is the root
  std::vector<index_t> point_cluster;  ///< deepest cluster each point belonged to
  std::vector<double> point_lambda;    ///< lambda at which the point left it

  [[nodiscard]] index_t num_clusters() const { return static_cast<index_t>(clusters.size()); }
};

/// Builds the condensed tree from a dendrogram.  `min_cluster_size >= 1`;
/// with 1, every split is a true split and the tree mirrors the dendrogram.
[[nodiscard]] CondensedTree build_condensed_tree(const dendrogram::Dendrogram& dendrogram,
                                                 index_t min_cluster_size);

/// Executor overload for API uniformity; the walk is sequential today, but
/// the walk is timed as the "condense" phase (exec::ScopedPhase).
[[nodiscard]] CondensedTree build_condensed_tree(const exec::Executor& exec,
                                                 const dendrogram::Dendrogram& dendrogram,
                                                 index_t min_cluster_size);

/// Flat clusters by excess-of-mass stability optimisation.
struct FlatClustering {
  std::vector<index_t> labels;  ///< per point: cluster label or kNone (noise)
  index_t num_clusters = 0;
  std::vector<index_t> selected_clusters;  ///< condensed-tree cluster ids
};

/// How the flat clusters are picked from the condensed tree.
enum class ClusterSelectionMethod {
  excess_of_mass,  ///< maximise total stability (the HDBSCAN* default)
  leaf,            ///< take the tree's leaves: finest-grained clustering
};

struct ExtractOptions {
  ClusterSelectionMethod method = ClusterSelectionMethod::excess_of_mass;
  bool allow_single_cluster = false;
  /// Minimum birth *distance* for a selected cluster (the epsilon extension
  /// of Malzer & Baum).  A selected cluster born below the threshold is
  /// replaced by its deepest ancestor born at distance >= epsilon; if only
  /// the root qualifies and `allow_single_cluster` is false, the topmost
  /// non-root ancestor on the path is used instead.  0 disables the filter.
  double selection_epsilon = 0.0;
};

/// Selects flat clusters (an antichain of condensed-tree nodes) and labels
/// points.  The root is never selected unless `allow_single_cluster` is set.
[[nodiscard]] FlatClustering extract_clusters(const CondensedTree& tree,
                                              const ExtractOptions& options);

/// Back-compatible convenience: excess-of-mass with no epsilon.
[[nodiscard]] FlatClustering extract_clusters(const CondensedTree& tree,
                                              bool allow_single_cluster = false);

}  // namespace pandora::hdbscan
