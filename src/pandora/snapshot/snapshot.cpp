#include "pandora/snapshot/snapshot.hpp"

#include <utility>

#include "pandora/common/expect.hpp"
#include "pandora/obs/metrics.hpp"

namespace pandora::snapshot {

namespace {

/// Epoch bundles currently alive — the writer's published snapshot plus
/// every epoch still pinned by a draining reader; a value stuck above 1
/// means readers are holding epochs back from reclamation.
obs::Gauge& live_epochs_metric() {
  static obs::Gauge& metric = obs::registry().gauge("pandora_snapshot_live_epochs");
  return metric;
}

obs::Counter& epochs_reclaimed_metric() {
  static obs::Counter& metric =
      obs::registry().counter("pandora_snapshot_epochs_reclaimed_total");
  return metric;
}

}  // namespace

Snapshot::Snapshot(dyn::ArtifactBundle bundle) : bundle_(std::move(bundle)) {
  PANDORA_EXPECT(bundle_.points != nullptr && bundle_.emst != nullptr &&
                     bundle_.sorted_edges != nullptr && bundle_.dendrogram != nullptr &&
                     (bundle_.tree ? &bundle_.tree->points() == bundle_.points.get() : size() == 0),
                 "Snapshot requires a fully captured ArtifactBundle");
  live_epochs_metric().add(1);
}

Snapshot::~Snapshot() {
  // The destructor is RCU-style reclamation itself: it runs when the last
  // reader of this epoch drains (or the writer republishes an unread one),
  // and takes the epoch's artifacts and kd-tree with it.
  live_epochs_metric().add(-1);
  epochs_reclaimed_metric().inc();
}

const spatial::KdTree& Snapshot::tree() const {
  PANDORA_EXPECT(bundle_.tree != nullptr, "snapshot holds no points");
  return *bundle_.tree;
}

pandora::hdbscan::HdbscanResult Snapshot::hdbscan(
    const exec::Executor& exec, const pandora::hdbscan::HdbscanOptions& options) const {
  return pandora::hdbscan::hdbscan(exec, tree(), passes_, options);
}

pandora::hdbscan::MinClusterSizeSweep Snapshot::sweep_min_cluster_size(
    const exec::Executor& exec, std::span<const index_t> min_cluster_sizes,
    const pandora::hdbscan::HdbscanOptions& base) const {
  return pandora::hdbscan::hdbscan_sweep_min_cluster_size(exec, tree(), passes_,
                                                          min_cluster_sizes, base);
}

std::vector<pandora::hdbscan::HdbscanResult> Snapshot::sweep_min_pts(
    const exec::Executor& exec, std::span<const int> min_pts_values,
    const pandora::hdbscan::HdbscanOptions& base) const {
  return pandora::hdbscan::hdbscan_sweep_min_pts(exec, tree(), passes_, min_pts_values, base);
}

void Snapshot::retire() { passes_.release(); }

}  // namespace pandora::snapshot
