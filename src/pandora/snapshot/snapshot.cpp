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

/// Installs the snapshot's artifact cache on a reader's executor for the
/// duration of one query, so every reader of the epoch shares one artifact
/// pool.  The previous cache is restored on exit, so a reader executor can
/// serve interleaved snapshot and non-snapshot work.
class Snapshot::ReaderScope {
 public:
  ReaderScope(const exec::Executor& exec, const Snapshot& snapshot)
      : exec_(exec), saved_cache_(exec.shared_artifact_cache()) {
    exec.use_shared_artifact_cache(&snapshot.cache_);
  }
  ReaderScope(const ReaderScope&) = delete;
  ReaderScope& operator=(const ReaderScope&) = delete;
  ~ReaderScope() { exec_.use_shared_artifact_cache(saved_cache_); }

 private:
  const exec::Executor& exec_;
  exec::ArtifactCache* saved_cache_;
};

Snapshot::Snapshot(dyn::ArtifactBundle bundle) : bundle_(std::move(bundle)) {
  PANDORA_EXPECT(bundle_.points != nullptr && bundle_.emst != nullptr &&
                     bundle_.sorted_edges != nullptr && bundle_.dendrogram != nullptr,
                 "Snapshot requires a fully captured ArtifactBundle");
  live_epochs_metric().add(1);
}

Snapshot::~Snapshot() {
  // The destructor is RCU-style reclamation itself: it runs when the last
  // reader of this epoch drains (or the writer republishes an unread one),
  // and takes the epoch's cached artifacts with it.
  live_epochs_metric().add(-1);
  epochs_reclaimed_metric().inc();
}

std::shared_ptr<const spatial::KdTree> Snapshot::tree(const exec::Executor& exec) const {
  PANDORA_EXPECT(size() > 0, "snapshot holds no points");
  std::call_once(tree_once_, [&] {
    const ReaderScope scope(exec, *this);
    tree_ = spatial::kdtree_cached(exec, *bundle_.points, /*leaf_size=*/32,
                                   bundle_.fingerprint);
  });
  return tree_;
}

pandora::hdbscan::HdbscanResult Snapshot::hdbscan(
    const exec::Executor& exec, const pandora::hdbscan::HdbscanOptions& options) const {
  PANDORA_EXPECT(size() > 0, "snapshot holds no points");
  (void)tree(exec);  // concurrent first readers share one tree build
  const ReaderScope scope(exec, *this);
  return pandora::hdbscan::hdbscan(exec, *bundle_.points, options, bundle_.fingerprint);
}

pandora::hdbscan::MinClusterSizeSweep Snapshot::sweep_min_cluster_size(
    const exec::Executor& exec, std::span<const index_t> min_cluster_sizes,
    const pandora::hdbscan::HdbscanOptions& base) const {
  PANDORA_EXPECT(size() > 0, "snapshot holds no points");
  (void)tree(exec);
  const ReaderScope scope(exec, *this);
  return pandora::hdbscan::hdbscan_sweep_min_cluster_size(exec, *bundle_.points,
                                                          min_cluster_sizes, base,
                                                          bundle_.fingerprint);
}

std::vector<pandora::hdbscan::HdbscanResult> Snapshot::sweep_min_pts(
    const exec::Executor& exec, std::span<const int> min_pts_values,
    const pandora::hdbscan::HdbscanOptions& base) const {
  PANDORA_EXPECT(size() > 0, "snapshot holds no points");
  (void)tree(exec);
  const ReaderScope scope(exec, *this);
  return pandora::hdbscan::hdbscan_sweep_min_pts(exec, *bundle_.points, min_pts_values, base,
                                                 bundle_.fingerprint);
}

}  // namespace pandora::snapshot
