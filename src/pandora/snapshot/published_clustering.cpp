#include "pandora/snapshot/published_clustering.hpp"

#include <utility>

#include "pandora/common/timer.hpp"
#include "pandora/exec/failpoint.hpp"
#include "pandora/obs/metrics.hpp"

namespace pandora::snapshot {

namespace {

obs::Counter& publishes_metric() {
  static obs::Counter& metric = obs::registry().counter("pandora_snapshot_publishes_total");
  return metric;
}

obs::Histogram& publish_latency_metric() {
  static obs::Histogram& metric =
      obs::registry().histogram("pandora_snapshot_publish_seconds");
  return metric;
}

}  // namespace

PublishedClustering::PublishedClustering(const exec::Executor& writer) : stream_(writer) {
  publish();  // readers may acquire before the first insert (empty snapshot)
}

std::vector<index_t> PublishedClustering::insert(const spatial::PointSet& batch) {
  std::vector<index_t> ids = stream_.insert(batch);
  publish();
  return ids;
}

index_t PublishedClustering::insert(std::span<const double> coords) {
  const index_t id = stream_.insert(coords);
  publish();
  return id;
}

void PublishedClustering::erase(std::span<const index_t> ids) {
  stream_.erase(ids);
  publish();
}

void PublishedClustering::publish() {
  // Materialize off to the side: the deep copy happens before — and
  // entirely outside — the pointer-swap critical section, so a concurrent
  // acquire() never waits on capture work.  A throw anywhere up
  // to the swap (both chaos seams below) leaves `current_` untouched:
  // readers keep being served the previous epoch, never a torn one.
  const exec::ScopedSpan span(stream_.executor(), "snapshot.publish");
  const Timer timer;
  PANDORA_FAILPOINT("snapshot.materialise");
  std::shared_ptr<Snapshot> next = std::make_shared<Snapshot>(stream_.capture_artifacts());
  PANDORA_FAILPOINT("snapshot.publish");
  {
    const std::lock_guard<std::mutex> lock(current_mutex_);
    current_.swap(next);
  }
  // `next` now holds the retired snapshot: its neighbour pass goes now, and
  // if no reader pins it, it and its artifacts are freed here, outside the
  // lock.
  if (next != nullptr) next->retire();
  next.reset();
  publishes_metric().inc();
  publish_latency_metric().observe(timer.seconds());
}

std::uint64_t PublishedClustering::recover() {
  const SnapshotPtr last = acquire();
  stream_.restore(last->bundle());
  publish();
  return last->epoch();
}

SnapshotPtr PublishedClustering::acquire() const {
  const std::lock_guard<std::mutex> lock(current_mutex_);
  return current_;
}

std::uint64_t PublishedClustering::published_epoch() const {
  const std::lock_guard<std::mutex> lock(current_mutex_);
  return current_->epoch();
}

}  // namespace pandora::snapshot
