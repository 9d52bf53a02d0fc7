#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "pandora/common/types.hpp"
#include "pandora/dendrogram/dendrogram.hpp"
#include "pandora/dendrogram/sorted_edges.hpp"
#include "pandora/dyn/dynamic_clustering.hpp"
#include "pandora/exec/executor.hpp"
#include "pandora/graph/edge.hpp"
#include "pandora/hdbscan/hdbscan.hpp"
#include "pandora/spatial/kdtree.hpp"
#include "pandora/spatial/point_set.hpp"

/// The epoch-published serving tier.
///
/// `snapshot::Snapshot` is one epoch of a stream frozen as an immutable,
/// refcounted unit: the points plus every maintained derived structure
/// (EMST, canonical sorted run, dendrogram), all consistent with one
/// `exec::epoch_fingerprint`.  Readers run full queries against it — HDBSCAN*,
/// `min_cluster_size` / mpts sweeps, `Pipeline::on_snapshot` — with complete
/// intra-query parallelism and never take a lock a writer holds: everything
/// a query reads is immutable, and everything it caches lands in the
/// snapshot's own artifact cache, which lives exactly as long as the snapshot.
///
/// `snapshot::PublishedClustering` (published_clustering.hpp) is the front
/// door that owns the writer side and swaps the current-snapshot pointer.
namespace pandora::snapshot {

/// An immutable, epoch-consistent bundle of clustering artifacts.
///
/// Lifecycle (RCU-style): readers hold a `SnapshotPtr` (shared_ptr refcount
/// = the reader count); the publisher drops its reference when a successor
/// is published, so the snapshot — and with it the deep-copied artifacts and
/// its artifact cache — is reclaimed exactly when the last reader drains.
/// The cache belongs to this epoch alone, so no other epoch's queries can
/// evict its entries.
///
/// Thread-safety: all query methods are const and safe to call from many
/// reader threads concurrently, **each with its own Executor** (the usual
/// one-kernel-per-executor rule still applies per reader).
class Snapshot {
 public:
  /// Slots of each snapshot's artifact cache.  Queries cache the kd-tree once
  /// plus three entries per mpts value (core distances, EMST, sorted edges),
  /// so an mpts 2..9 sweep over one snapshot takes 25 slots.
  static constexpr std::size_t kCacheSlots = 64;

  /// Freezes `bundle`.  Normally called by `PublishedClustering::publish`,
  /// not user code.
  explicit Snapshot(dyn::ArtifactBundle bundle);
  ~Snapshot();
  Snapshot(const Snapshot&) = delete;
  Snapshot& operator=(const Snapshot&) = delete;

  [[nodiscard]] std::uint64_t epoch() const noexcept { return bundle_.epoch; }
  /// The epoch fingerprint every artifact of this snapshot is keyed on.
  [[nodiscard]] std::uint64_t fingerprint() const noexcept { return bundle_.fingerprint; }

  [[nodiscard]] const spatial::PointSet& points() const noexcept { return *bundle_.points; }
  [[nodiscard]] index_t size() const { return bundle_.points->size(); }
  [[nodiscard]] int dim() const { return bundle_.points->dim(); }
  [[nodiscard]] const graph::EdgeList& emst() const noexcept { return *bundle_.emst; }
  [[nodiscard]] const dendrogram::SortedEdges& sorted_edges() const noexcept {
    return *bundle_.sorted_edges;
  }
  /// The single-linkage dendrogram at this epoch (leaves are the stream's
  /// dense slots at capture time).
  [[nodiscard]] const dendrogram::Dendrogram& dendrogram() const noexcept {
    return *bundle_.dendrogram;
  }

  /// The kd-tree over the snapshot's points, built lazily by the first
  /// reader that needs it (concurrent first readers block on one build
  /// rather than racing N redundant ones) and held for the snapshot's
  /// lifetime.
  [[nodiscard]] std::shared_ptr<const spatial::KdTree> tree(const exec::Executor& exec) const;

  /// Full HDBSCAN* against the pinned epoch.  Bit-identical to a cold
  /// `hdbscan::hdbscan(exec, snapshot.points(), options)` — the cache only
  /// skips recomputation, never changes results.  Repeated reader queries
  /// (any reader) replay the kd-tree, core distances and mutual-reachability
  /// EMST from the snapshot's cache.
  [[nodiscard]] pandora::hdbscan::HdbscanResult hdbscan(
      const exec::Executor& exec, const pandora::hdbscan::HdbscanOptions& options = {}) const;

  /// `min_cluster_size` sweep at the pinned epoch (see
  /// hdbscan_sweep_min_cluster_size); the shared pipeline prefix keys on the
  /// epoch fingerprint, so concurrent readers sweeping the same snapshot
  /// share one kd-tree, one core-distance pass, one EMST.
  [[nodiscard]] pandora::hdbscan::MinClusterSizeSweep sweep_min_cluster_size(
      const exec::Executor& exec, std::span<const index_t> min_cluster_sizes,
      const pandora::hdbscan::HdbscanOptions& base = {}) const;

  /// mpts sweep at the pinned epoch (see hdbscan_sweep_min_pts).
  [[nodiscard]] std::vector<pandora::hdbscan::HdbscanResult> sweep_min_pts(
      const exec::Executor& exec, std::span<const int> min_pts_values,
      const pandora::hdbscan::HdbscanOptions& base = {}) const;

  /// The snapshot's own artifact cache, installed on a reader's executor for
  /// the length of each query.
  [[nodiscard]] exec::ArtifactCache* serving_cache() const noexcept { return &cache_; }

  /// The frozen bundle itself — what `PublishedClustering::recover()` feeds
  /// back into `dyn::DynamicClustering::restore()` to roll a poisoned writer
  /// back to this epoch.
  [[nodiscard]] const dyn::ArtifactBundle& bundle() const noexcept { return bundle_; }

 private:
  class ReaderScope;

  mutable exec::ArtifactCache cache_{kCacheSlots};
  dyn::ArtifactBundle bundle_;
  mutable std::once_flag tree_once_;
  mutable std::shared_ptr<const spatial::KdTree> tree_;
};

/// How readers hold a snapshot: the refcount is the reader pin.
using SnapshotPtr = std::shared_ptr<const Snapshot>;

}  // namespace pandora::snapshot
