#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "pandora/common/types.hpp"
#include "pandora/dendrogram/dendrogram.hpp"
#include "pandora/dendrogram/sorted_edges.hpp"
#include "pandora/dyn/dynamic_clustering.hpp"
#include "pandora/exec/executor.hpp"
#include "pandora/graph/edge.hpp"
#include "pandora/hdbscan/core_distance.hpp"
#include "pandora/hdbscan/hdbscan.hpp"
#include "pandora/spatial/kdtree.hpp"
#include "pandora/spatial/point_set.hpp"

/// The epoch-published serving tier.
///
/// `snapshot::Snapshot` is one epoch of a stream frozen as an immutable,
/// refcounted unit: the points plus every maintained derived structure
/// (EMST, canonical sorted run, dendrogram), all consistent with one
/// `epoch()`.  Readers run full queries against it — HDBSCAN*,
/// `min_cluster_size` / mpts sweeps (`Snapshot::hdbscan`, ...) — with
/// complete intra-query parallelism and never take a lock a writer holds:
/// everything a query reads is immutable.  Readers share two artifacts: the
/// snapshot's kd-tree (the writer's kd index, copied at publication) and its
/// neighbour pass, the longest kNN pass any of them has asked for, from which
/// a query at any smaller mpts derives its core distances and MST seeds.
/// Everything after that depends on mpts and is computed per query, with no
/// ArtifactCache lookup.
///
/// `snapshot::PublishedClustering` (published_clustering.hpp) is the front
/// door that owns the writer side and swaps the current-snapshot pointer.
namespace pandora::snapshot {

/// An immutable, epoch-consistent bundle of clustering artifacts.
///
/// Lifecycle (RCU-style): readers hold a `SnapshotPtr` (shared_ptr refcount
/// = the reader count); the publisher retires the snapshot and drops its
/// reference when a successor is published, so the snapshot — and with it
/// the deep-copied artifacts and its kd-tree — is reclaimed exactly when the
/// last reader drains.  Retiring drops the neighbour pass at once: queries
/// that already hold it keep it, and later queries on a retired snapshot
/// compute a private pass each.
///
/// Thread-safety: all query methods are const and safe to call from many
/// reader threads concurrently, **each with its own Executor** (the usual
/// one-kernel-per-executor rule still applies per reader).
class Snapshot {
 public:
  /// Freezes `bundle`.  Normally called by `PublishedClustering::publish`,
  /// not user code.
  explicit Snapshot(dyn::ArtifactBundle bundle);
  ~Snapshot();
  Snapshot(const Snapshot&) = delete;
  Snapshot& operator=(const Snapshot&) = delete;

  [[nodiscard]] std::uint64_t epoch() const noexcept { return bundle_.epoch; }

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

  /// The kd-tree over the snapshot's points: the writer's kd index at this
  /// epoch, which `capture_artifacts` copied into the bundle, so no reader
  /// builds one (it answers every query as a fresh build, ties breaking on
  /// id).  Throws std::invalid_argument on an empty snapshot.
  [[nodiscard]] const spatial::KdTree& tree() const;

  /// Full HDBSCAN* against the pinned epoch, on `tree()` and the snapshot's
  /// neighbour pass.  The pass is taken as it is when it serves
  /// `options.min_pts`; otherwise this query computes one at its mpts
  /// (concurrent readers that need one wait for it rather than run their
  /// own; the publisher never waits), reports it under "core_distance", and
  /// the snapshot keeps it in place of the shorter one.  So readers asking 9..2 in that order run one
  /// kNN pass, and 2..9 run three (list lengths 6, 7, 8; see NeighborPass).
  /// Bit-identical to a cold `hdbscan::hdbscan(exec, snapshot.points(),
  /// options)`.
  [[nodiscard]] pandora::hdbscan::HdbscanResult hdbscan(
      const exec::Executor& exec, const pandora::hdbscan::HdbscanOptions& options = {}) const;

  /// `min_cluster_size` sweep at the pinned epoch, on `tree()` and the
  /// neighbour pass, as `hdbscan` (see hdbscan_sweep_min_cluster_size).
  [[nodiscard]] pandora::hdbscan::MinClusterSizeSweep sweep_min_cluster_size(
      const exec::Executor& exec, std::span<const index_t> min_cluster_sizes,
      const pandora::hdbscan::HdbscanOptions& base = {}) const;

  /// mpts sweep at the pinned epoch, on `tree()` and the neighbour pass: a
  /// pass this sweep computes serves its largest value, and the snapshot
  /// keeps it (see hdbscan_sweep_min_pts).
  [[nodiscard]] std::vector<pandora::hdbscan::HdbscanResult> sweep_min_pts(
      const exec::Executor& exec, std::span<const int> min_pts_values,
      const pandora::hdbscan::HdbscanOptions& base = {}) const;

  /// Drops the neighbour pass and keeps none from now on (see the
  /// lifecycle above).  `PublishedClustering::publish` calls it on the
  /// snapshot it replaces, so a retired epoch pinned by slow readers holds
  /// its bundle and tree, not its kNN lists.
  void retire();

  /// The frozen bundle itself — what `PublishedClustering::recover()` feeds
  /// back into `dyn::DynamicClustering::restore()` to roll a poisoned writer
  /// back to this epoch.
  [[nodiscard]] const dyn::ArtifactBundle& bundle() const noexcept { return bundle_; }

 private:
  dyn::ArtifactBundle bundle_;
  mutable pandora::hdbscan::SharedNeighborPass passes_;
};

/// How readers hold a snapshot: the refcount is the reader pin.
using SnapshotPtr = std::shared_ptr<const Snapshot>;

}  // namespace pandora::snapshot
