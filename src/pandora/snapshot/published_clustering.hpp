#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "pandora/common/types.hpp"
#include "pandora/dyn/dynamic_clustering.hpp"
#include "pandora/exec/executor.hpp"
#include "pandora/snapshot/snapshot.hpp"
#include "pandora/spatial/point_set.hpp"

namespace pandora::snapshot {

/// The front door of the serving tier: one writer, any number of readers,
/// and the guarantee that **writers never block readers**.
///
///   exec::Executor writer_exec;                      // the writer's executor
///   snapshot::PublishedClustering published(writer_exec);
///   published.insert(initial_points);                // mutate + publish
///
///   // any reader thread, with its own executor:
///   snapshot::SnapshotPtr snap = published.acquire();   // pin the epoch
///   auto clusters = snap->hdbscan(reader_exec, {.min_pts = 4});
///
/// **Read side.**  `acquire()` returns the current snapshot under a mutex
/// held only for the pointer copy (never while any clustering work runs), so
/// a reader waits nanoseconds at worst — and the snapshot it gets is
/// immutable, so the query itself takes no lock at all.  A reader keeps its
/// `SnapshotPtr` for as long as it wants a consistent epoch; dropping it is
/// the release.
///
/// **Write side.**  `insert` / `erase` apply the batch through the owned
/// `dyn::DynamicClustering` (exact incremental EMST repair + dendrogram
/// replay), then *materialize the successor snapshot off to the side* (deep
/// copies — readers' snapshots share nothing with the stream) and publish it
/// with a single pointer swap.  Readers mid-query keep their pinned epochs;
/// the retired snapshot drops its neighbour pass at once, and its artifacts
/// and kd-tree are reclaimed when its last reader drains (RCU-style).
/// Memory cost: at most `1 + max-in-flight-readers` epochs resident, each
/// with its bundle, whose copy of the writer's kd index is the one kd-tree
/// its readers query (no reader builds another); only the published snapshot
/// keeps a neighbour pass, and a pass replaced or dropped lives on only in
/// the queries still running on it; other per-query artifacts die with
/// their query.
///
/// Thread-safety: one writer thread at a time (like `dyn::`); `acquire` /
/// `published_epoch` are safe from any thread concurrently with the writer.
/// The writer's executor must not be used by readers (give each reader its
/// own).
class PublishedClustering {
 public:
  explicit PublishedClustering(const exec::Executor& writer);
  PublishedClustering(const PublishedClustering&) = delete;
  PublishedClustering& operator=(const PublishedClustering&) = delete;

  // --- writer side ----------------------------------------------------------

  /// Inserts a batch of points and publishes the successor snapshot; returns
  /// the stable ids (batch order).
  std::vector<index_t> insert(const spatial::PointSet& batch);

  /// Inserts one point and publishes; returns its stable id.
  index_t insert(std::span<const double> coords);

  /// Erases points by stable id and publishes.
  void erase(std::span<const index_t> ids);

  /// True when the writer stream failed mid-update and is refusing further
  /// work.  Readers are unaffected either way: the published snapshot
  /// predates the failed update and stays served.
  [[nodiscard]] bool poisoned() const { return !stream_.healthy(); }

  /// Writer recovery: rolls the stream back to the **last published**
  /// snapshot (the one readers are being served right now) and re-publishes
  /// it under a fresh epoch.  Unpublished mutations from the failed update
  /// are dropped — by construction the published bundle is the newest state
  /// that is provably consistent.  Returns the epoch that was restored.
  /// Safe to call on a healthy stream too (then it merely re-freezes the
  /// published state); the writer may resume insert/erase afterwards.
  std::uint64_t recover();

  // --- reader side ----------------------------------------------------------

  /// Pins and returns the current snapshot.  O(1), lock held only for the
  /// pointer copy; never blocks on writer work.
  [[nodiscard]] SnapshotPtr acquire() const;

  /// Epoch of the currently published snapshot.
  [[nodiscard]] std::uint64_t published_epoch() const;

  // --- introspection --------------------------------------------------------

  [[nodiscard]] const dyn::DynamicClustering& stream() const { return stream_; }
  [[nodiscard]] const exec::Executor& writer_executor() const { return stream_.executor(); }

 private:
  /// Materializes a snapshot from the stream's current epoch and swaps it in.
  void publish();

  dyn::DynamicClustering stream_;
  /// Guards only the `current_` pointer: held for the copy in `acquire` and
  /// the swap in `publish`, never while clustering work runs.
  mutable std::mutex current_mutex_;
  std::shared_ptr<Snapshot> current_;
};

}  // namespace pandora::snapshot
