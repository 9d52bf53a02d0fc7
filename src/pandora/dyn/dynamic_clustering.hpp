#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "pandora/common/expect.hpp"
#include "pandora/common/types.hpp"
#include "pandora/dendrogram/dendrogram.hpp"
#include "pandora/dendrogram/sorted_edges.hpp"
#include "pandora/exec/executor.hpp"
#include "pandora/graph/edge.hpp"
#include "pandora/hdbscan/hdbscan.hpp"
#include "pandora/spatial/kdtree.hpp"
#include "pandora/spatial/point_set.hpp"

/// Incremental clustering over a *mutable* point set.
///
/// Every other entry point of this library assumes a frozen point set: one
/// changed point forces a full kd-tree -> kNN -> Borůvka -> sort -> PANDORA
/// rebuild.  `dyn::DynamicClustering` instead owns the points and keeps the
/// exact Euclidean MST incrementally correct under `insert` and `erase`
/// (following the decomposition of fully-dynamic single-linkage into
/// maintainable MST + replayable dendrogram primitives — De Man et al. 2025,
/// cuSLINK), then re-derives the dendrogram by merging the edge delta into
/// the maintained sorted run and replaying PANDORA.  A steady-state update
/// costs a few Borůvka rounds over mostly-pre-merged components plus one
/// linear merge — far below the from-scratch pipeline (see the README cost
/// model).
namespace pandora::dyn {

/// Cumulative counters, exposed so tests and benches can assert the update
/// path actually took the incremental route (and how hard it worked).
struct UpdateStats {
  std::uint64_t points_inserted = 0;
  std::uint64_t points_erased = 0;
  std::uint64_t update_batches = 0;   ///< insert/erase calls that mutated state
  std::uint64_t edges_added = 0;      ///< EMST edges created by updates
  std::uint64_t edges_removed = 0;    ///< EMST edges displaced or dropped
  std::uint64_t boruvka_rounds = 0;   ///< insert-repair rounds across all updates
  std::uint64_t doubtful_edges = 0;   ///< maintained edges inserts could not pre-merge
  std::uint64_t index_rebuilds = 0;   ///< kd-index builds (bulk load, refused patch, drift)
  std::uint64_t index_patches = 0;    ///< updates that patched the kd index instead
};

/// One epoch of a stream, captured as an immutable unit: deep copies of the
/// live points, the kd index and every maintained derived structure, all
/// consistent with one `epoch()`.  This is what the snapshot tier freezes and
/// publishes — the copies share nothing with the stream, so the writer may
/// keep mutating while readers hold the bundle.
struct ArtifactBundle {
  std::uint64_t epoch = 0;
  std::shared_ptr<const spatial::PointSet> points;
  std::shared_ptr<const std::vector<index_t>> ids;  ///< slot -> stable id
  std::shared_ptr<const graph::EdgeList> emst;
  std::shared_ptr<const dendrogram::SortedEdges> sorted_edges;
  std::shared_ptr<const dendrogram::Dendrogram> dendrogram;
  /// The stream's kd index, bound to `*points` (null when there are none).
  std::shared_ptr<const spatial::KdTree> tree;
};

/// A mutable point set with stable ids, an incrementally maintained exact
/// Euclidean MST, and a dendrogram replayed from it after every update.
///
///   exec::Executor executor;
///   dyn::DynamicClustering stream(executor);
///   stream.insert(initial_points);               // bulk load
///   const index_t id = stream.insert(coords);    // point-at-a-time
///   stream.erase(std::array{id});
///   const auto& dendrogram = stream.dendrogram(); // current, slot-indexed
///   auto clusters = stream.hdbscan({.min_pts = 4});
///
/// **Updates.**  Every update first patches the kd index, which holds every
/// live point (`KdTree::patch`: erased points leave their leaves, inserted
/// points descend to theirs; a rebuild once the points erased or inserted
/// since the last build pass a fraction of n, or a leaf would be left empty
/// or overfull).  `insert` appends points and repairs the tree with a
/// cycle-property pass.  A maintained edge of weight w can only be displaced
/// by a path of lighter edges through new points; the first and last new
/// points on it lie within w of the two child clusters of the edge's
/// dendrogram node and have a 2nd-nearest-neighbour distance below w.  Every
/// batch, one point or thousands, checks this per edge: a certificate over
/// per-cluster bounding boxes and a kd-tree over the batch.  Every other edge
/// is kept, and the doubtful ones plus the new points' implicit star edges
/// go through Borůvka rounds over workspace-leased scratch, whose star
/// queries go to the kd index (new points) and the batch tree (established
/// points), bounded by each component's running minimum — equivalently, the
/// heaviest edge on every cycle the candidate edges create is dropped.
/// `erase` removes points, splinters the tree into the surviving components
/// (every surviving edge provably stays in the new MST) and re-joins them
/// through the component-restricted Borůvka entry of `spatial::emst`.  Both
/// paths are *exact*: after any update the maintained tree is a true EMST of
/// the live points.
///
/// **Dendrogram replay.**  Updates renumber the surviving edges, merge the
/// small sorted delta into the maintained `SortedEdges` run
/// (`merge_sorted_edges_delta` — linear, no re-sort) and replay PANDORA's
/// contraction and multilevel expansion, so `dendrogram()` is always current.
///
/// **Slots vs ids.**  Live points occupy dense *slots* [0, size()); erase
/// compacts slots, so dendrogram leaves and EMST endpoints are slot indices.
/// The stable id returned by `insert` survives compaction; translate with
/// `slot_of` / `id_at`.
///
/// **Epochs and caches.**  Every mutation bumps `epoch()`, which orders
/// publication in the snapshot tier.  `hdbscan()` caches like any direct
/// call: its artifacts key on the points' content hash, so an update that
/// changes the points misses, and repeated calls between updates replay from
/// the Executor's ArtifactCache.
///
/// Not thread-safe (one Executor, one writer); to serve readers while it
/// mutates, wrap it in `snapshot::PublishedClustering`, which publishes
/// immutable snapshots of each epoch.
class DynamicClustering {
 public:
  explicit DynamicClustering(const exec::Executor& exec);
  DynamicClustering(DynamicClustering&&) = default;
  DynamicClustering& operator=(DynamicClustering&&) = default;

  /// Inserts a batch of points; returns their stable ids (batch order).
  /// The first insert fixes the dimensionality.
  std::vector<index_t> insert(const spatial::PointSet& batch);

  /// Inserts one point (`coords.size()` = dimension); returns its stable id.
  index_t insert(std::span<const double> coords);

  /// Erases points by stable id.  Erasing an unknown or already-erased id
  /// throws; the ids may be given in any order (duplicates throw too).
  void erase(std::span<const index_t> ids);

  [[nodiscard]] index_t size() const { return points_->size(); }
  [[nodiscard]] int dim() const { return points_->dim(); }

  /// Monotone mutation counter (0 before the first update).
  [[nodiscard]] std::uint64_t epoch() const { return epoch_; }

  /// False while (or after) a structural update failed mid-repair: the
  /// derived structures no longer describe `points()` and every accessor /
  /// update entry point fails fast.  Recover via `restore()` — typically
  /// driven by `snapshot::PublishedClustering::recover()`, which rolls the
  /// stream back to the last published bundle.
  [[nodiscard]] bool healthy() const { return healthy_; }

  /// Live points, dense slot order.
  [[nodiscard]] const spatial::PointSet& points() const { return *points_; }

  /// The maintained exact Euclidean MST (slot endpoints, maintained order).
  /// Like every derived-structure accessor, throws if an earlier update
  /// failed mid-repair (the structures would no longer describe `points()`).
  [[nodiscard]] const graph::EdgeList& emst() const {
    PANDORA_EXPECT(healthy_, "stream poisoned by an earlier failed update");
    return edges_;
  }

  /// The maintained canonical sorted run of `emst()`.
  [[nodiscard]] const dendrogram::SortedEdges& sorted_edges() const {
    PANDORA_EXPECT(healthy_, "stream poisoned by an earlier failed update");
    return sorted_;
  }

  /// The current single-linkage dendrogram (replayed on every update;
  /// leaves are slots).
  [[nodiscard]] const dendrogram::Dendrogram& dendrogram() const {
    PANDORA_EXPECT(healthy_, "stream poisoned by an earlier failed update");
    return dendrogram_;
  }

  /// Current slot of a stable id (kNone once erased), and the inverse.
  [[nodiscard]] index_t slot_of(index_t id) const {
    return id >= 0 && static_cast<std::size_t>(id) < slot_of_id_.size()
               ? slot_of_id_[static_cast<std::size_t>(id)]
               : kNone;
  }
  [[nodiscard]] index_t id_at(index_t slot) const {
    return id_of_slot_[static_cast<std::size_t>(slot)];
  }

  /// HDBSCAN* over the current points: `hdbscan::hdbscan` on the stream's
  /// executor, so repeated calls between updates replay the kd-tree, core
  /// distances and mutual-reachability EMST from its ArtifactCache, and an
  /// update that changes the points misses.
  /// (`options.min_pts` > 1 changes the metric, so this path cannot reuse
  /// the maintained Euclidean tree — it exists for correctness + caching,
  /// not incrementality.)
  [[nodiscard]] hdbscan::HdbscanResult hdbscan(const hdbscan::HdbscanOptions& options = {}) const;

  /// Freezes the current epoch as an immutable `ArtifactBundle` (deep
  /// copies: points, kd index, EMST, sorted run, dendrogram — one unit).
  /// O(n·d + E) copy cost; this is the "materialize the successor snapshot
  /// off to the side" step of `snapshot::PublishedClustering::publish`, so
  /// it runs on the writer thread without touching anything a reader holds.
  /// Like the structure accessors, throws if the stream is poisoned.
  [[nodiscard]] ArtifactBundle capture_artifacts() const;

  /// Resets the stream to the state frozen in `bundle` (deep copies back:
  /// points, id map, EMST, sorted run, dendrogram; the kd index is rebuilt),
  /// clears the poison flag and *advances* the epoch — burned epoch numbers
  /// are never reused, so a republished snapshot orders after the failed one.
  /// Accepts any bundle captured from this stream or a compatible one; this is
  /// the writer-recovery primitive behind `snapshot::PublishedClustering::recover()`.
  void restore(const ArtifactBundle& bundle);

  [[nodiscard]] const UpdateStats& stats() const { return stats_; }

  [[nodiscard]] const exec::Executor& executor() const { return *exec_; }

 private:
  /// Full (re)build of tree + EMST + sorted run; used for the first batch.
  void rebuild_from_scratch();

  /// Exact incremental EMST repair for the batch appended at slots
  /// [n_before, n_before + m), any m >= 1, which the kd index already holds:
  /// builds a kd-tree over the batch, pre-merges every maintained edge the
  /// per-edge certificate clears, and runs Borůvka rounds over the doubtful
  /// edges and the batch's stars.
  /// Fills `keep` (per maintained edge) and `added`.
  void repair_after_insert(index_t n_before, index_t m, std::vector<char>& keep,
                           graph::EdgeList& added);

  /// Applies an edge delta: renumbers survivors, merges the sorted run,
  /// replays the dendrogram, bumps the epoch.
  void finish_update(std::span<const char> keep, const graph::EdgeList& added,
                     std::span<const index_t> vertex_remap, index_t num_vertices);

  void rebuild_index();
  /// Re-indexes after an update (`remap`: indexed slot -> new slot or
  /// kNone; the `survivors` take slots [0, survivors) and the slots after
  /// them are an insert's batch): patches the kd index, or rebuilds it when
  /// the patch is refused (a leaf left empty or overfull) or the drift
  /// budget is spent.
  void reindex(std::span<const index_t> remap, index_t survivors);
  void replay_dendrogram();

  const exec::Executor* exec_;
  /// unique_ptr keeps the PointSet address-stable under moves of *this (the
  /// kd index holds a reference to it).
  std::unique_ptr<spatial::PointSet> points_;
  std::vector<index_t> id_of_slot_;   ///< slot -> stable id
  std::vector<index_t> slot_of_id_;   ///< stable id -> slot (kNone = erased)
  index_t next_id_ = 0;

  graph::EdgeList edges_;             ///< maintained EMST, maintained order
  graph::EdgeList edges_scratch_;
  dendrogram::SortedEdges sorted_;
  dendrogram::SortedEdges sorted_scratch_;
  dendrogram::Dendrogram dendrogram_;

  std::unique_ptr<spatial::KdTree> tree_;  ///< over every live slot
  index_t drift_ = 0;                      ///< points erased or inserted since the last build
  spatial::KdTreeAnnotations notes_;       ///< reused across Borůvka rounds

  std::uint64_t epoch_ = 0;
  /// False while a structural update is in flight; an exception thrown
  /// mid-repair leaves it false, and every subsequent entry point fails
  /// fast instead of computing on a half-updated tree.
  bool healthy_ = true;
  UpdateStats stats_;
};

}  // namespace pandora::dyn
