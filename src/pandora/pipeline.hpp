#pragma once

#include <chrono>

#include "pandora/common/expect.hpp"
#include "pandora/common/types.hpp"
#include "pandora/dendrogram/dendrogram.hpp"
#include "pandora/dendrogram/pandora.hpp"
#include "pandora/dendrogram/sorted_edges.hpp"
#include "pandora/dyn/dynamic_clustering.hpp"
#include "pandora/exec/executor.hpp"
#include "pandora/graph/edge.hpp"
#include "pandora/hdbscan/hdbscan.hpp"
#include "pandora/serve/batch_executor.hpp"
#include "pandora/snapshot/published_clustering.hpp"
#include "pandora/snapshot/snapshot.hpp"
#include "pandora/spatial/kdtree.hpp"
#include "pandora/spatial/point_set.hpp"

namespace pandora {

/// The fluent front door of the library: one builder configuring the whole
/// clustering pipeline against an Executor, replacing ad-hoc
/// `PandoraOptions` / `HdbscanOptions` field-poking at call sites:
///
///   exec::Executor executor;                       // reused across queries
///   auto dendrogram = Pipeline::on(executor)
///                         .with_min_pts(4)
///                         .build_dendrogram(mst, num_vertices);
///   auto clusters   = Pipeline::on(executor)
///                         .with_min_pts(4)
///                         .with_min_cluster_size(25)
///                         .run_hdbscan(points);
///
/// The builder holds a reference to the executor (it must outlive any
/// terminal call) and plain option values; it is cheap to copy and every
/// `with_*` returns *this for chaining.  Terminal operations delegate to the
/// Executor-based free functions, so repeated calls on one executor reuse
/// its workspace arena and report phases to its PhaseTimes sink.
class Pipeline {
 public:
  [[nodiscard]] static Pipeline on(const exec::Executor& executor) { return Pipeline(executor); }

  /// Backend front door: a pipeline over the per-thread default executor of
  /// `backend` — `Pipeline::on(exec::serial_backend())` runs the whole
  /// pipeline on the sequential reference without managing an Executor by
  /// hand.  The shared default executor keeps its warm workspace arena and
  /// artifact cache across pipelines on the same backend.
  [[nodiscard]] static Pipeline on(const std::shared_ptr<const exec::Backend>& backend) {
    return Pipeline(exec::default_executor(backend));
  }

  /// Snapshot front door: a pipeline whose terminal operations run against a
  /// pinned `snapshot::Snapshot` instead of caller-supplied points — the
  /// reader-side idiom of the serving tier:
  ///
  ///   snapshot::SnapshotPtr snap = published.acquire();
  ///   auto clusters = Pipeline::on_snapshot(reader_exec, *snap)
  ///                       .with_min_pts(4)
  ///                       .with_min_cluster_size(25)
  ///                       .run_hdbscan();              // no points argument
  ///
  /// Both the executor and the snapshot must outlive the terminal call (hold
  /// the SnapshotPtr across it).  Point-set terminals (`run_hdbscan(points)`
  /// etc.) remain available and ignore the snapshot.
  [[nodiscard]] static Pipeline on_snapshot(const exec::Executor& executor,
                                            const snapshot::Snapshot& snap) {
    Pipeline pipeline(executor);
    pipeline.snapshot_ = &snap;
    return pipeline;
  }

  // --- configuration -------------------------------------------------------

  /// HDBSCAN* minPts (core-distance neighbour count).  Default 2.
  Pipeline& with_min_pts(int min_pts) {
    options_.min_pts = min_pts;
    return *this;
  }

  /// Condensed-tree shedding threshold.  Default 5.
  Pipeline& with_min_cluster_size(index_t min_cluster_size) {
    options_.min_cluster_size = min_cluster_size;
    return *this;
  }

  /// Which dendrogram algorithm the pipeline runs (PANDORA by default).
  Pipeline& with_dendrogram_algorithm(hdbscan::DendrogramAlgorithm algorithm) {
    options_.dendrogram_algorithm = algorithm;
    return *this;
  }

  /// Toggle the cross-call SortedEdges cache (on by default).  Applies to the
  /// executor, so it persists across pipelines sharing it.
  Pipeline& with_sorted_edges_cache(bool enabled) {
    executor_->set_artifact_caching(enabled);
    return *this;
  }

  /// Validate inputs at the front door: dendrogram inputs must be spanning
  /// trees with finite weights, point sets must carry only finite (no
  /// NaN/Inf) coordinates.  Violations throw std::invalid_argument.
  Pipeline& with_validation(bool validate = true) {
    validate_input_ = validate;
    return *this;
  }

  /// Wall-clock budget for each terminal operation, measured from the start
  /// of the call (0 = unlimited, the default).  An expired budget surfaces as
  /// `pandora::Cancelled` ("deadline exceeded") with ~one-chunk latency —
  /// the kernels poll a deadline'd CancellationToken at run_chunks chunk
  /// boundaries on every backend.  Composes with `with_cancellation`.
  Pipeline& with_deadline(std::chrono::nanoseconds budget) {
    deadline_ = budget;
    return *this;
  }

  /// Observe a caller-owned cancellation token during terminal operations:
  /// once it fires, the running computation unwinds with
  /// `pandora::Cancelled`.  The token must outlive the terminal calls;
  /// nullptr (the default) disables external cancellation at zero cost.
  Pipeline& with_cancellation(const exec::CancellationToken* token) {
    cancellation_ = token;
    return *this;
  }

  Pipeline& allow_single_cluster(bool allow = true) {
    options_.allow_single_cluster = allow;
    return *this;
  }

  Pipeline& with_cluster_selection(hdbscan::ClusterSelectionMethod method) {
    options_.cluster_selection_method = method;
    return *this;
  }

  Pipeline& with_selection_epsilon(double epsilon) {
    options_.cluster_selection_epsilon = epsilon;
    return *this;
  }

  // --- terminal operations --------------------------------------------------

  /// Canonical descending-(weight, id) edge sort (Section 3.1.1).
  [[nodiscard]] dendrogram::SortedEdges sort_edges(const graph::EdgeList& mst,
                                                   index_t num_vertices) const;

  /// Dendrogram of an MST via the configured algorithm.
  [[nodiscard]] dendrogram::Dendrogram build_dendrogram(const graph::EdgeList& mst,
                                                        index_t num_vertices) const;

  /// Dendrogram from pre-sorted edges (shares one sort across algorithms).
  [[nodiscard]] dendrogram::Dendrogram build_dendrogram(
      const dendrogram::SortedEdges& sorted) const;

  /// Output-reusing dendrogram build: with the PANDORA algorithm, a second
  /// identical call on a warm Executor (sorted-edges cache hit, arena-leased
  /// scratch, capacity-reusing outputs) performs no heap allocation.
  void build_dendrogram_into(const graph::EdgeList& mst, index_t num_vertices,
                             dendrogram::Dendrogram& out) const;

  /// Per-point core distances at the configured minPts.
  [[nodiscard]] std::vector<double> core_distances(const spatial::PointSet& points,
                                                   const spatial::KdTree& tree) const;

  /// Euclidean MST (minPts == 1) or mutual-reachability MST (minPts > 1).
  [[nodiscard]] graph::EdgeList build_mst(const spatial::PointSet& points,
                                          const spatial::KdTree& tree) const;

  /// The full HDBSCAN* pipeline.
  [[nodiscard]] hdbscan::HdbscanResult run_hdbscan(const spatial::PointSet& points) const;

  // --- snapshot terminals (require on_snapshot) ------------------------------

  /// HDBSCAN* against the pinned snapshot (see Snapshot::hdbscan).
  [[nodiscard]] hdbscan::HdbscanResult run_hdbscan() const {
    PANDORA_EXPECT(snapshot_ != nullptr, "run_hdbscan() without points requires on_snapshot");
    return cancellable([&] { return snapshot_->hdbscan(*executor_, options_); });
  }

  /// `min_cluster_size` sweep against the pinned snapshot.
  [[nodiscard]] hdbscan::MinClusterSizeSweep sweep_min_cluster_size(
      std::span<const index_t> min_cluster_sizes) const {
    PANDORA_EXPECT(snapshot_ != nullptr,
                   "sweep_min_cluster_size() without points requires on_snapshot");
    return cancellable(
        [&] { return snapshot_->sweep_min_cluster_size(*executor_, min_cluster_sizes, options_); });
  }

  /// mpts sweep against the pinned snapshot.
  [[nodiscard]] std::vector<hdbscan::HdbscanResult> sweep_min_pts(
      std::span<const int> min_pts_values) const {
    PANDORA_EXPECT(snapshot_ != nullptr,
                   "sweep_min_pts() without points requires on_snapshot");
    return cancellable(
        [&] { return snapshot_->sweep_min_pts(*executor_, min_pts_values, options_); });
  }

  // --- batched serving & parameter sweeps -----------------------------------

  /// The batched serving front door: a `serve::BatchExecutor` over this
  /// pipeline's executor.  N independent queries run concurrently against
  /// one thread budget — small queries packed one-per-thread on serial slot
  /// executors, large queries keeping intra-query parallelism — and all
  /// slots share the executor's ArtifactCache:
  ///
  ///   auto batch = Pipeline::on(executor).batch();
  ///   std::vector<dendrogram::Dendrogram> dendrograms =
  ///       batch.build_dendrograms(queries);   // N queries, one machine
  ///
  /// Keep the BatchExecutor alive across batches: its slot arenas stay warm,
  /// so steady-state batches perform no arena allocation per slot.
  [[nodiscard]] serve::BatchExecutor batch(serve::BatchOptions options = {}) const {
    return serve::BatchExecutor(*executor_, options);
  }

  /// A `min_cluster_size` sweep over one point set: the pipeline runs once
  /// up to the dendrogram (configured minPts applies), then each value only
  /// re-condenses and re-extracts.  See hdbscan_sweep_min_cluster_size.
  [[nodiscard]] hdbscan::MinClusterSizeSweep sweep_min_cluster_size(
      const spatial::PointSet& points, std::span<const index_t> min_cluster_sizes) const;

  /// An mpts sweep over one point set, sharing the kd-tree across values
  /// through the ArtifactCache.  See hdbscan_sweep_min_pts.
  [[nodiscard]] std::vector<hdbscan::HdbscanResult> sweep_min_pts(
      const spatial::PointSet& points, std::span<const int> min_pts_values) const;

  // --- streaming / mutable corpora -------------------------------------------

  /// The incremental front door: a `dyn::DynamicClustering` bound to this
  /// pipeline's executor.  The returned object owns a mutable point set,
  /// keeps its exact EMST maintained under `insert` / `erase`, and replays
  /// the dendrogram from the merged edge delta after every update:
  ///
  ///   auto stream = Pipeline::on(executor).dynamic();
  ///   stream.insert(initial_points);
  ///   stream.insert(new_point);                       // incremental repair
  ///   const auto& dendrogram = stream.dendrogram();   // already current
  ///
  /// HDBSCAN* options apply when calling `stream.hdbscan()` (pass them
  /// there — the stream outlives this builder).
  [[nodiscard]] dyn::DynamicClustering dynamic() const {
    return dyn::DynamicClustering(*executor_);
  }

  /// The serving front door: a `snapshot::PublishedClustering` whose writer
  /// side is bound to this pipeline's executor.  Writers mutate and publish;
  /// readers `acquire()` pinned snapshots from their own threads and query
  /// them through `Pipeline::on_snapshot` (writers never block readers —
  /// see published_clustering.hpp).
  [[nodiscard]] snapshot::PublishedClustering published() const {
    return snapshot::PublishedClustering(*executor_);
  }

  [[nodiscard]] const exec::Executor& executor() const { return *executor_; }

 private:
  explicit Pipeline(const exec::Executor& executor) : executor_(&executor) {}

  [[nodiscard]] dendrogram::PandoraOptions pandora_options() const {
    dendrogram::PandoraOptions options;
    options.validate_input = validate_input_;
    return options;
  }

  /// Runs one terminal operation under the configured cancellation scope: a
  /// fresh deadline token (parented on the external token, so either firing
  /// cancels) when a budget is set, the bare external token otherwise.  With
  /// neither configured the scope guard is a no-op and the kernels take their
  /// null-token fast path.
  template <class F>
  auto cancellable(F&& f) const -> decltype(f()) {
    exec::CancellationToken deadline_token;
    const exec::CancellationToken* token = cancellation_;
    if (deadline_.count() > 0) {
      deadline_token.set_deadline(exec::CancellationToken::clock::now() + deadline_);
      deadline_token.add_parent(cancellation_);
      token = &deadline_token;
    }
    const exec::ScopedCancellation scope(*executor_, token);
    return f();
  }

  const exec::Executor* executor_;
  const snapshot::Snapshot* snapshot_ = nullptr;
  hdbscan::HdbscanOptions options_;
  bool validate_input_ = false;
  std::chrono::nanoseconds deadline_{0};
  const exec::CancellationToken* cancellation_ = nullptr;
};

}  // namespace pandora
