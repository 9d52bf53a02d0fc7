#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "pandora/common/types.hpp"
#include "pandora/dendrogram/dendrogram.hpp"
#include "pandora/dendrogram/pandora.hpp"
#include "pandora/exec/executor.hpp"
#include "pandora/graph/edge.hpp"
#include "pandora/hdbscan/hdbscan.hpp"
#include "pandora/spatial/point_set.hpp"

/// Batched multi-query serving on one Executor.
///
/// A serving deployment of this library is sweep- and batch-shaped: many
/// parameter settings over one point set, many point sets over one machine
/// (cf. cuSLINK, ParChain).  Running such queries one at a time on a parallel
/// Executor wastes the machine twice — small queries cannot amortise the
/// fork/join of intra-query parallelism, and the queue serialises behind each
/// query's sequential tail.  The `BatchExecutor` divides one executor's
/// thread budget *across* queries instead:
///
///  * **small queries are packed per thread**: each runs serially on one of
///    N persistent slot executors, N slots running concurrently — query-level
///    parallelism with zero fork/join inside a query;
///  * **large queries keep intra-query parallelism**: they run one at a time
///    on the parent executor with its full thread budget (a large query
///    saturates the machine by itself).
///
/// Every slot owns its own `Workspace` arena, so the zero-steady-state-
/// allocation guarantee holds per slot: a warm batch of same-shaped queries
/// leases every scratch buffer from recycled blocks.  Every slot also owns
/// its own `ArtifactCache`; the parent's caching flag propagates to the
/// slots at batch start.
namespace pandora::serve {

/// One dendrogram query of a batch: build the dendrogram of `*mst`.
struct DendrogramQuery {
  const graph::EdgeList* mst = nullptr;
  index_t num_vertices = 0;
  dendrogram::PandoraOptions options = {};
};

/// One HDBSCAN* query of a batch: cluster `*points` under `options`.
struct HdbscanQuery {
  const spatial::PointSet* points = nullptr;
  hdbscan::HdbscanOptions options = {};
};

/// How one job of a batch ended (see BatchExecutor::run_jobs).
enum class JobOutcome : std::uint8_t {
  ok,         ///< ran to completion
  cancelled,  ///< started, then unwound with pandora::Cancelled (deadline,
              ///< batch budget, or the caller's token)
  shed,       ///< never started: rejected at admission by the QoS policy
  failed,     ///< started, then threw something other than Cancelled
};

/// Per-job outcome of a batch: what happened, the captured exception for
/// cancelled/failed jobs (nullptr for ok/shed), and the job's wall time
/// (0 for shed jobs — they never ran).
struct JobResult {
  JobOutcome outcome = JobOutcome::ok;
  std::exception_ptr error;
  double seconds = 0.0;
};

/// Admission control and load shedding for a batch (all knobs off by
/// default — a default QosPolicy admits everything and never cancels).
///
/// "Pressure" is the number of *other* jobs of the batch not yet settled at
/// the moment a job is picked up: with `pressure_threshold = 0`, a batch of
/// two jobs is already under pressure while both are pending, and the last
/// remaining job never is — so shedding drains with the queue, it does not
/// starve.
struct QosPolicy {
  /// Wall budget for the whole batch, measured from run_jobs entry (0 =
  /// unlimited).  Jobs still running when it expires unwind with
  /// `Cancelled`; jobs not yet started are shed.
  std::chrono::nanoseconds batch_budget{0};

  /// Shed jobs whose `size_hint` exceeds this while the batch is under
  /// pressure (0 = never shed by size).  Large queries monopolise the
  /// parent executor; under load, dropping one large query frees the whole
  /// machine for many small ones.
  size_type shed_above = 0;

  /// Pending-job count above which the batch counts as "under pressure"
  /// (see the class comment on how pressure is measured).
  std::size_t pressure_threshold = 0;

  /// Learn the shedding decision from observed latencies instead of the
  /// static `shed_above` / `pressure_threshold` knobs.  The executor keeps
  /// a log2 latency histogram of completed jobs plus a running
  /// size-hint-to-seconds rate (both survive across batches); once 16 jobs
  /// have completed ok (a cold server admits everything while it learns), a
  /// job picked up while more other jobs are pending than there are slots is
  /// shed when its predicted run time (size_hint x observed seconds-per-unit)
  /// exceeds the rolling p99 of completed-job latency — i.e. both thresholds
  /// are derived online, none of the static knobs need tuning.  Composes
  /// with the static knobs: either can shed a job.
  bool adaptive = false;

  /// Under pressure, give up phase overlap so the small queries drain on
  /// the slots *before* the calling thread starts the large ones — large
  /// queries are deprioritised instead of shed.
  bool deprioritise_large_under_pressure = false;
};

struct BatchOptions {
  /// Queries whose size hint (edges for dendrogram queries, points for
  /// HDBSCAN queries) is at most this are "small" and are packed onto the
  /// serial slot executors; larger queries run with full intra-query
  /// parallelism.  The default is a few multiples of the parallel-for grain:
  /// below it, a query's OpenMP fork/join overhead outweighs what
  /// intra-query parallelism buys, so query-level packing wins.
  size_type small_query_threshold = 16 * exec::kParallelForGrain;

  /// Concurrent slots for small queries; 0 = the parent's thread budget.
  int num_slots = 0;

  /// Admission control / load shedding (off by default).
  QosPolicy qos;
};

class BatchExecutor {
 public:
  explicit BatchExecutor(const exec::Executor& parent, BatchOptions options = {});
  BatchExecutor(BatchExecutor&&) = default;
  BatchExecutor& operator=(BatchExecutor&&) = delete;

  /// A unit of batched work.  `run` receives the executor the scheduler
  /// assigned (a serial slot executor for small jobs, the parent for large
  /// ones) and must confine all mutation to that executor and to state no
  /// other job touches (e.g. its own output slot).
  struct Job {
    std::function<void(const exec::Executor&)> run;
    size_type size_hint = 0;
    /// Per-job deadline, measured from the job's start (0 = none).
    std::chrono::nanoseconds deadline{0};
    /// Caller-owned cancellation token observed while the job runs (nullptr
    /// = none).  Must outlive the batch call.
    const exec::CancellationToken* cancellation = nullptr;
  };

  /// Runs every job to completion.  Small jobs execute concurrently: worker
  /// threads (one per slot) pull them from a shared queue, so slots stay
  /// busy regardless of how job costs vary.  Large jobs execute on the
  /// calling thread against the parent executor, one at a time, while the
  /// slot workers drain the small queue: on imbalanced batches one phase
  /// hides behind the other, at the cost of transient oversubscription (the
  /// parent's OpenMP team plus the slot workers, bounded by 2x the budget).
  /// Safe because large jobs mutate only the parent executor and small jobs
  /// only their slot.  Only `QosPolicy::deprioritise_large_under_pressure`
  /// runs the phases in sequence.
  /// If jobs threw (or were cancelled or shed), the first failure (in job
  /// order) is rethrown after every job has settled; the remaining jobs
  /// still ran.  Prefer `run_jobs` when per-job outcomes matter.
  void run(std::span<Job> jobs);

  /// Runs the batch under the configured `QosPolicy` and reports a
  /// structured outcome per job (index-aligned with `jobs`) instead of
  /// first-exception-wins: `ok` jobs completed, `cancelled` jobs unwound
  /// with `pandora::Cancelled` (their partial work discarded, their slot
  /// arena intact), `shed` jobs were rejected at admission — batch budget
  /// already spent, or oversized under pressure — and `failed` jobs threw.
  /// One poisoned / slow / oversized query can therefore never abort its
  /// batchmates *or* hide their results.  Never throws for job failures.
  [[nodiscard]] std::vector<JobResult> run_jobs(std::span<Job> jobs);

  /// Batched dendrogram construction; results are index-aligned with
  /// `queries`.  `build_dendrograms_into` reuses the storage of `out`
  /// (index-aligned, resized to the query count): a second identical batch
  /// on warm slots performs no steady-state arena allocation.
  [[nodiscard]] std::vector<dendrogram::Dendrogram> build_dendrograms(
      std::span<const DendrogramQuery> queries);
  void build_dendrograms_into(std::span<const DendrogramQuery> queries,
                              std::vector<dendrogram::Dendrogram>& out);

  /// Batched HDBSCAN*; results are index-aligned with `queries`.
  [[nodiscard]] std::vector<hdbscan::HdbscanResult> run_hdbscan(
      std::span<const HdbscanQuery> queries);

  [[nodiscard]] const exec::Executor& parent() const noexcept { return *parent_; }
  [[nodiscard]] int num_slots() const noexcept { return static_cast<int>(slots_.size()); }
  /// Slot executors, exposed so tests and benches can inspect per-slot
  /// workspace statistics (the per-slot steady-state guarantee).
  [[nodiscard]] const exec::Executor& slot(int i) const { return *slots_[static_cast<std::size_t>(i)]; }
  [[nodiscard]] const BatchOptions& options() const noexcept { return options_; }

 private:
  /// Rolling latency model behind `QosPolicy::adaptive`, heap-held like the
  /// batch mutex so the executor stays movable.  Completing ok jobs write
  /// it (relaxed atomics, from any worker); admission reads it.
  struct AdaptiveState {
    obs::Histogram latency;                    ///< completed-job run time
    std::atomic<std::uint64_t> total_size{0};  ///< sum of completed size hints
    std::atomic<std::uint64_t> total_ns{0};    ///< sum of completed run time
  };

  const exec::Executor* parent_;
  BatchOptions options_;
  /// Persistent serial executors, one per slot: their Workspace arenas stay
  /// warm across batches.  unique_ptr keeps them address-stable.
  std::vector<std::unique_ptr<exec::Executor>> slots_;
  /// Serialises whole batches on the slots (two threads may submit `run`
  /// concurrently; the slots are single-occupancy).  Heap-held so the
  /// executor stays movable.
  std::unique_ptr<std::mutex> batch_mutex_;
  std::unique_ptr<AdaptiveState> adaptive_;
};

}  // namespace pandora::serve
