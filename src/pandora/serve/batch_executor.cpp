#include "pandora/serve/batch_executor.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <thread>

#include "pandora/common/expect.hpp"
#include "pandora/common/timer.hpp"
#include "pandora/exec/cancellation.hpp"
#include "pandora/obs/metrics.hpp"

namespace pandora::serve {

namespace {

/// Per-outcome registry handles (see pandora/obs/metrics.hpp for the
/// handle-caching idiom): one counter and, for jobs that actually ran, one
/// run-time histogram per JobOutcome, plus the queue-wait histogram.
obs::Counter& jobs_metric(JobOutcome outcome) {
  static obs::Counter& ok = obs::registry().counter("pandora_serve_jobs_total{outcome=\"ok\"}");
  static obs::Counter& cancelled =
      obs::registry().counter("pandora_serve_jobs_total{outcome=\"cancelled\"}");
  static obs::Counter& shed =
      obs::registry().counter("pandora_serve_jobs_total{outcome=\"shed\"}");
  static obs::Counter& failed =
      obs::registry().counter("pandora_serve_jobs_total{outcome=\"failed\"}");
  switch (outcome) {
    case JobOutcome::ok: return ok;
    case JobOutcome::cancelled: return cancelled;
    case JobOutcome::shed: return shed;
    case JobOutcome::failed: return failed;
  }
  return failed;
}

obs::Histogram& run_metric(JobOutcome outcome) {
  static obs::Histogram& ok =
      obs::registry().histogram("pandora_serve_job_run_seconds{outcome=\"ok\"}");
  static obs::Histogram& cancelled =
      obs::registry().histogram("pandora_serve_job_run_seconds{outcome=\"cancelled\"}");
  static obs::Histogram& failed =
      obs::registry().histogram("pandora_serve_job_run_seconds{outcome=\"failed\"}");
  switch (outcome) {
    case JobOutcome::cancelled: return cancelled;
    case JobOutcome::failed: return failed;
    default: return ok;
  }
}

constexpr std::size_t kAdaptiveMinSamples = 16;

obs::Histogram& wait_metric() {
  static obs::Histogram& wait = obs::registry().histogram("pandora_serve_job_wait_seconds");
  return wait;
}

}  // namespace

BatchExecutor::BatchExecutor(const exec::Executor& parent, BatchOptions options)
    : parent_(&parent),
      options_(options),
      batch_mutex_(std::make_unique<std::mutex>()),
      adaptive_(std::make_unique<AdaptiveState>()) {
  int slots = options_.num_slots > 0 ? options_.num_slots : parent.num_threads();
  slots = std::max(slots, 1);
  slots_.reserve(static_cast<std::size_t>(slots));
  for (int i = 0; i < slots; ++i)
    slots_.push_back(std::make_unique<exec::Executor>(exec::serial_backend()));
}

std::vector<JobResult> BatchExecutor::run_jobs(std::span<Job> jobs) {
  // One batch at a time on these slots (they are single-occupancy).
  const std::lock_guard<std::mutex> batch_lock(*batch_mutex_);

  // Policy toggles on the parent propagate to the slots at batch start (the
  // parent may have flipped caching since last run).
  for (const auto& slot : slots_) {
    slot->set_artifact_caching(parent_->artifact_caching());
    // Tracing enabled on the parent covers the whole batch: slot workers
    // record into the same (thread-safe) recorder, each on its own ring.
    slot->set_trace_recorder(parent_->trace_recorder());
  }

  const QosPolicy& qos = options_.qos;
  exec::CancellationToken batch_token;
  const bool has_batch_budget = qos.batch_budget.count() > 0;
  if (has_batch_budget)
    batch_token.set_deadline(exec::CancellationToken::clock::now() + qos.batch_budget);

  std::vector<std::size_t> small, large;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    (jobs[i].size_hint <= options_.small_query_threshold ? small : large).push_back(i);
  }

  // Outcomes are captured per job and the batch always settles whole: one
  // poisoned / slow / oversized query can never abort its batchmates.
  std::vector<JobResult> results(jobs.size());
  std::atomic<std::size_t> unfinished{jobs.size()};
  const Timer batch_timer;  // queue wait = run_jobs entry -> job pickup

  // Runs (or sheds) one job on the executor the scheduler assigned.
  auto run_one = [&](std::size_t j, const exec::Executor& exec) {
    JobResult& result = results[j];
    wait_metric().observe(batch_timer.seconds());
    // Admission: a spent batch budget sheds everything not yet started, and
    // under pressure (other jobs still pending beyond the threshold) jobs
    // over the size cutoff are shed rather than run.
    const std::size_t others_pending = unfinished.load(std::memory_order_relaxed) - 1;
    const bool budget_spent = has_batch_budget && batch_token.cancelled();
    const bool oversized = qos.shed_above > 0 && jobs[j].size_hint > qos.shed_above &&
                           others_pending > qos.pressure_threshold;
    // Adaptive admission (QosPolicy::adaptive): both thresholds derived
    // online — "under pressure" means more other jobs pending than slots to
    // absorb them, "oversized" means the job's predicted run time (size hint
    // x the observed seconds-per-size-unit rate) exceeds the rolling p99 of
    // completed-job latency.  Until kAdaptiveMinSamples jobs have completed
    // the model abstains and everything is admitted.
    bool predicted_slow = false;
    if (qos.adaptive && !budget_spent && !oversized &&
        others_pending > static_cast<std::size_t>(num_slots())) {
      const AdaptiveState& model = *adaptive_;
      const std::uint64_t total_ns = model.total_ns.load(std::memory_order_relaxed);
      const std::uint64_t total_size = model.total_size.load(std::memory_order_relaxed);
      if (model.latency.count() >= kAdaptiveMinSamples && total_ns > 0 && total_size > 0) {
        const double seconds_per_unit =
            1e-9 * static_cast<double>(total_ns) / static_cast<double>(total_size);
        const double predicted =
            static_cast<double>(std::max<size_type>(jobs[j].size_hint, 1)) * seconds_per_unit;
        predicted_slow = predicted > model.latency.quantile(0.99);
      }
    }
    if (budget_spent || oversized || predicted_slow) {
      result.outcome = JobOutcome::shed;
      jobs_metric(JobOutcome::shed).inc();
      unfinished.fetch_sub(1, std::memory_order_relaxed);
      return;
    }

    // Per-job token: the job's own deadline, chained to the batch budget
    // and the caller's token.  Stack-allocated — the scope guard uninstalls
    // it before it dies.
    exec::CancellationToken job_token;
    bool cancellable = false;
    if (jobs[j].deadline.count() > 0) {
      job_token.set_deadline(exec::CancellationToken::clock::now() + jobs[j].deadline);
      cancellable = true;
    }
    if (has_batch_budget) {
      job_token.add_parent(&batch_token);
      cancellable = true;
    }
    if (jobs[j].cancellation != nullptr) {
      job_token.add_parent(jobs[j].cancellation);
      cancellable = true;
    }

    Timer timer;
    try {
      // The job-level span wraps the whole run — phases and run_chunks
      // launches nest inside it — and still records when the job unwinds
      // with an exception.
      const exec::ScopedSpan span(exec, "serve.job");
      const exec::ScopedCancellation scope(exec, cancellable ? &job_token : nullptr);
      jobs[j].run(exec);
      result.outcome = JobOutcome::ok;
    } catch (const Cancelled&) {
      result.outcome = JobOutcome::cancelled;
      result.error = std::current_exception();
    } catch (...) {
      result.outcome = JobOutcome::failed;
      result.error = std::current_exception();
    }
    result.seconds = timer.seconds();
    jobs_metric(result.outcome).inc();
    run_metric(result.outcome).observe(result.seconds);
    if (result.outcome == JobOutcome::ok) {
      adaptive_->latency.observe(result.seconds);
      adaptive_->total_size.fetch_add(
          static_cast<std::uint64_t>(std::max<size_type>(jobs[j].size_hint, 1)),
          std::memory_order_relaxed);
      adaptive_->total_ns.fetch_add(static_cast<std::uint64_t>(result.seconds * 1e9),
                                    std::memory_order_relaxed);
    }
    unfinished.fetch_sub(1, std::memory_order_relaxed);
  };

  // Small queries packed per thread.  One worker per slot; workers pull
  // from a shared atomic cursor, so uneven job costs balance dynamically
  // instead of by a static split.
  std::atomic<std::size_t> cursor{0};
  auto drain = [&](int worker) {
    const exec::Executor& slot_exec = *slots_[static_cast<std::size_t>(worker)];
    while (true) {
      const std::size_t next = cursor.fetch_add(1, std::memory_order_relaxed);
      if (next >= small.size()) return;
      run_one(small[next], slot_exec);
    }
  };
  // Large queries one at a time on the calling thread with full intra-query
  // parallelism against the parent executor.
  auto drain_large = [&] {
    for (const std::size_t j : large) run_one(j, *parent_);
  };

  // The calling thread drains the large queue while the slot workers drain
  // the small one, so neither phase waits for the other; large jobs mutate
  // only the parent executor, small jobs only their slot.  Under pressure,
  // the deprioritise knob turns overlap off for this batch so the small
  // queries drain first.
  // Without overlap — or when one of the queues is empty — the phases run in
  // sequence, and a small-only batch keeps the single-worker shortcut (no
  // thread spawn when one worker suffices).
  const bool deprioritise = qos.deprioritise_large_under_pressure &&
                            jobs.size() > qos.pressure_threshold + 1;
  const int workers = std::min<int>(num_slots(), static_cast<int>(small.size()));
  const bool overlapped = !deprioritise && !small.empty() && !large.empty();
  if (overlapped || workers > 1) {
    std::vector<std::thread> pool;
    pool.reserve(static_cast<std::size_t>(workers));
    for (int w = 0; w < workers; ++w) pool.emplace_back(drain, w);
    if (overlapped) drain_large();
    for (std::thread& t : pool) t.join();
    if (!overlapped) drain_large();
  } else {
    if (workers == 1) drain(0);
    drain_large();
  }

  return results;
}

void BatchExecutor::run(std::span<Job> jobs) {
  const std::vector<JobResult> results = run_jobs(jobs);
  // First failure in job order wins; a shed job (no exception object to
  // rethrow) surfaces as Cancelled so callers see one error family
  // for "the server gave up on this query".
  for (const JobResult& result : results) {
    if (result.outcome == JobOutcome::ok) continue;
    if (result.error != nullptr) std::rethrow_exception(result.error);
    throw Cancelled("pandora: query shed by QoS policy under load");
  }
}

void BatchExecutor::build_dendrograms_into(std::span<const DendrogramQuery> queries,
                                           std::vector<dendrogram::Dendrogram>& out) {
  out.resize(queries.size());
  std::vector<Job> jobs;
  jobs.reserve(queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const DendrogramQuery& query = queries[i];
    PANDORA_EXPECT(query.mst != nullptr, "DendrogramQuery::mst must be set");
    jobs.push_back(Job{
        [&query, &slot = out[i]](const exec::Executor& exec) {
          dendrogram::pandora_dendrogram_into(exec, *query.mst, query.num_vertices,
                                              query.options, slot);
        },
        static_cast<size_type>(query.mst->size()),
    });
  }
  run(jobs);
}

std::vector<dendrogram::Dendrogram> BatchExecutor::build_dendrograms(
    std::span<const DendrogramQuery> queries) {
  std::vector<dendrogram::Dendrogram> results;
  build_dendrograms_into(queries, results);
  return results;
}

std::vector<hdbscan::HdbscanResult> BatchExecutor::run_hdbscan(
    std::span<const HdbscanQuery> queries) {
  std::vector<hdbscan::HdbscanResult> results(queries.size());
  std::vector<Job> jobs;
  jobs.reserve(queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const HdbscanQuery& query = queries[i];
    PANDORA_EXPECT(query.points != nullptr, "HdbscanQuery::points must be set");
    jobs.push_back(Job{
        [&query, &slot = results[i]](const exec::Executor& exec) {
          slot = hdbscan::hdbscan(exec, *query.points, query.options);
        },
        static_cast<size_type>(query.points->size()),
    });
  }
  run(jobs);
  return results;
}

}  // namespace pandora::serve
