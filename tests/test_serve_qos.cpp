// Admission control and structured per-job outcomes in serve::BatchExecutor:
// the QosPolicy knobs (batch budget, per-job deadlines, size-based shedding
// under pressure, large-query deprioritisation) and the JobResult contract —
// one slow / oversized / poisoned query never aborts or hides its
// batchmates.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <vector>

#include "pandora/data/point_generators.hpp"
#include "pandora/exec/cancellation.hpp"
#include "pandora/hdbscan/hdbscan.hpp"
#include "pandora/obs/metrics.hpp"
#include "pandora/serve/batch_executor.hpp"

namespace {

using namespace pandora;
using namespace std::chrono_literals;
using serve::BatchExecutor;
using serve::BatchOptions;
using serve::JobOutcome;
using serve::JobResult;

/// A real cancellable workload: HDBSCAN* over a shared point set.
BatchExecutor::Job hdbscan_job(const spatial::PointSet& points, size_type size_hint = 0) {
  return BatchExecutor::Job{
      .run = [&points](const exec::Executor& exec) { (void)hdbscan::hdbscan(exec, points, {}); },
      .size_hint = size_hint != 0 ? size_hint : static_cast<size_type>(points.size()),
  };
}

TEST(ServeQos, DefaultPolicyRunsEverythingOk) {
  const exec::Executor parent;
  BatchExecutor batch(parent, {});
  const spatial::PointSet points = data::gaussian_blobs(400, 2, 3, 0.05, 0.1, 7);
  std::vector<BatchExecutor::Job> jobs(4, hdbscan_job(points));
  const std::vector<JobResult> results = batch.run_jobs(jobs);
  ASSERT_EQ(results.size(), 4u);
  for (const JobResult& result : results) {
    EXPECT_EQ(result.outcome, JobOutcome::ok);
    EXPECT_EQ(result.error, nullptr);
    EXPECT_GT(result.seconds, 0.0);
  }
}

TEST(ServeQos, SpentBatchBudgetShedsUnstartedJobs) {
  const exec::Executor parent;
  BatchOptions options;
  options.qos.batch_budget = 1ns;  // spent before the first job is admitted
  BatchExecutor batch(parent, options);
  const spatial::PointSet points = data::gaussian_blobs(400, 2, 3, 0.05, 0.1, 9);
  std::vector<BatchExecutor::Job> jobs(3, hdbscan_job(points));
  const std::vector<JobResult> results = batch.run_jobs(jobs);
  for (const JobResult& result : results) {
    EXPECT_EQ(result.outcome, JobOutcome::shed);
    EXPECT_EQ(result.error, nullptr);
    EXPECT_EQ(result.seconds, 0.0);
  }
}

TEST(ServeQos, PerJobDeadlineCancelsThatJobOnly) {
  const exec::Executor parent;
  BatchOptions options;
  options.num_slots = 1;  // deterministic admission order
  BatchExecutor batch(parent, options);
  const spatial::PointSet points = data::gaussian_blobs(3000, 3, 4, 0.05, 0.1, 11);
  std::vector<BatchExecutor::Job> jobs;
  jobs.push_back(hdbscan_job(points));
  jobs.back().deadline = 1ns;
  jobs.push_back(hdbscan_job(points));
  const std::vector<JobResult> results = batch.run_jobs(jobs);
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].outcome, JobOutcome::cancelled);
  ASSERT_NE(results[0].error, nullptr);
  EXPECT_THROW(std::rethrow_exception(results[0].error), Cancelled);
  EXPECT_EQ(results[1].outcome, JobOutcome::ok) << "the deadline is per-job, not per-batch";
}

TEST(ServeQos, CallerTokenCancelsItsJob) {
  const exec::Executor parent;
  BatchExecutor batch(parent, {});
  const spatial::PointSet points = data::gaussian_blobs(2000, 2, 3, 0.05, 0.1, 17);
  exec::CancellationToken token;
  token.cancel();  // fired before the batch even starts
  std::vector<BatchExecutor::Job> jobs;
  jobs.push_back(hdbscan_job(points));
  jobs.back().cancellation = &token;
  jobs.push_back(hdbscan_job(points));
  const std::vector<JobResult> results = batch.run_jobs(jobs);
  EXPECT_EQ(results[0].outcome, JobOutcome::cancelled);
  EXPECT_EQ(results[1].outcome, JobOutcome::ok);
}

TEST(ServeQos, OversizedJobShedUnderPressureOnly) {
  const exec::Executor parent;
  BatchOptions options;
  options.num_slots = 1;  // one worker drains the small queue in job order
  options.qos.shed_above = 1000;
  options.qos.pressure_threshold = 0;
  BatchExecutor batch(parent, options);
  const spatial::PointSet points = data::gaussian_blobs(300, 2, 3, 0.05, 0.1, 19);

  // Job 0 is oversized and admitted while job 1 is still pending (pressure)
  // -> shed.  Job 1 is then the last one standing (no pressure) -> runs.
  std::vector<BatchExecutor::Job> jobs;
  jobs.push_back(hdbscan_job(points, /*size_hint=*/5000));
  jobs.push_back(hdbscan_job(points, /*size_hint=*/10));
  const std::vector<JobResult> results = batch.run_jobs(jobs);
  EXPECT_EQ(results[0].outcome, JobOutcome::shed);
  EXPECT_EQ(results[1].outcome, JobOutcome::ok);

  // The same oversized job alone (no pressure) is admitted normally.
  std::vector<BatchExecutor::Job> alone;
  alone.push_back(hdbscan_job(points, /*size_hint=*/5000));
  EXPECT_EQ(batch.run_jobs(alone)[0].outcome, JobOutcome::ok);
}

TEST(ServeQos, DeprioritisedLargeJobRunsAfterSmallOnes) {
  const exec::Executor parent;
  BatchOptions options;
  options.small_query_threshold = 100;
  // Deprioritisation must override the default phase overlap.
  options.qos.deprioritise_large_under_pressure = true;
  options.qos.pressure_threshold = 0;
  BatchExecutor batch(parent, options);

  std::atomic<int> sequence{0};
  std::vector<int> started_at(4, -1);
  std::vector<BatchExecutor::Job> jobs;
  for (int i = 0; i < 4; ++i) {
    jobs.push_back(BatchExecutor::Job{
        .run = [&, i](const exec::Executor&) {
          started_at[static_cast<std::size_t>(i)] =
              sequence.fetch_add(1, std::memory_order_relaxed);
        },
        // Job 0 is large (above the threshold), the rest are small.
        .size_hint = i == 0 ? 1000 : 10,
    });
  }
  const std::vector<JobResult> results = batch.run_jobs(jobs);
  for (const JobResult& result : results) EXPECT_EQ(result.outcome, JobOutcome::ok);
  // Without overlap the small phase drains completely first: the large job
  // holds the highest start sequence.
  for (int i = 1; i < 4; ++i) EXPECT_LT(started_at[static_cast<std::size_t>(i)], started_at[0]);
}

TEST(ServeQos, FailedJobCapturesItsExceptionWithoutAbortingBatchmates) {
  const exec::Executor parent;
  BatchExecutor batch(parent, {});
  const spatial::PointSet points = data::gaussian_blobs(300, 2, 3, 0.05, 0.1, 23);
  std::vector<BatchExecutor::Job> jobs;
  jobs.push_back(BatchExecutor::Job{
      .run = [](const exec::Executor&) { throw std::runtime_error("query bug"); },
      .size_hint = 1,
  });
  jobs.push_back(hdbscan_job(points));
  const std::vector<JobResult> results = batch.run_jobs(jobs);
  EXPECT_EQ(results[0].outcome, JobOutcome::failed);
  ASSERT_NE(results[0].error, nullptr);
  EXPECT_THROW(std::rethrow_exception(results[0].error), std::runtime_error);
  EXPECT_EQ(results[1].outcome, JobOutcome::ok);
}

TEST(ServeQos, LegacyRunSurfacesShedAsCancelled) {
  const exec::Executor parent;
  BatchOptions options;
  options.qos.batch_budget = 1ns;
  BatchExecutor batch(parent, options);
  const spatial::PointSet points = data::gaussian_blobs(300, 2, 3, 0.05, 0.1, 29);
  std::vector<BatchExecutor::Job> jobs(2, hdbscan_job(points));
  EXPECT_THROW(batch.run(jobs), Cancelled);
}

TEST(ServeQos, LegacyRunStillRethrowsFirstFailureInJobOrder) {
  const exec::Executor parent;
  BatchExecutor batch(parent, {});
  std::vector<BatchExecutor::Job> jobs;
  jobs.push_back(BatchExecutor::Job{
      .run = [](const exec::Executor&) { throw std::invalid_argument("first"); },
      .size_hint = 1,
  });
  jobs.push_back(BatchExecutor::Job{
      .run = [](const exec::Executor&) { throw std::runtime_error("second"); },
      .size_hint = 2,
  });
  EXPECT_THROW(batch.run(jobs), std::invalid_argument);
}

TEST(ServeQos, AdaptivePolicyShedsSlowJobFloodThatStaticDefaultsAdmit) {
  // The ROADMAP adaptive-shedding item as a test: a flood of jobs each
  // predicted to run ~100x the observed p99 job latency.  The static knobs
  // at their defaults (shed_above = 0: never shed by size) admit the whole
  // flood; the adaptive policy — thresholds derived online from the latency
  // histogram, nothing tuned — sheds most of it.  Outcomes are cross-checked
  // against the obs:: registry's serve counters, so the test also proves the
  // instrumentation counts what actually happened.
  const exec::Executor parent;
  const auto sleep_job = [](size_type hint) {
    // Run time proportional to size_hint (1us per unit): the honest
    // size-hint-to-seconds relationship the adaptive model learns.
    return BatchExecutor::Job{
        .run =
            [hint](const exec::Executor&) {
              std::this_thread::sleep_for(std::chrono::microseconds(hint));
            },
        .size_hint = hint,
    };
  };
  std::vector<BatchExecutor::Job> flood(12, sleep_job(20000));  // ~20ms each

  {
    BatchExecutor default_knobs(parent, {});  // all QosPolicy knobs at defaults
    for (const JobResult& result : default_knobs.run_jobs(flood))
      EXPECT_EQ(result.outcome, JobOutcome::ok) << "static defaults admit everything";
  }

  BatchOptions options;
  options.num_slots = 2;  // flood pressure: 12 pending jobs >> 2 slots
  options.qos.adaptive = true;
  BatchExecutor batch(parent, options);

  // Teach the model what normal looks like: ~200us jobs, comfortably past
  // the 16 samples the model needs.  A cold adaptive executor must admit everything.
  std::vector<BatchExecutor::Job> warm(24, sleep_job(200));
  for (const JobResult& result : batch.run_jobs(warm))
    EXPECT_EQ(result.outcome, JobOutcome::ok) << "the model learns, it must not pre-shed";

  const std::uint64_t registry_shed_before =
      obs::registry().counter_value("pandora_serve_jobs_total{outcome=\"shed\"}");
  const std::vector<JobResult> results = batch.run_jobs(flood);

  std::uint64_t shed = 0;
  for (const JobResult& result : results) {
    if (result.outcome == JobOutcome::shed) {
      ++shed;
      EXPECT_EQ(result.error, nullptr);
      EXPECT_EQ(result.seconds, 0.0) << "shed jobs never ran";
    } else {
      // A job picked up once the queue drained below the slot count is
      // legitimately admitted — shedding must not starve the tail.
      EXPECT_EQ(result.outcome, JobOutcome::ok);
    }
  }
  EXPECT_GE(shed, 6u) << "the adaptive policy barely shed a 100x-slow flood";
  EXPECT_EQ(obs::registry().counter_value("pandora_serve_jobs_total{outcome=\"shed\"}") -
                registry_shed_before,
            shed)
      << "registry shed counter disagrees with the JobResult outcomes";
}

TEST(ServeQos, BatchExecutorReusableAfterShedding) {
  // A batch that shed everything leaves the slots warm and admissible: the
  // next batch (budget off) runs normally on the same executor.
  const exec::Executor parent;
  BatchOptions options;
  options.qos.batch_budget = 1ns;
  BatchExecutor strict(parent, options);
  const spatial::PointSet points = data::gaussian_blobs(300, 2, 3, 0.05, 0.1, 31);
  std::vector<BatchExecutor::Job> jobs(2, hdbscan_job(points));
  for (const JobResult& result : strict.run_jobs(jobs))
    EXPECT_EQ(result.outcome, JobOutcome::shed);

  BatchExecutor relaxed(parent, {});
  for (const JobResult& result : relaxed.run_jobs(jobs))
    EXPECT_EQ(result.outcome, JobOutcome::ok);
}

}  // namespace
