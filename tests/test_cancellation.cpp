// Cooperative cancellation and deadlines: token semantics, the run_chunks
// chunk-boundary contract on every backend, the serial-fallback polling of
// parallel_for, and deadlines / external tokens installed with
// ScopedCancellation around whole queries.  The load-bearing invariant:
// cancellation unwinds with pandora::Cancelled on the *calling* thread (chunk
// bodies never throw — Backend contract) and a cancelled executor is
// immediately reusable.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "pandora/data/point_generators.hpp"
#include "pandora/exec/cancellation.hpp"
#include "pandora/exec/executor.hpp"
#include "pandora/exec/parallel.hpp"
#include "pandora/hdbscan/hdbscan.hpp"
#include "pandora/snapshot/published_clustering.hpp"

namespace {

using namespace pandora;
using namespace std::chrono_literals;

TEST(CancellationToken, ExplicitCancelFires) {
  exec::CancellationToken token;
  EXPECT_FALSE(token.cancelled());
  token.cancel();
  EXPECT_TRUE(token.cancelled());
  EXPECT_FALSE(token.deadline_exceeded());
}

TEST(CancellationToken, DeadlineFires) {
  exec::CancellationToken token = exec::CancellationToken::after(0ns);
  EXPECT_TRUE(token.cancelled());
  EXPECT_TRUE(token.deadline_exceeded());

  exec::CancellationToken distant;
  distant.set_deadline(exec::CancellationToken::clock::now() + 1h);
  EXPECT_FALSE(distant.cancelled());
}

TEST(CancellationToken, ParentCancellationPropagates) {
  exec::CancellationToken parent;
  exec::CancellationToken child;
  child.add_parent(&parent);
  child.add_parent(nullptr);  // no-op
  EXPECT_FALSE(child.cancelled());
  parent.cancel();
  EXPECT_TRUE(child.cancelled());
  EXPECT_FALSE(child.deadline_exceeded());
}

TEST(CancellationToken, ParentDeadlineReportsAsDeadline) {
  exec::CancellationToken parent = exec::CancellationToken::after(0ns);
  exec::CancellationToken child;
  child.add_parent(&parent);
  EXPECT_TRUE(child.cancelled());
  EXPECT_TRUE(child.deadline_exceeded());
}

TEST(Cancellation, PreCancelledTokenStopsLaunchBeforeAnyChunk) {
  const exec::Executor executor;
  exec::CancellationToken token;
  token.cancel();
  const exec::ScopedCancellation scope(executor, &token);
  std::atomic<int> executed{0};
  auto body = [&](int) { executed.fetch_add(1, std::memory_order_relaxed); };
  EXPECT_THROW(executor.run_chunks(64, 0, body), Cancelled);
  EXPECT_EQ(executed.load(), 0);
}

TEST(Cancellation, MidLaunchCancelSkipsRemainingChunks) {
  const exec::Executor executor;
  exec::CancellationToken token;
  const exec::ScopedCancellation scope(executor, &token);
  // Every chunk body cancels the token: only bodies already past the guard
  // when the first one fires can still run, so far fewer than the 1000
  // scheduled chunks execute — regardless of chunk execution order.
  std::atomic<int> executed{0};
  auto body = [&](int) {
    token.cancel();
    executed.fetch_add(1, std::memory_order_relaxed);
  };
  EXPECT_THROW(executor.run_chunks(1000, 0, body), Cancelled);
  EXPECT_GT(executed.load(), 0);
  EXPECT_LT(executed.load(), 1000);
}

TEST(Cancellation, SerialFallbackPollsAtGrain) {
  // A serial-backend executor takes the serial fallback of parallel_for; a
  // deadline that expires immediately must still cancel it (polled every
  // kParallelForGrain iterations), not run the loop to completion.
  const exec::Executor executor(exec::serial_backend());
  const exec::CancellationToken token = exec::CancellationToken::after(0ns);
  const exec::ScopedCancellation scope(executor, &token);
  std::atomic<long> visited{0};
  EXPECT_THROW(exec::parallel_for(executor, 1'000'000,
                                  [&](size_type) { visited.fetch_add(1, std::memory_order_relaxed); }),
               Cancelled);
  EXPECT_LT(visited.load(), 1'000'000);
}

TEST(Cancellation, ExecutorReusableAfterCancel) {
  const exec::Executor executor;
  {
    exec::CancellationToken token;
    token.cancel();
    const exec::ScopedCancellation scope(executor, &token);
    auto noop = [](int) {};
    EXPECT_THROW(executor.run_chunks(8, 0, noop), Cancelled);
  }
  // Scope restored the (null) token: the next launch runs all chunks.
  std::atomic<int> executed{0};
  auto body = [&](int) { executed.fetch_add(1, std::memory_order_relaxed); };
  executor.run_chunks(8, 0, body);
  EXPECT_EQ(executed.load(), 8);
}

TEST(Cancellation, ScopedCancellationNestsAndRestores) {
  const exec::Executor executor;
  exec::CancellationToken outer;
  {
    const exec::ScopedCancellation outer_scope(executor, &outer);
    EXPECT_EQ(executor.cancellation_token(), &outer);
    {
      exec::CancellationToken inner;
      const exec::ScopedCancellation inner_scope(executor, &inner);
      EXPECT_EQ(executor.cancellation_token(), &inner);
    }
    EXPECT_EQ(executor.cancellation_token(), &outer);
    // A null token is a no-op scope: the outer token stays installed.
    const exec::ScopedCancellation noop(executor, nullptr);
    EXPECT_EQ(executor.cancellation_token(), &outer);
  }
  EXPECT_EQ(executor.cancellation_token(), nullptr);
}

hdbscan::HdbscanOptions min_pts_4() {
  hdbscan::HdbscanOptions options;
  options.min_pts = 4;
  return options;
}

TEST(Cancellation, DeadlineCancelsHdbscan) {
  const exec::Executor executor;
  const spatial::PointSet points = data::gaussian_blobs(4000, 3, 4, 0.05, 0.1, 11);
  try {
    const exec::CancellationToken deadline = exec::CancellationToken::after(1ns);
    const exec::ScopedCancellation scope(executor, &deadline);
    (void)hdbscan::hdbscan(executor, points, min_pts_4());
    FAIL() << "expected pandora::Cancelled";
  } catch (const Cancelled& e) {
    EXPECT_NE(std::string(e.what()).find("deadline"), std::string::npos) << e.what();
  }
  // The scope uninstalled the token, and the executor (and its arena)
  // survive the unwind: the same query without a deadline completes.
  EXPECT_EQ(executor.cancellation_token(), nullptr);
  EXPECT_NO_THROW((void)hdbscan::hdbscan(executor, points, min_pts_4()));
}

TEST(Cancellation, ExternalTokenCancelsHdbscanFromAnotherThread) {
  const exec::Executor executor;
  const spatial::PointSet points = data::gaussian_blobs(4000, 3, 4, 0.05, 0.1, 13);
  exec::CancellationToken token;
  std::thread canceller([&] {
    std::this_thread::sleep_for(1ms);
    token.cancel();
  });
  // Either the cancel lands mid-computation (Cancelled) or the query was
  // faster — both are legal; what must not happen is a hang or a crash.
  try {
    const exec::ScopedCancellation scope(executor, &token);
    (void)hdbscan::hdbscan(executor, points, min_pts_4());
  } catch (const Cancelled&) {
  }
  canceller.join();
  SUCCEED();
}

TEST(Cancellation, SnapshotQueryHonoursDeadline) {
  const exec::Executor writer(exec::serial_backend());
  snapshot::PublishedClustering published(writer);
  published.insert(data::gaussian_blobs(2000, 2, 3, 0.05, 0.1, 17));
  const snapshot::SnapshotPtr snap = published.acquire();

  const exec::Executor reader;
  {
    const exec::CancellationToken deadline = exec::CancellationToken::after(1ns);
    const exec::ScopedCancellation scope(reader, &deadline);
    EXPECT_THROW((void)snap->hdbscan(reader), Cancelled);
  }
  EXPECT_NO_THROW((void)snap->hdbscan(reader));
}

}  // namespace
