// Failpoint-driven chaos hardening: the failpoint registry itself (grammar,
// skip/limit, auto-disarm), fault injection at the allocation / launch /
// mid-repair / publish seams, and the poison-and-recover lifecycle of the
// serving stack.  The load-bearing invariants: readers never observe a torn
// snapshot no matter where the writer fails, recovery is bit-identical to a
// cold rebuild over the recovered points, and burned epoch numbers are never
// reused.  CI runs this suite under ASan (gcc-chaos) so every injected
// unwind is also a leak check.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <string_view>
#include <thread>
#include <vector>

#include "pandora/data/point_generators.hpp"
#include "pandora/dyn/dynamic_clustering.hpp"
#include "pandora/exec/failpoint.hpp"
#include "pandora/pipeline.hpp"
#include "pandora/snapshot/published_clustering.hpp"

namespace {

using namespace pandora;
namespace failpoint = exec::failpoint;

/// Arms a site for one test body and guarantees disarm on every exit path
/// (tests must not leak armed sites into each other — and must not call
/// disarm_all, which would wipe the CI env arming of chaos.env.smoke).
class ScopedFailpoint {
 public:
  explicit ScopedFailpoint(std::string_view site, failpoint::Config config = {}) : site_(site) {
    failpoint::arm(site_, config);
  }
  ~ScopedFailpoint() { failpoint::disarm(site_); }
  ScopedFailpoint(const ScopedFailpoint&) = delete;
  ScopedFailpoint& operator=(const ScopedFailpoint&) = delete;

 private:
  std::string_view site_;
};

TEST(FailpointRegistry, DisarmedSiteIsFree) {
  EXPECT_NO_THROW(PANDORA_FAILPOINT("chaos.test.never_armed"));
  EXPECT_EQ(failpoint::hits("chaos.test.never_armed"), 0u);
}

TEST(FailpointRegistry, SkipAndLimitSemantics) {
  // skip=2, limit=1: two passes succeed, the third throws, then auto-disarm.
  const ScopedFailpoint armed("chaos.test.skip", {failpoint::Kind::error, 2, 1});
  EXPECT_NO_THROW(PANDORA_FAILPOINT("chaos.test.skip"));
  EXPECT_NO_THROW(PANDORA_FAILPOINT("chaos.test.skip"));
  EXPECT_THROW(PANDORA_FAILPOINT("chaos.test.skip"), failpoint::InjectedFault);
  EXPECT_NO_THROW(PANDORA_FAILPOINT("chaos.test.skip"));  // auto-disarmed
  EXPECT_EQ(failpoint::hits("chaos.test.skip"), 3u);
  EXPECT_EQ(failpoint::triggered("chaos.test.skip"), 1u);
}

TEST(FailpointRegistry, UnlimitedAndRearm) {
  const ScopedFailpoint armed("chaos.test.unlimited", {failpoint::Kind::error, 0, 0});
  EXPECT_THROW(PANDORA_FAILPOINT("chaos.test.unlimited"), failpoint::InjectedFault);
  EXPECT_THROW(PANDORA_FAILPOINT("chaos.test.unlimited"), failpoint::InjectedFault);
  // Re-arming replaces the config and resets counters.
  failpoint::arm("chaos.test.unlimited", {failpoint::Kind::error, 1, 1});
  EXPECT_EQ(failpoint::triggered("chaos.test.unlimited"), 0u);
  EXPECT_NO_THROW(PANDORA_FAILPOINT("chaos.test.unlimited"));
  EXPECT_THROW(PANDORA_FAILPOINT("chaos.test.unlimited"), failpoint::InjectedFault);
}

TEST(FailpointRegistry, BadAllocKind) {
  const ScopedFailpoint armed("chaos.test.badalloc", {failpoint::Kind::bad_alloc, 0, 1});
  EXPECT_THROW(PANDORA_FAILPOINT("chaos.test.badalloc"), std::bad_alloc);
}

TEST(FailpointRegistry, SpecGrammar) {
  failpoint::arm_from_spec("chaos.test.a,chaos.test.b@badalloc=2:3");
  EXPECT_THROW(PANDORA_FAILPOINT("chaos.test.a"), failpoint::InjectedFault);
  EXPECT_NO_THROW(PANDORA_FAILPOINT("chaos.test.b"));  // skip=2
  EXPECT_NO_THROW(PANDORA_FAILPOINT("chaos.test.b"));
  EXPECT_THROW(PANDORA_FAILPOINT("chaos.test.b"), std::bad_alloc);
  failpoint::disarm("chaos.test.a");
  failpoint::disarm("chaos.test.b");

  EXPECT_THROW(failpoint::arm_from_spec("site@nonsense"), std::invalid_argument);
  EXPECT_THROW(failpoint::arm_from_spec("site=abc"), std::invalid_argument);
  EXPECT_THROW(failpoint::arm_from_spec("@error"), std::invalid_argument);
}

TEST(FailpointRegistry, EnvArmedSmoke) {
  // The gcc-chaos CI entry exports PANDORA_FAILPOINTS=chaos.env.smoke; the
  // static-init EnvArmer must have armed it before main().  Without the env
  // var this test has nothing to verify.
  const char* spec = std::getenv("PANDORA_FAILPOINTS");
  if (spec == nullptr ||
      std::string_view(spec).find("chaos.env.smoke") == std::string_view::npos) {
    GTEST_SKIP() << "PANDORA_FAILPOINTS does not arm chaos.env.smoke";
  }
  EXPECT_THROW(PANDORA_FAILPOINT("chaos.env.smoke"), failpoint::InjectedFault);
  EXPECT_GE(failpoint::triggered("chaos.env.smoke"), 1u);
}

TEST(ChaosSeams, AllocationFaultUnwindsCleanlyAndArenaRecovers) {
  const spatial::PointSet points = data::gaussian_blobs(500, 2, 3, 0.05, 0.1, 23);
  // Fresh executor: its first lease must hit HostMemoryResource::allocate.
  const exec::Executor executor;
  {
    const ScopedFailpoint armed("exec.memory.allocate", {failpoint::Kind::bad_alloc, 0, 1});
    EXPECT_THROW((void)hdbscan::hdbscan(executor, points), std::bad_alloc);
  }
  // The unwind released every lease (ASan would flag a leak); the same
  // executor completes the same query afterwards.
  const auto result = hdbscan::hdbscan(executor, points);
  EXPECT_EQ(result.labels.size(), static_cast<std::size_t>(points.size()));
}

TEST(ChaosSeams, LaunchFaultUnwindsCleanly) {
  // Enough points to clear the parallel_for grain, and an explicit 4-thread
  // budget, so the query actually reaches run_chunks even on small machines.
  const spatial::PointSet points = data::gaussian_blobs(5000, 2, 3, 0.05, 0.1, 29);
  const exec::Executor executor(exec::default_backend(), 4);
  (void)hdbscan::hdbscan(executor, points);  // warm the arena
  {
    const ScopedFailpoint armed("exec.run_chunks", {failpoint::Kind::error, 0, 1});
    EXPECT_THROW((void)hdbscan::hdbscan(executor, points), failpoint::InjectedFault);
  }
  const auto result = hdbscan::hdbscan(executor, points);
  EXPECT_EQ(result.labels.size(), static_cast<std::size_t>(points.size()));
}

TEST(ChaosSeams, InsertFaultPoisonsStream) {
  exec::Executor executor;
  dyn::DynamicClustering stream(executor);
  stream.insert(data::gaussian_blobs(200, 2, 3, 0.05, 0.1, 31));
  const std::uint64_t epoch_before = stream.epoch();

  {
    const ScopedFailpoint armed("dyn.insert.repair");
    EXPECT_THROW((void)stream.insert(data::gaussian_blobs(20, 2, 1, 0.05, 0.0, 32)),
                 failpoint::InjectedFault);
  }
  // Poisoned: the derived structures no longer describe points(); every
  // accessor and further update fails fast instead of mis-answering.
  EXPECT_FALSE(stream.healthy());
  EXPECT_GT(stream.epoch(), epoch_before);  // the failed epoch is burned
  EXPECT_THROW((void)stream.dendrogram(), std::invalid_argument);
  EXPECT_THROW((void)stream.emst(), std::invalid_argument);
  EXPECT_THROW((void)stream.hdbscan(), std::invalid_argument);
  EXPECT_THROW((void)stream.capture_artifacts(), std::invalid_argument);
  EXPECT_THROW((void)stream.insert(data::gaussian_blobs(5, 2, 1, 0.05, 0.0, 33)),
               std::invalid_argument);
}

TEST(ChaosSeams, EraseFaultPoisonsStream) {
  exec::Executor executor;
  dyn::DynamicClustering stream(executor);
  const std::vector<index_t> ids = stream.insert(data::gaussian_blobs(200, 2, 3, 0.05, 0.1, 37));
  {
    const ScopedFailpoint armed("dyn.erase.repair");
    const std::vector<index_t> victims{ids[0], ids[1]};
    EXPECT_THROW(stream.erase(victims), failpoint::InjectedFault);
  }
  EXPECT_FALSE(stream.healthy());
  EXPECT_THROW((void)stream.sorted_edges(), std::invalid_argument);
}

/// Bit-identity helper: the recovered stream's maintained structures must
/// equal a cold `dyn::` rebuild over the same points.
void expect_stream_matches_cold_rebuild(const dyn::DynamicClustering& stream) {
  exec::Executor cold_exec;
  dyn::DynamicClustering cold(cold_exec);
  cold.insert(stream.points());
  ASSERT_EQ(stream.size(), cold.size());
  EXPECT_EQ(stream.dendrogram().parent, cold.dendrogram().parent);
  EXPECT_EQ(stream.dendrogram().weight, cold.dendrogram().weight);
  ASSERT_EQ(stream.emst().size(), cold.emst().size());
  double maintained = 0.0, rebuilt = 0.0;
  for (const auto& e : stream.emst()) maintained += e.weight;
  for (const auto& e : cold.emst()) rebuilt += e.weight;
  EXPECT_DOUBLE_EQ(maintained, rebuilt);
}

TEST(WriterRecovery, PoisonedWriterRecoversToLastPublishedEpoch) {
  const exec::Executor writer_exec(exec::serial_backend());
  snapshot::PublishedClustering published(writer_exec);
  const spatial::PointSet first = data::gaussian_blobs(300, 2, 3, 0.05, 0.1, 41);
  published.insert(first);
  const std::uint64_t published_epoch = published.published_epoch();
  const std::uint64_t burned_epoch = published_epoch + 1;

  {
    const ScopedFailpoint armed("dyn.insert.repair");
    EXPECT_THROW(published.insert(data::gaussian_blobs(30, 2, 1, 0.05, 0.0, 42)),
                 failpoint::InjectedFault);
  }
  EXPECT_TRUE(published.poisoned());
  // Readers are untouched: the published snapshot predates the failure.
  {
    const snapshot::SnapshotPtr snap = published.acquire();
    EXPECT_EQ(snap->epoch(), published_epoch);
    EXPECT_EQ(snap->size(), first.size());
  }

  const std::uint64_t restored = published.recover();
  EXPECT_EQ(restored, published_epoch);
  EXPECT_FALSE(published.poisoned());
  EXPECT_EQ(published.stream().size(), first.size());
  // The re-published epoch is fresh: strictly beyond the burned one, so no
  // cache key from the failed update can ever be served.
  EXPECT_GT(published.published_epoch(), burned_epoch);

  // Recovery is bit-identical to a cold rebuild over the recovered points.
  expect_stream_matches_cold_rebuild(published.stream());

  // And the writer resumes: the once-failed batch applies cleanly now.
  published.insert(data::gaussian_blobs(30, 2, 1, 0.05, 0.0, 42));
  EXPECT_EQ(published.stream().size(), first.size() + 30);
  expect_stream_matches_cold_rebuild(published.stream());
}

TEST(WriterRecovery, PublishFaultKeepsReadersOnOldEpochAndRecoverRollsBack) {
  const exec::Executor writer_exec(exec::serial_backend());
  snapshot::PublishedClustering published(writer_exec);
  published.insert(data::gaussian_blobs(200, 2, 3, 0.05, 0.1, 43));
  const std::uint64_t published_epoch = published.published_epoch();
  const index_t published_size = published.stream().size();

  {
    const ScopedFailpoint armed("snapshot.publish");
    EXPECT_THROW(published.insert(data::gaussian_blobs(25, 2, 1, 0.05, 0.0, 44)),
                 failpoint::InjectedFault);
  }
  // The stream itself applied the update (the fault hit after the repair,
  // in publish), so it is NOT poisoned — but the successor snapshot never
  // swapped in, so readers still see the old epoch.
  EXPECT_FALSE(published.poisoned());
  EXPECT_EQ(published.published_epoch(), published_epoch);
  EXPECT_EQ(published.stream().size(), published_size + 25);

  // recover() rolls back to what readers are actually being served: the
  // unpublished mutation is dropped, stream and snapshot agree again.
  EXPECT_EQ(published.recover(), published_epoch);
  EXPECT_EQ(published.stream().size(), published_size);
  EXPECT_GT(published.published_epoch(), published_epoch);
  expect_stream_matches_cold_rebuild(published.stream());
}

TEST(WriterRecovery, MaterialiseFaultLeavesCurrentSnapshotServed) {
  const exec::Executor writer_exec(exec::serial_backend());
  snapshot::PublishedClustering published(writer_exec);
  published.insert(data::gaussian_blobs(150, 2, 2, 0.05, 0.1, 47));
  const std::uint64_t published_epoch = published.published_epoch();
  {
    const ScopedFailpoint armed("snapshot.materialise");
    EXPECT_THROW(published.insert(data::gaussian_blobs(10, 2, 1, 0.05, 0.0, 48)),
                 failpoint::InjectedFault);
  }
  const snapshot::SnapshotPtr snap = published.acquire();
  EXPECT_EQ(snap->epoch(), published_epoch);
  (void)published.recover();
  EXPECT_FALSE(published.poisoned());
}

TEST(WriterRecovery, EpochsStrictlyIncreaseAcrossFailureAndRecovery) {
  const exec::Executor writer_exec(exec::serial_backend());
  snapshot::PublishedClustering published(writer_exec);
  std::vector<std::uint64_t> observed;
  observed.push_back(published.published_epoch());
  for (int cycle = 0; cycle < 3; ++cycle) {
    published.insert(data::gaussian_blobs(60, 2, 2, 0.05, 0.1, 50 + cycle));
    observed.push_back(published.published_epoch());
    {
      const ScopedFailpoint armed("dyn.insert.repair");
      EXPECT_THROW(published.insert(data::gaussian_blobs(5, 2, 1, 0.05, 0.0, 60 + cycle)),
                   failpoint::InjectedFault);
    }
    (void)published.recover();
    observed.push_back(published.published_epoch());
  }
  for (std::size_t i = 1; i < observed.size(); ++i)
    EXPECT_GT(observed[i], observed[i - 1]) << "epoch reuse at step " << i;
}

TEST(WriterRecovery, ReadersNeverSeeTornStateUnderInjectedChaos) {
  // Concurrent chaos: readers hammer acquire()+query while the writer
  // alternates successful updates, injected mid-repair failures and
  // recoveries.  Every result a reader gets must be self-consistent with
  // the snapshot it pinned (the ASan/TSan CI entries also race/leak-check
  // this).  Failpoints are global state, so the armed site is the writer's
  // alone — readers never pass through dyn.insert.repair.
  const exec::Executor writer_exec(exec::serial_backend());
  snapshot::PublishedClustering published(writer_exec);
  published.insert(data::gaussian_blobs(120, 2, 2, 0.05, 0.1, 71));

  std::atomic<bool> stop{false};
  std::atomic<int> reader_errors{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&] {
      const exec::Executor reader_exec(exec::serial_backend());
      hdbscan::HdbscanOptions options;
      options.min_pts = 3;
      while (!stop.load(std::memory_order_relaxed)) {
        const snapshot::SnapshotPtr snap = published.acquire();
        if (snap->size() == 0) continue;
        const auto result = snap->hdbscan(reader_exec, options);
        // Self-consistency of the pinned epoch: every artifact sized to the
        // same frozen point count (a torn snapshot would mix epochs).
        if (result.labels.size() != static_cast<std::size_t>(snap->size()) ||
            snap->dendrogram().num_vertices != snap->size() ||
            snap->emst().size() + 1 != static_cast<std::size_t>(snap->size()))
          reader_errors.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  for (int cycle = 0; cycle < 6; ++cycle) {
    published.insert(data::gaussian_blobs(40, 2, 2, 0.05, 0.1, 80 + cycle));
    {
      const ScopedFailpoint armed("dyn.insert.repair");
      EXPECT_THROW(published.insert(data::gaussian_blobs(8, 2, 1, 0.05, 0.0, 90 + cycle)),
                   failpoint::InjectedFault);
    }
    EXPECT_TRUE(published.poisoned());
    (void)published.recover();
    EXPECT_FALSE(published.poisoned());
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(reader_errors.load(), 0) << "a reader observed a torn snapshot";
  expect_stream_matches_cold_rebuild(published.stream());
}

}  // namespace
