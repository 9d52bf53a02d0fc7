// The snapshot:: epoch-published serving tier: publish/acquire lifecycle,
// reader-pinned epochs under concurrent writer churn (the CI gcc-tsan matrix
// entry race-checks the stress tests), each snapshot's published kd-tree (the
// writer's index, copied; no reader builds one) and shared neighbour pass,
// queries that make no ArtifactCache lookup, RCU-style reclaim when the last
// reader drains (the gcc-sanitize / ASan entry leak-checks it).

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <span>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "pandora/data/point_generators.hpp"
#include "pandora/obs/metrics.hpp"
#include "pandora/snapshot/published_clustering.hpp"
#include "pandora/snapshot/snapshot.hpp"

namespace {

using namespace pandora;

hdbscan::HdbscanOptions stress_options() {
  hdbscan::HdbscanOptions options;
  options.min_pts = 3;
  options.min_cluster_size = 8;
  return options;
}

/// The bit-identity contract: `result` (computed by a reader against a
/// pinned snapshot, on the snapshot's published kd-tree) must equal a cold
/// rebuild over the same frozen points.
void expect_bit_identical(const hdbscan::HdbscanResult& result,
                          const hdbscan::HdbscanResult& cold, std::uint64_t epoch) {
  EXPECT_EQ(result.labels, cold.labels) << "epoch " << epoch;
  EXPECT_EQ(result.num_clusters, cold.num_clusters) << "epoch " << epoch;
  EXPECT_EQ(result.core_distances, cold.core_distances) << "epoch " << epoch;
  EXPECT_EQ(result.dendrogram.parent, cold.dendrogram.parent) << "epoch " << epoch;
  EXPECT_EQ(result.dendrogram.weight, cold.dendrogram.weight) << "epoch " << epoch;
}

/// Process-wide ArtifactCache traffic: every cache of every executor counts
/// into these registry counters, so a delta of zero means no cache anywhere
/// was consulted.
struct CacheTraffic {
  std::uint64_t hits = obs::registry().counter_value("pandora_cache_hits_total");
  std::uint64_t misses = obs::registry().counter_value("pandora_cache_misses_total");
};

void expect_no_cache_lookups(const CacheTraffic& before, const char* what) {
  const CacheTraffic after;
  EXPECT_EQ(after.hits, before.hits) << what;
  EXPECT_EQ(after.misses, before.misses) << what;
}

/// How many times any executor ran the "tree_build" phase.
std::uint64_t tree_builds() {
  return obs::registry().histogram("pandora_phase_seconds{phase=\"tree_build\"}").count();
}

TEST(SnapshotServing, PublishAcquireLifecycle) {
  const exec::Executor writer_exec(exec::serial_backend());
  snapshot::PublishedClustering published(writer_exec);

  // Before any insert: an empty epoch-0 snapshot is already acquirable.
  const snapshot::SnapshotPtr empty = published.acquire();
  ASSERT_NE(empty, nullptr);
  EXPECT_EQ(empty->epoch(), 0u);
  EXPECT_EQ(empty->size(), 0);

  published.insert(data::gaussian_blobs(300, 2, 3, 0.04, 0.1, 7));
  const snapshot::SnapshotPtr first = published.acquire();
  EXPECT_EQ(first->epoch(), 1u);
  EXPECT_EQ(first->size(), 300);
  EXPECT_EQ(published.published_epoch(), 1u);

  // A pinned snapshot is frozen: the writer keeps mutating, the reader's
  // epoch does not move and its artifacts stay bit-identical.
  const dendrogram::Dendrogram before = first->dendrogram();
  published.insert(data::gaussian_blobs(50, 2, 3, 0.04, 0.1, 8));
  EXPECT_EQ(published.published_epoch(), 2u);
  EXPECT_EQ(first->epoch(), 1u);
  EXPECT_EQ(first->size(), 300);
  EXPECT_EQ(first->dendrogram().parent, before.parent);
  EXPECT_EQ(published.acquire()->size(), 350);
}

TEST(SnapshotServing, QueriesOnEmptySnapshotThrow) {
  const exec::Executor writer_exec(exec::serial_backend());
  const snapshot::PublishedClustering published(writer_exec);
  const snapshot::SnapshotPtr empty = published.acquire();
  const exec::Executor reader(exec::serial_backend());
  EXPECT_THROW((void)empty->hdbscan(reader, stress_options()), std::invalid_argument);
  EXPECT_EQ(empty->bundle().tree, nullptr);
  EXPECT_THROW((void)empty->tree(), std::invalid_argument);
}

TEST(SnapshotServing, ReaderQueriesMatchColdRebuildWithoutCacheLookups) {
  const exec::Executor writer_exec(exec::serial_backend());
  snapshot::PublishedClustering published(writer_exec);
  published.insert(data::gaussian_blobs(500, 2, 4, 0.03, 0.1, 11));
  const snapshot::SnapshotPtr snap = published.acquire();

  // Both readers run on the writer's published index, reader b on the
  // default (parallel) backend, and must match the cold rebuild.
  const exec::Executor reader_a(exec::serial_backend());
  const exec::Executor reader_b(exec::default_backend());
  const CacheTraffic before;
  const std::uint64_t builds_before = tree_builds();
  const hdbscan::HdbscanResult via_a = snap->hdbscan(reader_a, stress_options());
  const hdbscan::HdbscanResult via_b = snap->hdbscan(reader_b, stress_options());
  expect_no_cache_lookups(before, "Snapshot::hdbscan");
  EXPECT_EQ(tree_builds(), builds_before) << "readers query the published index";
  EXPECT_EQ(&snap->tree().points(), &snap->points());

  const exec::Executor cold(exec::serial_backend());
  const hdbscan::HdbscanResult rebuild = hdbscan::hdbscan(cold, snap->points(), stress_options());
  expect_bit_identical(via_a, rebuild, snap->epoch());
  expect_bit_identical(via_b, rebuild, snap->epoch());
  EXPECT_EQ(via_a.mst, rebuild.mst);
}

// Every snapshot front door runs on the snapshot's tree and consults no
// ArtifactCache, with caching on, and stays bit-identical to cold runs.
TEST(SnapshotServing, SnapshotSweepsMakeNoCacheLookups) {
  const exec::Executor writer_exec(exec::serial_backend());
  snapshot::PublishedClustering published(writer_exec);
  published.insert(data::gaussian_blobs(400, 2, 3, 0.04, 0.1, 31));
  const snapshot::SnapshotPtr snap = published.acquire();
  const exec::Executor reader(exec::serial_backend());
  ASSERT_TRUE(reader.artifact_caching());
  const exec::Executor cold(exec::serial_backend());
  cold.set_artifact_caching(false);

  const std::array<int, 8> mpts = {2, 3, 4, 5, 6, 7, 8, 9};
  CacheTraffic before;
  const std::vector<hdbscan::HdbscanResult> by_mpts = snap->sweep_min_pts(reader, mpts);
  expect_no_cache_lookups(before, "Snapshot::sweep_min_pts");
  ASSERT_EQ(by_mpts.size(), mpts.size());
  for (std::size_t i = 0; i < mpts.size(); ++i) {
    hdbscan::HdbscanOptions options;
    options.min_pts = mpts[i];
    const hdbscan::HdbscanResult expected = hdbscan::hdbscan(cold, snap->points(), options);
    EXPECT_EQ(by_mpts[i].labels, expected.labels) << "mpts " << mpts[i];
    EXPECT_EQ(by_mpts[i].mst, expected.mst) << "mpts " << mpts[i];
    EXPECT_EQ(by_mpts[i].dendrogram.parent, expected.dendrogram.parent) << "mpts " << mpts[i];
  }

  const std::array<index_t, 2> sizes = {8, 16};
  before = CacheTraffic{};
  const hdbscan::MinClusterSizeSweep by_size =
      snap->sweep_min_cluster_size(reader, sizes, stress_options());
  expect_no_cache_lookups(before, "Snapshot::sweep_min_cluster_size");
  ASSERT_EQ(by_size.entries.size(), sizes.size());
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    hdbscan::HdbscanOptions options = stress_options();
    options.min_cluster_size = sizes[i];
    const hdbscan::HdbscanResult expected = hdbscan::hdbscan(cold, snap->points(), options);
    EXPECT_EQ(by_size.entries[i].labels, expected.labels) << "min_cluster_size " << sizes[i];
    EXPECT_EQ(by_size.mst, expected.mst);
    EXPECT_EQ(by_size.dendrogram->parent, expected.dendrogram.parent);
  }
}

// The benchmark's hdbscan_hacc contract: a direct call on fresh points looks
// up the kd-tree, core distances, MST and sorted edges, and misses on all.
TEST(SnapshotServing, DirectHdbscanOnFreshPointsMakesFourMisses) {
  const spatial::PointSet points = data::gaussian_blobs(400, 2, 3, 0.04, 0.1, 37);
  const exec::Executor executor(exec::serial_backend());
  const CacheTraffic before;
  (void)hdbscan::hdbscan(executor, points, stress_options());
  const CacheTraffic after;
  EXPECT_EQ(after.misses - before.misses, 4u);
  EXPECT_EQ(after.hits - before.hits, 0u);
}

// Concurrent first queries on a freshly published snapshot, on serial and
// on parallel executors, build no tree: all run on the one the writer
// published, bound to the snapshot's own points.
TEST(SnapshotServing, ConcurrentFirstQueriesShareThePublishedTree) {
  for (const auto& backend : {exec::serial_backend(), exec::openmp_backend()}) {
    const exec::Executor writer_exec(exec::serial_backend());
    snapshot::PublishedClustering published(writer_exec);
    published.insert(data::gaussian_blobs(2000, 2, 4, 0.03, 0.1, 19));
    const snapshot::SnapshotPtr snap = published.acquire();

    constexpr int kReaders = 8;
    std::vector<const spatial::KdTree*> trees(kReaders);
    std::vector<hdbscan::HdbscanResult> results(kReaders);
    std::atomic<int> ready{0};
    const std::uint64_t builds_before = tree_builds();
    std::vector<std::thread> readers;
    readers.reserve(kReaders);
    for (int r = 0; r < kReaders; ++r) {
      readers.emplace_back([&, r] {
        const exec::Executor reader(backend, backend == exec::serial_backend() ? 1 : 2);
        ready.fetch_add(1);
        while (ready.load() < kReaders) std::this_thread::yield();
        results[static_cast<std::size_t>(r)] = snap->hdbscan(reader, stress_options());
        trees[static_cast<std::size_t>(r)] = &snap->tree();
      });
    }
    for (std::thread& t : readers) t.join();

    EXPECT_EQ(tree_builds(), builds_before) << backend->name();
    EXPECT_EQ(&snap->tree().points(), &snap->points()) << backend->name();
    for (int r = 0; r < kReaders; ++r) {
      EXPECT_EQ(trees[static_cast<std::size_t>(r)], &snap->tree()) << "reader " << r;
      EXPECT_EQ(results[static_cast<std::size_t>(r)].labels, results[0].labels) << "reader " << r;
    }
  }
}

// Epochs never share a tree: epoch e+1 holds its own copy of the writer's
// index, readers of it build none, and epoch e's stays as it was.
TEST(SnapshotServing, SuccessorEpochHoldsItsOwnTree) {
  const exec::Executor writer_exec(exec::serial_backend());
  snapshot::PublishedClustering published(writer_exec);
  published.insert(data::gaussian_blobs(300, 2, 3, 0.04, 0.1, 41));
  const snapshot::SnapshotPtr older = published.acquire();
  const exec::Executor reader(exec::serial_backend());
  const hdbscan::HdbscanResult older_result = older->hdbscan(reader, stress_options());
  const spatial::KdTree* older_tree = &older->tree();

  published.insert(data::gaussian_blobs(20, 2, 3, 0.04, 0.1, 42));
  const snapshot::SnapshotPtr newer = published.acquire();
  ASSERT_EQ(newer->epoch(), older->epoch() + 1);
  const std::uint64_t builds_before = tree_builds();
  (void)newer->hdbscan(reader, stress_options());
  EXPECT_EQ(tree_builds(), builds_before);
  EXPECT_NE(&newer->tree(), older_tree);
  EXPECT_EQ(&newer->tree().points(), &newer->points());
  EXPECT_EQ(newer->tree().size(), 320);
  EXPECT_EQ(&older->tree(), older_tree);
  EXPECT_EQ(older->tree().size(), 300);
  EXPECT_EQ(older->hdbscan(reader, stress_options()).labels, older_result.labels);
}

// Reads on the published index through a churning stream, whose index is
// both patched and rebuilt: after every insert and every erase, queries at
// mpts 2, 5 and 9 on serial and parallel readers are bit-identical to cold
// runs, MST edge order included.
TEST(SnapshotServing, ReadsOnThePublishedIndexMatchColdRunsThroughChurn) {
  const exec::Executor writer_exec(exec::serial_backend());
  snapshot::PublishedClustering published(writer_exec);
  published.insert(data::gaussian_blobs(1000, 2, 4, 0.04, 0.1, 43));
  const dyn::UpdateStats loaded = published.stream().stats();
  const exec::Executor serial_reader(exec::serial_backend());
  const exec::Executor parallel_reader(exec::openmp_backend(), 4);
  const exec::Executor cold(exec::serial_backend());
  cold.set_artifact_caching(false);

  std::deque<std::vector<index_t>> live_batches;
  for (int round = 0; round < 24; ++round) {
    if (round % 2 == 0) {
      live_batches.push_back(
          published.insert(data::gaussian_blobs(60, 2, 4, 0.04, 0.1, 300 + round)));
    } else {
      // Erase the first half of the oldest live batch, or all of it.
      std::vector<index_t>& oldest = live_batches.front();
      const std::size_t count = round % 4 == 1 ? oldest.size() / 2 : oldest.size();
      published.erase(std::span<const index_t>(oldest).first(count));
      oldest.erase(oldest.begin(), oldest.begin() + static_cast<std::ptrdiff_t>(count));
      if (oldest.empty()) live_batches.pop_front();
    }
    const snapshot::SnapshotPtr snap = published.acquire();
    for (const int min_pts : {2, 5, 9}) {
      hdbscan::HdbscanOptions options = stress_options();
      options.min_pts = min_pts;
      const hdbscan::HdbscanResult expected = hdbscan::hdbscan(cold, snap->points(), options);
      for (const exec::Executor* reader : {&serial_reader, &parallel_reader}) {
        const hdbscan::HdbscanResult result = snap->hdbscan(*reader, options);
        expect_bit_identical(result, expected, snap->epoch());
        EXPECT_EQ(result.mst, expected.mst) << "epoch " << snap->epoch() << " mpts " << min_pts;
      }
    }
  }
  const dyn::UpdateStats& churned = published.stream().stats();
  EXPECT_GT(churned.index_patches, loaded.index_patches);
  EXPECT_GT(churned.index_rebuilds, loaded.index_rebuilds);
}

// The TSan stress test (the gcc-tsan CI entry runs this suite): N reader
// threads run HDBSCAN and min_cluster_size sweeps against pinned snapshots
// while the writer thread churns insert/erase batches, publishing after
// every mutation.  Every reader-observed clustering must be bit-identical
// to a cold rebuild at its pinned epoch.
TEST(SnapshotServing, ConcurrentReadersObserveConsistentPinnedEpochs) {
  const exec::Executor writer_exec;  // default backend: the writer may be parallel
  snapshot::PublishedClustering published(writer_exec);
  published.insert(data::gaussian_blobs(300, 2, 3, 0.04, 0.1, 21));

  constexpr int kReaders = 4;
  constexpr int kWriterRounds = 10;
  std::atomic<bool> writer_done{false};

  struct Observation {
    snapshot::SnapshotPtr snap;  // held: the epoch stays resident until we verify
    hdbscan::HdbscanResult result;
  };
  std::vector<std::vector<Observation>> observed(kReaders);

  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      // One executor per reader (the one-kernel-per-executor rule); serial
      // backend so N readers and the writer's pool coexist on any host.
      const exec::Executor reader(exec::serial_backend());
      while (!writer_done.load(std::memory_order_acquire)) {
        const snapshot::SnapshotPtr snap = published.acquire();
        if (snap->size() == 0) continue;
        Observation obs;
        obs.snap = snap;
        if (r % 2 == 0) {
          obs.result = snap->hdbscan(reader, stress_options());
        } else {
          // Sweep readers: keep the smallest-min_cluster_size entry as the
          // recorded clustering; the sweep shares the snapshot's kd-tree
          // with the hdbscan readers.
          const std::array<index_t, 2> sizes = {8, 16};
          const auto sweep = snap->sweep_min_cluster_size(reader, sizes, stress_options());
          obs.result.labels = sweep.entries[0].labels;
          obs.result.num_clusters = sweep.entries[0].num_clusters;
          obs.result.core_distances = sweep.core_distances;
          obs.result.dendrogram = *sweep.dendrogram;
        }
        observed[static_cast<std::size_t>(r)].push_back(std::move(obs));
      }
    });
  }

  // Writer churn: insert a fresh batch every round, erase the oldest batch
  // once three are in flight.  Every call publishes a successor snapshot.
  std::deque<std::vector<index_t>> live_batches;
  for (int round = 0; round < kWriterRounds; ++round) {
    live_batches.push_back(
        published.insert(data::gaussian_blobs(20, 2, 3, 0.04, 0.1, 100 + round)));
    if (live_batches.size() > 3) {
      published.erase(live_batches.front());
      live_batches.pop_front();
    }
  }
  writer_done.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();

  // Verify off-line: one cold rebuild per distinct observed epoch, compared
  // against every reader observation pinned to it.
  std::map<std::uint64_t, hdbscan::HdbscanResult> cold_by_epoch;
  const exec::Executor cold(exec::serial_backend());
  std::size_t total = 0;
  for (const auto& reader_observations : observed) {
    for (const Observation& obs : reader_observations) {
      auto it = cold_by_epoch.find(obs.snap->epoch());
      if (it == cold_by_epoch.end()) {
        it = cold_by_epoch
                 .emplace(obs.snap->epoch(),
                          hdbscan::hdbscan(cold, obs.snap->points(), stress_options()))
                 .first;
      }
      expect_bit_identical(obs.result, it->second, obs.snap->epoch());
      ++total;
    }
  }
  EXPECT_GT(total, 0u) << "readers must have completed queries during the churn";
}

// Readers at distinct mpts share each snapshot's neighbour pass — one may
// replace it with a longer pass while others still run on the old one —
// while the writer publishes successors and retires (drops the pass of) the
// epochs they pin.  The gcc-tsan entry race-checks the pass's mutex and the
// retirement; every result must match a cold run at its epoch and mpts.
TEST(SnapshotServing, ConcurrentReadersAtDistinctMptsShareOneNeighborPass) {
  const exec::Executor writer_exec;  // default backend: the writer may be parallel
  snapshot::PublishedClustering published(writer_exec);
  published.insert(data::gaussian_blobs(300, 2, 3, 0.04, 0.1, 31));

  constexpr int kReaders = 4;
  constexpr int kWriterRounds = 10;
  std::atomic<bool> writer_done{false};

  struct Observation {
    snapshot::SnapshotPtr snap;
    int min_pts = 0;
    hdbscan::HdbscanResult result;
  };
  std::vector<std::vector<Observation>> observed(kReaders);

  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      const exec::Executor reader(exec::serial_backend());
      for (int i = 0; !writer_done.load(std::memory_order_acquire); ++i) {
        Observation obs;
        obs.snap = published.acquire();
        // Distinct across the readers at every step, rotating through 2..9
        // so passes are both reused and replaced by longer ones.
        obs.min_pts = 2 + (2 * r + i) % 8;
        hdbscan::HdbscanOptions options = stress_options();
        options.min_pts = obs.min_pts;
        obs.result = obs.snap->hdbscan(reader, options);
        observed[static_cast<std::size_t>(r)].push_back(std::move(obs));
      }
    });
  }

  std::deque<std::vector<index_t>> live_batches;
  for (int round = 0; round < kWriterRounds; ++round) {
    live_batches.push_back(
        published.insert(data::gaussian_blobs(20, 2, 3, 0.04, 0.1, 200 + round)));
    if (live_batches.size() > 3) {
      published.erase(live_batches.front());
      live_batches.pop_front();
    }
  }
  writer_done.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();

  std::map<std::pair<std::uint64_t, int>, hdbscan::HdbscanResult> cold_by_query;
  const exec::Executor cold(exec::serial_backend());
  cold.set_artifact_caching(false);
  std::size_t total = 0;
  for (const auto& reader_observations : observed) {
    for (const Observation& obs : reader_observations) {
      const std::pair<std::uint64_t, int> key{obs.snap->epoch(), obs.min_pts};
      auto it = cold_by_query.find(key);
      if (it == cold_by_query.end()) {
        hdbscan::HdbscanOptions options = stress_options();
        options.min_pts = obs.min_pts;
        it = cold_by_query.emplace(key, hdbscan::hdbscan(cold, obs.snap->points(), options))
                 .first;
      }
      expect_bit_identical(obs.result, it->second, obs.snap->epoch());
      EXPECT_EQ(obs.result.mst, it->second.mst) << "epoch " << key.first << " mpts " << key.second;
      ++total;
    }
  }
  EXPECT_GT(total, 0u) << "readers must have completed queries during the churn";
}

// The ASan reclaim test (the gcc-sanitize CI entry leak-checks this suite):
// a retired snapshot's artifacts — bundle and kd-tree — are freed exactly
// when the last reader drains, with no leak and no use-after-free.
TEST(SnapshotServing, RetiredSnapshotReclaimedWhenLastReaderDrains) {
  const exec::Executor writer_exec(exec::serial_backend());
  snapshot::PublishedClustering published(writer_exec);
  published.insert(data::gaussian_blobs(250, 2, 3, 0.05, 0.1, 5));

  snapshot::SnapshotPtr pinned = published.acquire();
  std::weak_ptr<const snapshot::Snapshot> watch = pinned;
  const exec::Executor reader(exec::serial_backend());
  const hdbscan::HdbscanResult result = pinned->hdbscan(reader, stress_options());
  const std::weak_ptr<const spatial::KdTree> tree = pinned->bundle().tree;

  // Publish a successor: the retired snapshot survives — its one reader
  // still holds it — and its kd-tree stays resident and readable.
  published.insert(data::gaussian_blobs(30, 2, 3, 0.05, 0.1, 6));
  ASSERT_FALSE(watch.expired());
  ASSERT_FALSE(tree.expired());
  const hdbscan::HdbscanResult again = pinned->hdbscan(reader, stress_options());
  EXPECT_EQ(again.labels, result.labels);
  EXPECT_EQ(&pinned->tree(), tree.lock().get()) << "the retired epoch keeps its one tree";

  // Last reader drains: the snapshot dies, and its tree with it.
  pinned.reset();
  EXPECT_TRUE(watch.expired()) << "no hidden reference keeps a retired snapshot alive";
  EXPECT_TRUE(tree.expired()) << "the retired epoch's kd-tree was freed with it";
}

}  // namespace
