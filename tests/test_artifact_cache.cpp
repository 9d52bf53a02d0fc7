// The ArtifactCache under concurrency: the locking contract that lets batch
// slot executors share one cache — plus slot sizing, LRU order and the
// shared-cache installation on Executor.  The stress tests are what the CI
// ThreadSanitizer matrix entry race-checks.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "pandora/exec/executor.hpp"
#include "pandora/exec/fingerprint.hpp"

namespace {

using namespace pandora;
using exec::ArtifactCache;

/// A self-describing artifact: its payload is its own fingerprint, so any
/// cross-keyed read is detectable.
struct Tagged {
  std::uint64_t fingerprint;
};

TEST(ArtifactCache, LruEvictsTheLeastRecentlyTouched) {
  ArtifactCache cache(/*slots=*/2);
  cache.insert<Tagged>(1, std::make_shared<Tagged>(Tagged{1}));
  cache.insert<Tagged>(2, std::make_shared<Tagged>(Tagged{2}));
  ASSERT_NE(cache.find<Tagged>(1), nullptr);  // touch 1: 2 becomes LRU
  cache.insert<Tagged>(3, std::make_shared<Tagged>(Tagged{3}));
  EXPECT_EQ(cache.find<Tagged>(2), nullptr) << "2 was least recently used";
  EXPECT_NE(cache.find<Tagged>(1), nullptr);
  EXPECT_NE(cache.find<Tagged>(3), nullptr);
}

TEST(ArtifactCache, InsertReplacesMatchingEntryInPlace) {
  // A stale value re-inserted under its key must supersede the old entry,
  // not shadow it behind a duplicate (the spatial caches' points-identity
  // check depends on this to heal stale entries).
  ArtifactCache cache(/*slots=*/4);
  cache.insert<Tagged>(9, std::make_shared<Tagged>(Tagged{1}));
  cache.insert<Tagged>(10, std::make_shared<Tagged>(Tagged{10}));
  cache.insert<Tagged>(9, std::make_shared<Tagged>(Tagged{2}));
  const auto hit = cache.find<Tagged>(9);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->fingerprint, 2u) << "the re-insert replaced the old value";
  // Only one slot is occupied by key 9: two more inserts still fit without
  // evicting key 10.
  cache.insert<Tagged>(11, std::make_shared<Tagged>(Tagged{11}));
  cache.insert<Tagged>(12, std::make_shared<Tagged>(Tagged{12}));
  EXPECT_NE(cache.find<Tagged>(10), nullptr);
}

TEST(ArtifactCache, TypeIsPartOfTheKey) {
  struct OtherType {
    int x;
  };
  ArtifactCache cache;
  cache.insert<Tagged>(7, std::make_shared<Tagged>(Tagged{7}));
  EXPECT_EQ(cache.find<OtherType>(7), nullptr)
      << "same fingerprint, different type must miss";
  EXPECT_NE(cache.find<Tagged>(7), nullptr);
}

TEST(ArtifactCache, HitsKeepEvictedValuesAlive) {
  ArtifactCache cache(/*slots=*/1);
  cache.insert<Tagged>(1, std::make_shared<Tagged>(Tagged{1}));
  const std::shared_ptr<Tagged> held = cache.find<Tagged>(1);
  cache.insert<Tagged>(2, std::make_shared<Tagged>(Tagged{2}));  // evicts 1
  ASSERT_NE(held, nullptr);
  EXPECT_EQ(held->fingerprint, 1u) << "a returned shared_ptr owns the value";
}

TEST(ArtifactCache, ConcurrentFindInsertStress) {
  // Hammer one cache from many threads with overlapping fingerprints.  Under
  // -fsanitize=thread this is the race check for the batch serving layer;
  // without it, it still asserts the contract: a find never returns a value
  // whose payload disagrees with the queried fingerprint.
  ArtifactCache cache(/*slots=*/4);
  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 4000;
  constexpr std::uint64_t kKeySpace = 16;  // 4x the slots: constant eviction

  std::vector<std::thread> pool;
  std::vector<int> mismatches(kThreads, 0);
  pool.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&, t] {
      std::uint64_t state = 0x9e3779b97f4a7c15ULL * static_cast<std::uint64_t>(t + 1);
      for (int op = 0; op < kOpsPerThread; ++op) {
        state = exec::mix_fingerprint(state + 1);
        const std::uint64_t key = state % kKeySpace;
        if (state & 1) {
          cache.insert<Tagged>(key, std::make_shared<Tagged>(Tagged{key}));
        } else if (const std::shared_ptr<Tagged> hit = cache.find<Tagged>(key)) {
          if (hit->fingerprint != key) ++mismatches[static_cast<std::size_t>(t)];
        }
      }
    });
  }
  for (std::thread& thread : pool) thread.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(mismatches[static_cast<std::size_t>(t)], 0);
  const auto stats = cache.stats();
  EXPECT_GT(stats.hits + stats.misses, 0u);
}

TEST(ArtifactCache, ConcurrentClearIsSafe) {
  ArtifactCache cache(/*slots=*/4);
  std::vector<std::thread> pool;
  for (int t = 0; t < 4; ++t) {
    pool.emplace_back([&, t] {
      for (int op = 0; op < 2000; ++op) {
        const auto key = static_cast<std::uint64_t>(op % 8);
        switch ((op + t) % 3) {
          case 0: cache.insert<Tagged>(key, std::make_shared<Tagged>(Tagged{key})); break;
          case 1: (void)cache.find<Tagged>(key); break;
          default: cache.clear(); break;
        }
      }
    });
  }
  for (std::thread& thread : pool) thread.join();
}

TEST(ArtifactCache, StatsCountHitsMissesEvictionsButNotInPlaceReplacement) {
  ArtifactCache cache(/*slots=*/2);
  cache.insert<Tagged>(1, std::make_shared<Tagged>(Tagged{1}));
  EXPECT_NE(cache.find<Tagged>(1), nullptr);  // hit
  EXPECT_EQ(cache.find<Tagged>(2), nullptr);  // miss
  cache.insert<Tagged>(2, std::make_shared<Tagged>(Tagged{2}));  // empty slot
  cache.insert<Tagged>(3, std::make_shared<Tagged>(Tagged{3}));  // displaces 1

  auto stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.evictions, 1u);

  // Replacing a (fingerprint, type) match in place supersedes a stale value;
  // nothing was displaced by a *different* key, so it is not an eviction.
  cache.insert<Tagged>(3, std::make_shared<Tagged>(Tagged{3}));
  EXPECT_EQ(cache.stats().evictions, 1u);

  cache.reset_stats();
  stats = cache.stats();
  EXPECT_EQ(stats.hits + stats.misses + stats.evictions, 0u);
}

TEST(Executor, EachExecutorOwnsItsArtifactCache) {
  const exec::Executor parent(exec::serial_backend());
  const exec::Executor worker(exec::serial_backend());
  ASSERT_NE(&parent.artifact_cache(), &worker.artifact_cache());

  worker.artifact_cache().insert<Tagged>(5, std::make_shared<Tagged>(Tagged{5}));
  EXPECT_NE(worker.artifact_cache().find<Tagged>(5), nullptr);
  EXPECT_EQ(parent.artifact_cache().find<Tagged>(5), nullptr)
      << "another executor's cache was never written";
}

}  // namespace
