// The batched serving layer: result parity with sequential execution, the
// small/large work-division policy, per-slot steady-state arena behaviour,
// per-slot ArtifactCaches, and exception isolation.

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <thread>

#include "pandora/data/point_generators.hpp"
#include "pandora/dendrogram/pandora.hpp"
#include "pandora/serve/batch_executor.hpp"
#include "test_helpers.hpp"

namespace {

using namespace pandora;
using pandora::testing::Topology;
using pandora::testing::make_tree;

std::vector<graph::EdgeList> make_batch_trees(index_t num_vertices, std::size_t count) {
  std::vector<graph::EdgeList> trees;
  trees.reserve(count);
  for (std::size_t i = 0; i < count; ++i)
    trees.push_back(make_tree(Topology::random_attach, num_vertices, 100 + i, 0));
  return trees;
}

TEST(BatchExecutor, BatchedDendrogramsMatchSequential) {
  const exec::Executor parent(exec::default_backend(), 4);
  serve::BatchExecutor batch(parent, {.num_slots = 4});

  // Mixed sizes straddling the small/large threshold, so both phases of the
  // scheduler run.
  std::vector<graph::EdgeList> trees;
  std::vector<index_t> sizes = {500, 40000, 1200, 800, 40000, 2000};
  for (std::size_t i = 0; i < sizes.size(); ++i)
    trees.push_back(make_tree(Topology::preferential, sizes[i], 7 * i + 1, i % 2 ? 5 : 0));
  ASSERT_GT(static_cast<size_type>(trees[1].size()), batch.options().small_query_threshold);
  ASSERT_LT(static_cast<size_type>(trees[0].size()), batch.options().small_query_threshold);

  std::vector<serve::DendrogramQuery> queries;
  for (std::size_t i = 0; i < trees.size(); ++i)
    queries.push_back({&trees[i], sizes[i], {}});

  const std::vector<dendrogram::Dendrogram> batched = batch.build_dendrograms(queries);

  // Sequential reference on an independent executor.
  const exec::Executor reference(exec::default_backend(), 4);
  ASSERT_EQ(batched.size(), queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const dendrogram::Dendrogram expected =
        dendrogram::pandora_dendrogram(reference, trees[i], sizes[i]);
    EXPECT_EQ(batched[i].parent, expected.parent) << "query " << i;
    EXPECT_EQ(batched[i].weight, expected.weight) << "query " << i;
    EXPECT_EQ(batched[i].edge_order, expected.edge_order) << "query " << i;
  }
}

TEST(BatchExecutor, BatchedHdbscanMatchesSequential) {
  const exec::Executor parent(exec::default_backend(), 4);
  serve::BatchExecutor batch(parent);

  std::vector<spatial::PointSet> point_sets;
  for (unsigned seed = 0; seed < 4; ++seed)
    point_sets.push_back(data::gaussian_blobs(400, 2, 3, 0.03, 0.2, seed));

  std::vector<serve::HdbscanQuery> queries;
  for (auto& points : point_sets) {
    hdbscan::HdbscanOptions options;
    options.min_pts = 4;
    options.min_cluster_size = 10;
    queries.push_back({&points, options});
  }
  const std::vector<hdbscan::HdbscanResult> batched = batch.run_hdbscan(queries);

  const exec::Executor reference(exec::default_backend(), 4);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const hdbscan::HdbscanResult expected =
        hdbscan::hdbscan(reference, point_sets[i], queries[i].options);
    EXPECT_EQ(batched[i].labels, expected.labels) << "query " << i;
    EXPECT_EQ(batched[i].num_clusters, expected.num_clusters) << "query " << i;
    EXPECT_EQ(batched[i].dendrogram.parent, expected.dendrogram.parent) << "query " << i;
  }
}

TEST(BatchExecutor, SlotArenasReachSteadyState) {
  const exec::Executor parent(exec::default_backend(), 4);
  serve::BatchExecutor batch(parent, {.num_slots = 4});
  // Caching off so every batch re-sorts through the slot arenas (with it on,
  // the second batch would hit the SortedEdges cache and lease nothing).
  parent.set_artifact_caching(false);

  // Same-shaped queries: once a slot has processed one, its arena holds
  // blocks of every size class the shape needs.  The dynamic queue means a
  // slot may sit out early batches (and so still miss later), so the
  // guarantee is *convergence*: within a few batches, a whole batch leases
  // everything from recycled per-slot blocks.
  const std::vector<graph::EdgeList> trees = make_batch_trees(4000, 8);
  std::vector<serve::DendrogramQuery> queries;
  for (const auto& tree : trees) queries.push_back({&tree, 4000, {}});

  const auto total_misses = [&] {
    std::size_t misses = 0;
    for (int s = 0; s < batch.num_slots(); ++s)
      misses += batch.slot(s).workspace().stats().misses;
    return misses;
  };

  std::vector<dendrogram::Dendrogram> out;
  batch.build_dendrograms_into(queries, out);  // cold batch
  std::size_t previous = total_misses();
  bool steady = false;
  for (int round = 0; round < 20 && !steady; ++round) {
    batch.build_dendrograms_into(queries, out);
    const std::size_t now = total_misses();
    steady = now == previous;
    previous = now;
  }
  EXPECT_TRUE(steady)
      << "warm batches of same-shaped queries must stop allocating: every "
         "slot leases its scratch from recycled arena blocks";
}

TEST(BatchExecutor, SlotsCacheInTheirOwnArtifactCaches) {
  const exec::Executor parent(exec::default_backend(), 4);
  serve::BatchExecutor batch(parent, {.num_slots = 4});

  const graph::EdgeList tree = make_tree(Topology::random_attach, 3000, 42, 0);
  // Warm the parent cache, then batch N identical small queries: they run on
  // the slots, which never look into the parent's cache.
  (void)dendrogram::sorted_edges_cached(parent, tree, 3000);
  const auto warm_stats = parent.artifact_cache().stats();

  std::vector<serve::DendrogramQuery> queries(8, serve::DendrogramQuery{&tree, 3000, {}});
  const std::vector<dendrogram::Dendrogram> results = batch.build_dendrograms(queries);
  const auto stats = parent.artifact_cache().stats();
  EXPECT_EQ(stats.hits, warm_stats.hits);
  EXPECT_EQ(stats.misses, warm_stats.misses);
  const dendrogram::Dendrogram expected = dendrogram::pandora_dendrogram(parent, tree, 3000);
  for (const auto& d : results) EXPECT_EQ(d.parent, expected.parent);
}

TEST(BatchExecutor, OverlappedAndSequentialPhasesAgree) {
  // A mixed batch whose large drain overlaps the small one must match
  // direct one-at-a-time construction, and the large jobs must be able to
  // run while small jobs are still in flight (observed via a latch the small
  // jobs only release after a large job ran).
  const exec::Executor parent(exec::default_backend(), 4);
  std::vector<graph::EdgeList> trees;
  std::vector<index_t> sizes = {600, 30000, 900, 700, 30000, 1100};
  for (std::size_t i = 0; i < sizes.size(); ++i)
    trees.push_back(make_tree(Topology::random_attach, sizes[i], 11 * i + 3, 0));
  std::vector<serve::DendrogramQuery> queries;
  for (std::size_t i = 0; i < trees.size(); ++i) queries.push_back({&trees[i], sizes[i], {}});

  serve::BatchOptions overlapped_options;
  overlapped_options.num_slots = 2;
  overlapped_options.small_query_threshold = 2000;

  serve::BatchExecutor overlapped(parent, overlapped_options);
  const auto via_overlap = overlapped.build_dendrograms(queries);
  const exec::Executor reference(exec::default_backend(), 4);
  ASSERT_EQ(via_overlap.size(), queries.size());
  for (std::size_t i = 0; i < via_overlap.size(); ++i) {
    const dendrogram::Dendrogram expected =
        dendrogram::pandora_dendrogram(reference, trees[i], sizes[i]);
    EXPECT_EQ(via_overlap[i].parent, expected.parent) << "query " << i;
    EXPECT_EQ(via_overlap[i].weight, expected.weight) << "query " << i;
  }

  // Concurrency witness: a small job blocks until the large phase has
  // started — only the overlapped scheduler can finish this batch.
  std::atomic<bool> large_started{false};
  std::vector<serve::BatchExecutor::Job> jobs;
  jobs.push_back({[&](const exec::Executor&) {
                    while (!large_started.load()) std::this_thread::yield();
                  },
                  /*size_hint=*/16});
  jobs.push_back({[&](const exec::Executor&) { large_started.store(true); },
                  /*size_hint=*/100000});
  serve::BatchExecutor witness(parent, overlapped_options);
  witness.run(jobs);  // would deadlock without phase overlap
  EXPECT_TRUE(large_started.load());
}

TEST(BatchExecutor, ExceptionsAreIsolatedAndRethrown) {
  const exec::Executor parent(exec::default_backend(), 2);
  serve::BatchExecutor batch(parent, {.num_slots = 2});

  std::atomic<int> completed{0};
  std::vector<serve::BatchExecutor::Job> jobs;
  for (int i = 0; i < 6; ++i) {
    jobs.push_back({[i, &completed](const exec::Executor&) {
                      if (i == 2) throw std::runtime_error("poisoned query");
                      completed.fetch_add(1);
                    },
                    /*size_hint=*/16});
  }
  EXPECT_THROW(batch.run(jobs), std::runtime_error);
  EXPECT_EQ(completed.load(), 5) << "one poisoned query must not abort its batchmates";
}

}  // namespace
