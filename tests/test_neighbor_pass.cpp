// One neighbour pass per snapshot and per mpts sweep (hdbscan::NeighborPass,
// hdbscan::SharedNeighborPass): the number of kNN passes a sweep or a
// snapshot's readers run (`pandora_knn_passes_total`), and bit-identity of
// every result with a per-value cold `hdbscan()` call — core distances, MST
// edges in order, dendrogram parents and labels — on the serial backend and
// on openmp at 4 threads, over unsorted and repeated sweep values, inputs
// smaller than the neighbour count, and duplicate points with exact
// distance ties.

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "pandora/data/point_generators.hpp"
#include "pandora/hdbscan/core_distance.hpp"
#include "pandora/hdbscan/hdbscan.hpp"
#include "pandora/obs/metrics.hpp"
#include "pandora/snapshot/published_clustering.hpp"
#include "pandora/spatial/kdtree.hpp"
#include "test_helpers.hpp"

namespace {

using namespace pandora;

std::uint64_t knn_passes() {
  return obs::registry().counter_value("pandora_knn_passes_total");
}

/// The executors every check runs on: the serial reference and openmp at 4
/// threads.
std::vector<std::shared_ptr<const exec::Executor>> executors() {
  return {std::make_shared<const exec::Executor>(exec::serial_backend()),
          std::make_shared<const exec::Executor>(exec::openmp_backend(), 4)};
}

std::string where(const exec::Executor& exec, const std::string& input, int min_pts) {
  return std::string(exec.backend().name()) + " " + input + " mpts=" + std::to_string(min_pts);
}

/// Blobs snapped to a 1/64 grid, with every seventh point a copy of another:
/// duplicate points and exact distance ties among core distances and MST
/// edge weights.
spatial::PointSet tied_blobs(index_t n, std::uint64_t seed) {
  spatial::PointSet points = data::gaussian_blobs(n, 2, 4, 0.04, 0.1, seed);
  for (index_t i = 0; i < n; ++i)
    for (int d = 0; d < 2; ++d) points.at(i, d) = std::round(points.at(i, d) * 64.0) / 64.0;
  for (index_t i = 7; i < n; i += 7)
    for (int d = 0; d < 2; ++d) points.at(i, d) = points.at(i / 2, d);
  return points;
}

hdbscan::HdbscanOptions at(int min_pts) {
  hdbscan::HdbscanOptions options;
  options.min_pts = min_pts;
  options.min_cluster_size = 5;
  return options;
}

/// A per-value cold run: artifact caching off, its own kNN pass.
hdbscan::HdbscanResult cold_run(const exec::Executor& like, const spatial::PointSet& points,
                                int min_pts) {
  const exec::Executor cold(like.backend_ptr(), like.num_threads());
  cold.set_artifact_caching(false);
  return hdbscan::hdbscan(cold, points, at(min_pts));
}

void expect_same(const hdbscan::HdbscanResult& got, const hdbscan::HdbscanResult& want,
                 const std::string& what) {
  EXPECT_EQ(got.core_distances, want.core_distances) << what;
  EXPECT_EQ(got.mst, want.mst) << what;
  EXPECT_EQ(got.dendrogram.parent, want.dendrogram.parent) << what;
  EXPECT_EQ(got.labels, want.labels) << what;
}

TEST(NeighborPass, ServesEveryMinPtsUpToItsListLength) {
  const spatial::PointSet points = data::gaussian_blobs(400, 2, 3, 0.05, 0.1, 3);
  const exec::Executor executor(exec::serial_backend());
  const spatial::KdTree tree(executor, points);
  // mpts 2 fetches the floor-length list (6 entries): it serves mpts <= 7.
  const hdbscan::NeighborPass pass(executor, tree, 2);
  EXPECT_EQ(pass.lists().length, spatial::kMinListLength);
  for (int min_pts = 1; min_pts <= 9; ++min_pts) {
    EXPECT_EQ(pass.serves(min_pts), min_pts <= 7) << "mpts=" << min_pts;
    if (!pass.serves(min_pts)) continue;
    EXPECT_EQ(pass.core_distances(executor, min_pts),
              hdbscan::core_distances(executor, points, tree, min_pts))
        << "mpts=" << min_pts;
  }
  // Two points: every mpts asks for at most the one other point.
  const spatial::PointSet pair = data::gaussian_blobs(2, 2, 1, 0.05, 0.1, 4);
  const spatial::KdTree pair_tree(executor, pair);
  EXPECT_TRUE(hdbscan::NeighborPass(executor, pair_tree, 2).serves(16));
}

TEST(NeighborPass, MptsSweepRunsOneKnnPass) {
  const spatial::PointSet points = data::gaussian_blobs(1500, 2, 4, 0.04, 0.1, 5);
  const std::array<int, 8> values = {2, 3, 4, 5, 6, 7, 8, 9};
  for (const bool caching : {true, false}) {
    const exec::Executor executor(exec::openmp_backend(), 4);
    executor.set_artifact_caching(caching);
    std::uint64_t before = knn_passes();
    const auto by_points = hdbscan::hdbscan_sweep_min_pts(executor, points, values);
    EXPECT_EQ(knn_passes() - before, 1u) << "points overload, caching " << caching;

    const spatial::KdTree tree(executor, points);
    hdbscan::SharedNeighborPass passes;
    before = knn_passes();
    const auto by_tree = hdbscan::hdbscan_sweep_min_pts(executor, tree, passes, values);
    EXPECT_EQ(knn_passes() - before, 1u) << "tree overload, caching " << caching;
    // The store keeps the sweep's pass: a later query at any swept mpts
    // runs none.
    before = knn_passes();
    expect_same(hdbscan::hdbscan(executor, tree, passes, at(9)), by_tree.back(),
                where(executor, "blobs, after the sweep", 9));
    EXPECT_EQ(knn_passes() - before, 0u) << "caching " << caching;
    ASSERT_EQ(by_points.size(), values.size());
    ASSERT_EQ(by_tree.size(), values.size());
    for (std::size_t i = 0; i < values.size(); ++i) {
      // The first value's query computes the pass and reports it; no sweep
      // result carries a tree build.
      EXPECT_GT(by_tree[i].times.all().count("core_distance"), 0u);
      EXPECT_EQ(by_points[i].times.all().count("tree_build"), 0u);
      expect_same(by_points[i], by_tree[i], where(executor, "blobs", values[i]));
    }
  }
}

TEST(NeighborPass, RepeatedCachingSweepReplaysEmstAndSortedEdges) {
  const spatial::PointSet points = data::gaussian_blobs(1200, 2, 4, 0.04, 0.1, 12);
  const std::array<int, 3> values = {2, 5, 9};
  const exec::Executor executor(exec::openmp_backend(), 4);
  const auto first = hdbscan::hdbscan_sweep_min_pts(executor, points, values);

  const auto before = executor.artifact_cache().stats();
  const std::uint64_t passes_before = knn_passes();
  const auto again = hdbscan::hdbscan_sweep_min_pts(executor, points, values);
  const auto after = executor.artifact_cache().stats();
  EXPECT_EQ(knn_passes() - passes_before, 1u) << "the core distances still come from one pass";
  EXPECT_GE(after.hits - before.hits, 1u + 2u * values.size())
      << "the kd-tree, and every value's EMST and sorted edges, replay";
  EXPECT_EQ(after.misses, before.misses) << "a warm sweep builds no EMST and sorts nothing";
  ASSERT_EQ(again.size(), values.size());
  for (std::size_t i = 0; i < values.size(); ++i)
    expect_same(again[i], first[i], where(executor, "repeated sweep", values[i]));
}

TEST(NeighborPass, SweepsMatchPerValueColdRuns) {
  // Unsorted and repeated values, and mpts = 1 (no kNN at all).
  const std::array<int, 6> values = {9, 2, 1, 4, 4, 16};
  const std::vector<std::pair<std::string, spatial::PointSet>> inputs = {
      {"tied_blobs", tied_blobs(900, 6)}, {"tie_heavy_grid", pandora::testing::tie_heavy_grid()}};
  for (const auto& executor : executors()) {
    for (const auto& [name, points] : inputs) {
      std::uint64_t before = knn_passes();
      const auto by_points = hdbscan::hdbscan_sweep_min_pts(*executor, points, values);
      EXPECT_EQ(knn_passes() - before, 1u) << name;
      const spatial::KdTree tree(*executor, points);
      hdbscan::SharedNeighborPass passes;
      before = knn_passes();
      const auto by_tree = hdbscan::hdbscan_sweep_min_pts(*executor, tree, passes, values);
      EXPECT_EQ(knn_passes() - before, 1u) << name;
      ASSERT_EQ(by_points.size(), values.size());
      ASSERT_EQ(by_tree.size(), values.size());
      for (std::size_t i = 0; i < values.size(); ++i) {
        const hdbscan::HdbscanResult want = cold_run(*executor, points, values[i]);
        expect_same(by_points[i], want, where(*executor, name, values[i]));
        expect_same(by_tree[i], want, where(*executor, name, values[i]) + " (tree)");
      }
    }
  }
}

TEST(NeighborPass, TinyInputsWithFewerPointsThanNeighbours) {
  const std::array<int, 6> values = {9, 2, 1, 4, 4, 16};
  for (const auto& executor : executors()) {
    for (const index_t n : {1, 2, 5, 9}) {
      const spatial::PointSet points = data::gaussian_blobs(n, 2, 2, 0.05, 0.1, 70 + n);
      const std::string name = "n=" + std::to_string(n);
      const auto sweep = hdbscan::hdbscan_sweep_min_pts(*executor, points, values);
      ASSERT_EQ(sweep.size(), values.size());
      for (std::size_t i = 0; i < values.size(); ++i)
        expect_same(sweep[i], cold_run(*executor, points, values[i]),
                    where(*executor, name, values[i]));

      // A snapshot over the same points, queried value by value.
      const exec::Executor writer(exec::serial_backend());
      snapshot::PublishedClustering published(writer);
      published.insert(points);
      const snapshot::SnapshotPtr snap = published.acquire();
      for (const int min_pts : values)
        expect_same(snap->hdbscan(*executor, at(min_pts)),
                    cold_run(*executor, snap->points(), min_pts),
                    where(*executor, name + " snapshot", min_pts));
    }
  }
}

/// Queries one fresh snapshot at `order`, one mpts at a time; every result
/// must match a cold run.  Returns the kNN passes the queries ran.
std::uint64_t query_snapshot_in_order(const exec::Executor& reader,
                                      const std::vector<int>& order, const std::string& name) {
  const exec::Executor writer(exec::serial_backend());
  snapshot::PublishedClustering published(writer);
  published.insert(tied_blobs(1200, 8));
  const snapshot::SnapshotPtr snap = published.acquire();
  const std::uint64_t before = knn_passes();
  std::vector<hdbscan::HdbscanResult> results;
  for (const int min_pts : order) results.push_back(snap->hdbscan(reader, at(min_pts)));
  const std::uint64_t passes = knn_passes() - before;
  for (std::size_t i = 0; i < order.size(); ++i)
    expect_same(results[i], cold_run(reader, snap->points(), order[i]),
                where(reader, name, order[i]));
  return passes;
}

TEST(NeighborPass, SnapshotReadersShareTheLongestPass) {
  for (const auto& executor : executors()) {
    // Ascending: mpts 2 fetches lists of 6 (serving up to 7), then 8 and 9
    // each need a longer one.
    EXPECT_EQ(query_snapshot_in_order(*executor, {2, 3, 4, 5, 6, 7, 8, 9}, "ascending"), 3u);
    // Descending: the first pass serves every later query.
    EXPECT_EQ(query_snapshot_in_order(*executor, {9, 8, 7, 6, 5, 4, 3, 2}, "descending"), 1u);
    // Shuffled: 5 fetches lists of 6, 9 one of 8 that serves the rest.
    EXPECT_EQ(query_snapshot_in_order(*executor, {5, 9, 2, 7, 3, 8, 4, 6}, "shuffled"), 2u);
  }
}

TEST(NeighborPass, SnapshotSweepsTakeTheSnapshotPass) {
  const exec::Executor reader(exec::openmp_backend(), 4);
  const exec::Executor writer(exec::serial_backend());
  snapshot::PublishedClustering published(writer);
  published.insert(tied_blobs(1000, 9));
  const snapshot::SnapshotPtr snap = published.acquire();

  const std::array<int, 4> values = {3, 9, 2, 6};
  std::uint64_t before = knn_passes();
  const auto sweep = snap->sweep_min_pts(reader, values);
  EXPECT_EQ(knn_passes() - before, 1u) << "one pass at the sweep's largest value";
  for (std::size_t i = 0; i < values.size(); ++i)
    expect_same(sweep[i], cold_run(reader, snap->points(), values[i]),
                where(reader, "snapshot sweep", values[i]));

  // The snapshot kept the sweep's pass: later readers at any mpts <= 9, and
  // the min_cluster_size sweep, run no kNN pass of their own.
  before = knn_passes();
  const hdbscan::HdbscanResult later = snap->hdbscan(reader, at(5));
  const std::array<index_t, 2> sizes = {5, 12};
  const auto by_size = snap->sweep_min_cluster_size(reader, sizes, at(7));
  EXPECT_EQ(knn_passes() - before, 0u);
  expect_same(later, cold_run(reader, snap->points(), 5), where(reader, "after sweep", 5));
  const hdbscan::HdbscanResult want = cold_run(reader, snap->points(), 7);
  EXPECT_EQ(by_size.core_distances, want.core_distances);
  EXPECT_EQ(by_size.mst, want.mst);
  EXPECT_EQ(by_size.entries[0].labels, want.labels);
}

TEST(NeighborPass, RetiredSnapshotKeepsNoPass) {
  const exec::Executor reader(exec::serial_backend());
  const exec::Executor writer(exec::serial_backend());
  snapshot::PublishedClustering published(writer);
  published.insert(tied_blobs(800, 10));
  const snapshot::SnapshotPtr old = published.acquire();

  std::uint64_t before = knn_passes();
  const hdbscan::HdbscanResult first = old->hdbscan(reader, at(4));
  (void)old->hdbscan(reader, at(4));
  EXPECT_EQ(knn_passes() - before, 1u) << "the published snapshot keeps its pass";

  published.insert(tied_blobs(40, 11));  // retires `old`
  before = knn_passes();
  const hdbscan::HdbscanResult again = old->hdbscan(reader, at(4));
  (void)old->hdbscan(reader, at(4));
  EXPECT_EQ(knn_passes() - before, 2u) << "each query on a retired snapshot runs its own pass";
  expect_same(again, first, "retired snapshot");
  expect_same(again, cold_run(reader, old->points(), 4), "retired snapshot vs cold");

  // The successor keeps its own pass as usual.
  const snapshot::SnapshotPtr next = published.acquire();
  before = knn_passes();
  (void)next->hdbscan(reader, at(4));
  (void)next->hdbscan(reader, at(3));
  EXPECT_EQ(knn_passes() - before, 1u);
}

}  // namespace
