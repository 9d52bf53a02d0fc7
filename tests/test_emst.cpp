#include <gtest/gtest.h>

#include <algorithm>

#include "pandora/common/rng.hpp"
#include "pandora/data/point_generators.hpp"
#include "pandora/dendrogram/sorted_edges.hpp"
#include "pandora/graph/tree.hpp"
#include "pandora/graph/union_find.hpp"
#include "pandora/hdbscan/core_distance.hpp"
#include "pandora/spatial/brute_force.hpp"
#include "pandora/spatial/emst.hpp"

namespace {

using namespace pandora;
using graph::EdgeList;
using spatial::KdTree;
using spatial::PointSet;

double weight_of(const EdgeList& edges) { return graph::total_weight(edges); }

class EmstSweep : public ::testing::TestWithParam<std::tuple<int, index_t>> {};  // (dim, n)

INSTANTIATE_TEST_SUITE_P(Sweep, EmstSweep,
                         ::testing::Combine(::testing::Values(2, 3, 5),
                                            ::testing::Values<index_t>(2, 10, 100, 400)));

TEST_P(EmstSweep, EuclideanMstMatchesBruteForceWeight) {
  const auto& [dim, n] = GetParam();
  for (std::uint64_t seed = 0; seed < 3; ++seed) {
    const PointSet points = data::uniform_points(n, dim, seed * 31 + 5);
    const EdgeList expected = spatial::brute_force_emst(points);
    for (const auto& space : exec::registered_backends()) {
      KdTree tree(points);
      const EdgeList got = spatial::euclidean_mst(exec::default_executor(space), points, tree);
      ASSERT_TRUE(graph::is_spanning_tree(got, n));
      ASSERT_NEAR(weight_of(got), weight_of(expected), 1e-9 * std::max(1.0, weight_of(expected)))
          << "dim=" << dim << " n=" << n << " seed=" << seed;
    }
  }
}

TEST_P(EmstSweep, MutualReachabilityMstMatchesBruteForce) {
  const auto& [dim, n] = GetParam();
  if (n < 10) GTEST_SKIP() << "core distances need a few points";
  const PointSet points = data::gaussian_blobs(n, dim, 4, 0.08, 0.1, 77);
  KdTree tree(points);
  const auto core = hdbscan::core_distances(exec::default_executor(), points, tree, 4);
  const EdgeList expected = spatial::brute_force_mreach_mst(points, core);
  const EdgeList got = spatial::mutual_reachability_mst(exec::default_executor(), points, tree, core);
  ASSERT_TRUE(graph::is_spanning_tree(got, n));
  EXPECT_NEAR(weight_of(got), weight_of(expected), 1e-9 * std::max(1.0, weight_of(expected)));
}

TEST(Emst, DeterministicAcrossSpacesAndRepeats) {
  const PointSet points = data::power_law_blobs(3000, 2, 20, 1.2, 3);
  KdTree tree_a(points);
  const EdgeList first = spatial::euclidean_mst(exec::default_executor(), points, tree_a);
  for (int repeat = 0; repeat < 2; ++repeat) {
    for (const auto& space : exec::registered_backends()) {
      KdTree tree(points);
      const EdgeList again = spatial::euclidean_mst(exec::default_executor(space), points, tree);
      ASSERT_EQ(again.size(), first.size());
      for (std::size_t i = 0; i < first.size(); ++i) {
        ASSERT_EQ(again[i].u, first[i].u) << i;
        ASSERT_EQ(again[i].v, first[i].v) << i;
        ASSERT_DOUBLE_EQ(again[i].weight, first[i].weight) << i;
      }
    }
  }
}

TEST(Emst, ClusteredDataWithTiedDistances) {
  // A perfect grid has massive distance ties; the MST must still be a
  // spanning tree of exactly the right weight (n-1 unit edges).
  const int side = 20;
  PointSet points(2, side * side);
  for (int x = 0; x < side; ++x)
    for (int y = 0; y < side; ++y) {
      points.at(x * side + y, 0) = x;
      points.at(x * side + y, 1) = y;
    }
  KdTree tree(points);
  const EdgeList mst = spatial::euclidean_mst(exec::default_executor(), points, tree);
  ASSERT_TRUE(graph::is_spanning_tree(mst, side * side));
  EXPECT_NEAR(weight_of(mst), side * side - 1, 1e-9);
}

TEST(Emst, JoinComponentsRestoresTheFullEmst) {
  // Split the true EMST into components by dropping random edges; the
  // component-restricted Borůvka entry must re-join them with exactly the
  // dropped weight (the survivors are a sub-forest of the EMST, so survivors
  // plus the joining edges must BE an EMST).
  const PointSet points = data::power_law_blobs(800, 2, 8, 1.3, 9);
  KdTree tree(points);
  const exec::Executor executor(exec::default_backend());
  const EdgeList full = spatial::euclidean_mst(executor, points, tree);

  Rng rng(5);
  for (const std::size_t drops : {std::size_t{1}, std::size_t{25}, full.size()}) {
    std::vector<char> dropped(full.size(), 0);
    for (std::size_t k = 0; k < drops; ++k) dropped[rng.next_below(full.size())] = 1;

    graph::ConcurrentUnionFind uf(points.size());
    EdgeList survivors;
    for (std::size_t i = 0; i < full.size(); ++i) {
      if (dropped[i]) continue;
      survivors.push_back(full[i]);
      uf.unite(full[i].u, full[i].v);
    }
    const EdgeList joined = spatial::join_components_emst(executor, points, tree, uf);
    EdgeList rejoined = survivors;
    rejoined.insert(rejoined.end(), joined.begin(), joined.end());
    ASSERT_TRUE(graph::is_spanning_tree(rejoined, points.size()));
    EXPECT_NEAR(weight_of(rejoined), weight_of(full), 1e-9 * std::max(1.0, weight_of(full)))
        << drops << " dropped edges";
  }

  // Degenerate seed: already one component — nothing to join.
  graph::ConcurrentUnionFind united(points.size());
  for (const auto& e : full) united.unite(e.u, e.v);
  EXPECT_TRUE(spatial::join_components_emst(executor, points, tree, united).empty());
}

TEST(Emst, MinPtsOneReducesMreachToEuclidean) {
  const PointSet points = data::uniform_points(300, 3, 8);
  KdTree tree(points);
  const auto core = hdbscan::core_distances(exec::default_executor(exec::serial_backend()), points, tree, 1);
  EXPECT_TRUE(std::all_of(core.begin(), core.end(), [](double c) { return c == 0.0; }));
  KdTree tree2(points);
  const EdgeList euclid = spatial::euclidean_mst(exec::default_executor(exec::serial_backend()), points, tree2);
  KdTree tree3(points);
  const EdgeList mreach = spatial::mutual_reachability_mst(exec::default_executor(exec::serial_backend()), points, tree3, core);
  EXPECT_NEAR(weight_of(euclid), weight_of(mreach), 1e-9);
}

TEST(Emst, LargerMinPtsGivesHeavierMst) {
  // Mutual reachability distances dominate Euclidean ones and grow with
  // minPts, so the MST weight must be monotone in minPts.
  const PointSet points = data::gaussian_blobs(500, 2, 6, 0.04, 0.05, 21);
  double previous = 0.0;
  for (const int min_pts : {1, 2, 4, 8, 16}) {
    KdTree tree(points);
    const auto core = hdbscan::core_distances(exec::default_executor(), points, tree, min_pts);
    const EdgeList mst = spatial::mutual_reachability_mst(exec::default_executor(), points, tree, core);
    const double w = weight_of(mst);
    EXPECT_GE(w, previous - 1e-12) << "minPts=" << min_pts;
    previous = w;
  }
}

/// A 24x24 integer grid with every fifth point duplicated: the densest case
/// for equal distances and equal core distances, i.e. for candidates that
/// tie a Borůvka query's radius.
PointSet tie_heavy_grid() {
  constexpr index_t kSide = 24;
  constexpr index_t kBase = kSide * kSide;
  constexpr index_t kDuplicates = kBase / 5;
  PointSet points(2, kBase + kDuplicates);
  for (index_t i = 0; i < kBase; ++i) {
    points.at(i, 0) = static_cast<double>(i / kSide);
    points.at(i, 1) = static_cast<double>(i % kSide);
  }
  for (index_t j = 0; j < kDuplicates; ++j)
    for (int d = 0; d < 2; ++d) points.at(kBase + j, d) = points.at(5 * j, d);
  return points;
}

/// Fingerprints (edge order, endpoints, weight bits) of the MSTs the golden
/// test pins: mutual-reachability MSTs at mpts 2, 5, 9 on a HaccProxy set
/// and on the tie-heavy grid, then one seeded component join.
std::vector<std::uint64_t> mst_fingerprints(const exec::Executor& exec) {
  std::vector<std::uint64_t> out;
  for (const PointSet& points : {data::make_dataset("HaccProxy", 3000, 17), tie_heavy_grid()}) {
    const KdTree tree(points);
    for (const int min_pts : {2, 5, 9}) {
      const auto core = hdbscan::core_distances(exec, points, tree, min_pts);
      const EdgeList mst = spatial::mutual_reachability_mst(exec, points, tree, core);
      out.push_back(dendrogram::mst_fingerprint(exec, mst, points.size()));
    }
  }
  // Seeded join: the EMST minus 40 random edges, re-joined.
  const PointSet points = data::power_law_blobs(1500, 2, 8, 1.3, 4);
  const KdTree tree(points);
  const EdgeList full = spatial::euclidean_mst(exec, points, tree);
  Rng rng(23);
  std::vector<char> dropped(full.size(), 0);
  for (int k = 0; k < 40; ++k) dropped[rng.next_below(full.size())] = 1;
  graph::ConcurrentUnionFind uf(points.size());
  for (std::size_t i = 0; i < full.size(); ++i)
    if (!dropped[i]) uf.unite(full[i].u, full[i].v);
  const EdgeList joined = spatial::join_components_emst(exec, points, tree, uf);
  out.push_back(dendrogram::mst_fingerprint(exec, joined, points.size()));
  return out;
}

TEST(Emst, BoundedBoruvkaMatchesGoldenFingerprints) {
  // Recorded from the unbounded Borůvka (every stale point queried with no
  // radius, in point-id order).  Radius-bounded queries must select the
  // very same edges, in the same order, with the same weight bits.
  const std::vector<std::uint64_t> golden = {
      0xda92bc4ae2fea210ULL, 0x581de19f1dac17f1ULL, 0x99f9ef4c71382c59ULL,  // HaccProxy
      0x0ee362d94baba353ULL, 0x5d49aa9867535577ULL, 0x1c2070eef0ef71a9ULL,  // tie-heavy grid
      0xaaceca68e479affdULL,                                                // seeded join
  };
  for (const auto& backend : exec::registered_backends()) {
    for (int repeat = 0; repeat < 3; ++repeat) {
      const std::vector<std::uint64_t> got = mst_fingerprints(exec::default_executor(backend));
      ASSERT_EQ(got.size(), golden.size());
      for (std::size_t i = 0; i < got.size(); ++i)
        EXPECT_EQ(got[i], golden[i]) << "case " << i << " on " << backend->name() << ": 0x"
                                     << std::hex << got[i];
    }
  }
}

TEST(Emst, TieHeavyGridMreachWeightMatchesBruteForce) {
  // Ties at a query's radius are densest here: a radius prune that were not
  // strict, or a sentinel that lost ties, would drop a minimum edge.
  const PointSet points = tie_heavy_grid();
  const KdTree tree(points);
  for (const auto& backend : exec::registered_backends()) {
    const exec::Executor& executor = exec::default_executor(backend);
    const auto core = hdbscan::core_distances(executor, points, tree, 9);
    const EdgeList expected = spatial::brute_force_mreach_mst(points, core);
    const EdgeList got = spatial::mutual_reachability_mst(executor, points, tree, core);
    ASSERT_TRUE(graph::is_spanning_tree(got, points.size()));
    EXPECT_NEAR(weight_of(got), weight_of(expected), 1e-9 * weight_of(expected))
        << backend->name();
  }
}

}  // namespace
