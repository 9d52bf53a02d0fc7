#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "pandora/data/point_generators.hpp"
#include "pandora/exec/fingerprint.hpp"
#include "pandora/spatial/brute_force.hpp"
#include "pandora/spatial/kdtree.hpp"
#include "pandora/spatial/knn.hpp"
#include "test_helpers.hpp"

namespace {

using namespace pandora;
using spatial::KdTree;
using spatial::Neighbor;
using spatial::PointSet;
using pandora::testing::by_rank;

class KnnSweep : public ::testing::TestWithParam<std::tuple<int, int>> {};  // (dim, k)

INSTANTIATE_TEST_SUITE_P(Sweep, KnnSweep,
                         ::testing::Combine(::testing::Values(1, 2, 3, 5, 7),
                                            ::testing::Values(1, 2, 8, 16)));

TEST_P(KnnSweep, MatchesBruteForce) {
  const auto& [dim, k] = GetParam();
  const PointSet points = data::uniform_points(400, dim, 17 + static_cast<unsigned>(dim));
  const KdTree tree(points);
  const pandora::testing::RankOf rank_of(tree);
  std::vector<Neighbor> got;
  for (index_t q = 0; q < points.size(); q += 7) {
    tree.knn(rank_of(q), k, got);
    const std::vector<Neighbor> expected = spatial::brute_force_knn(points, q, k);
    ASSERT_EQ(got.size(), expected.size()) << "q=" << q;
    for (std::size_t i = 0; i < got.size(); ++i) {
      ASSERT_DOUBLE_EQ(got[i].squared_distance, expected[i].squared_distance)
          << "q=" << q << " i=" << i;
      ASSERT_EQ(got[i].index, expected[i].index) << "q=" << q << " i=" << i;
    }
  }
}

TEST(KdTree, KnnWithDuplicatePointsIsDeterministic) {
  // Ten copies of each of 40 locations: distance ties everywhere; ties must
  // resolve by index.
  PointSet points(2, 400);
  Rng rng(3);
  for (index_t i = 0; i < 40; ++i) {
    const double x = rng.next_double(), y = rng.next_double();
    for (index_t c = 0; c < 10; ++c) {
      points.at(i * 10 + c, 0) = x;
      points.at(i * 10 + c, 1) = y;
    }
  }
  const KdTree tree(points);
  const pandora::testing::RankOf rank_of(tree);
  std::vector<Neighbor> got;
  for (index_t q = 0; q < points.size(); q += 13) {
    tree.knn(rank_of(q), 5, got);
    const auto expected = spatial::brute_force_knn(points, q, 5);
    for (std::size_t i = 0; i < got.size(); ++i) ASSERT_EQ(got[i].index, expected[i].index);
    // The nine colocated copies dominate the neighbour list.
    EXPECT_DOUBLE_EQ(got[0].squared_distance, 0.0);
  }
}

TEST(KdTree, KnnRequestLargerThanDataset) {
  const PointSet points = data::uniform_points(5, 3, 1);
  const KdTree tree(points);
  const pandora::testing::RankOf rank_of(tree);
  std::vector<Neighbor> got;
  tree.knn(rank_of(0), 100, got);
  EXPECT_EQ(got.size(), 4u);  // everything except the query itself
}

TEST(KdTree, NearestOtherComponentHonorsFilterAndAnnotation) {
  const PointSet points = data::uniform_points(500, 2, 5);
  const KdTree tree(points);
  const pandora::testing::RankOf rank_of(tree);
  // Components: left half-plane (0), right half-plane (1).
  std::vector<index_t> component(500);
  for (index_t i = 0; i < 500; ++i) component[static_cast<std::size_t>(i)] =
      points.at(i, 0) < 0.5 ? 0 : 1;
  const std::vector<index_t> ranked = by_rank(tree, component);
  spatial::KdTreeAnnotations notes;
  tree.annotate_components(exec::default_executor(exec::serial_backend()), ranked, notes);

  for (index_t q = 0; q < 500; q += 11) {
    const index_t mine = component[static_cast<std::size_t>(q)];
    const index_t rank = rank_of(q);
    const Neighbor got = tree.nearest_other_component(rank, mine, ranked, notes);
    // Brute force reference.
    Neighbor expected;
    for (index_t p = 0; p < 500; ++p) {
      if (component[static_cast<std::size_t>(p)] == mine) continue;
      const Neighbor cand{points.squared_distance(q, p), p};
      if (cand < expected) expected = cand;
    }
    ASSERT_EQ(got.index, expected.index) << "q=" << q;
    ASSERT_DOUBLE_EQ(got.squared_distance, expected.squared_distance);
    // Radius contract: a candidate tying the radius is kept; below it,
    // nothing is found.
    const double radius = expected.squared_distance;
    EXPECT_EQ(tree.nearest_other_component(rank, mine, ranked, notes, radius).index,
              expected.index);
    EXPECT_EQ(tree.nearest_other_component(rank, mine, ranked, notes,
                                           std::nextafter(radius, 0.0)).index,
              kNone);
  }
}

TEST(KdTree, CoordinateAndIndexedComponentQueriesAgreeUnderARadius) {
  // The coordinate overload answers like the indexed one from the same
  // point's coordinates, radius contract included: a candidate tying the
  // radius is found, and with the radius just below it nothing is (kNone).
  // A lattice makes most nearest distances exact ties.
  PointSet points(2, 400);
  for (index_t i = 0; i < 400; ++i) {
    points.at(i, 0) = static_cast<double>(i % 20);
    points.at(i, 1) = static_cast<double>(i / 20) * 1.5;
  }
  std::vector<index_t> component(400);
  for (index_t i = 0; i < 400; ++i) component[static_cast<std::size_t>(i)] = (i / 7) % 5;
  for (const auto& backend : {exec::serial_backend(), exec::openmp_backend()}) {
    const exec::Executor executor(backend);
    const KdTree tree(executor, points);
    const pandora::testing::RankOf rank_of(tree);
    const std::vector<index_t> ranked = by_rank(tree, component);
    spatial::KdTreeAnnotations notes;
    tree.annotate_components(executor, ranked, notes);
    for (index_t q = 0; q < 400; q += 3) {
      const index_t mine = component[static_cast<std::size_t>(q)];
      const Neighbor indexed = tree.nearest_other_component(rank_of(q), mine, ranked, notes);
      ASSERT_NE(indexed.index, kNone);
      const double radius = indexed.squared_distance;
      for (const double r : {std::numeric_limits<double>::infinity(), radius}) {
        const Neighbor by_coords = tree.nearest_other_component(points.point(q), mine, ranked,
                                                                notes, r);
        EXPECT_EQ(by_coords.index, indexed.index) << backend->name() << " q=" << q;
        EXPECT_EQ(by_coords.squared_distance, indexed.squared_distance);
        EXPECT_EQ(tree.nearest_other_component(rank_of(q), mine, ranked, notes, r).index,
                  indexed.index);
      }
      const double below = std::nextafter(radius, 0.0);
      EXPECT_EQ(tree.nearest_other_component(points.point(q), mine, ranked, notes, below).index,
                kNone)
          << backend->name() << " q=" << q;
      EXPECT_EQ(tree.nearest_other_component(rank_of(q), mine, ranked, notes, below).index,
                kNone);
    }
  }
}

TEST(KdTree, AnyNearBoxMatchesBruteForce) {
  // The box query against a brute-force scan, with radii set to exact
  // lattice distances so ties sit on the boundary of the non-strict tests.
  PointSet points(2, 300);
  std::vector<double> core_sq(300);
  for (index_t i = 0; i < 300; ++i) {
    points.at(i, 0) = static_cast<double>(i % 15);
    points.at(i, 1) = static_cast<double>(i / 15);
    core_sq[static_cast<std::size_t>(i)] = static_cast<double>((i * 7) % 11);
  }
  for (const auto& backend : {exec::serial_backend(), exec::openmp_backend()}) {
    const exec::Executor executor(backend);
    const KdTree tree(executor, points, 4);
    const std::vector<double> ranked = by_rank(tree, core_sq);
    spatial::KdTreeAnnotations notes;
    tree.annotate_min_core(executor, ranked, notes);
    for (int c = 0; c < 60; ++c) {
      const std::array<double, 2> lo{-3.0 + 0.5 * (c % 9), -2.0 + 0.75 * (c % 13)};
      const std::array<double, 2> hi{lo[0] + 0.25 * (c % 5), lo[1] + (c % 3)};
      for (const double radius_sq : {0.0, 1.0, 2.0, 4.0, 5.0, 9.0}) {
        bool expected = false;
        for (index_t i = 0; i < 300 && !expected; ++i) {
          double sq = 0;
          for (int d = 0; d < 2; ++d) {
            const double x = points.at(i, d);
            const double gap = x < lo[d] ? lo[d] - x : (x > hi[d] ? x - hi[d] : 0.0);
            sq += gap * gap;
          }
          expected = sq <= radius_sq && core_sq[static_cast<std::size_t>(i)] <= radius_sq;
        }
        EXPECT_EQ(tree.any_near_box(lo, hi, radius_sq, ranked, notes), expected)
            << backend->name() << " box " << c << " radius_sq " << radius_sq;
      }
    }
  }
}

TEST(KdTree, NearestOtherComponentMreachMatchesBruteForce) {
  const PointSet points = data::gaussian_blobs(300, 3, 5, 0.05, 0.1, 9);
  const KdTree tree(points);
  const pandora::testing::RankOf rank_of(tree);
  // Core distances (minPts = 4 -> 3rd neighbour).
  std::vector<Neighbor> scratch;
  std::vector<double> core_sq(300);
  for (index_t q = 0; q < 300; ++q) {
    tree.knn(rank_of(q), 3, scratch);
    core_sq[static_cast<std::size_t>(q)] = scratch.back().squared_distance;
  }
  std::vector<index_t> component(300);
  for (index_t i = 0; i < 300; ++i) component[static_cast<std::size_t>(i)] = i % 7;
  const std::vector<index_t> ranked = by_rank(tree, component);
  const std::vector<double> ranked_core_sq = by_rank(tree, core_sq);
  spatial::KdTreeAnnotations notes;
  tree.annotate_components(exec::default_executor(), ranked, notes);
  tree.annotate_min_core(exec::default_executor(), ranked_core_sq, notes);

  for (index_t q = 0; q < 300; q += 5) {
    const index_t mine = component[static_cast<std::size_t>(q)];
    const index_t rank = rank_of(q);
    const Neighbor got =
        tree.nearest_other_component_mreach(rank, mine, ranked, ranked_core_sq, notes);
    Neighbor expected;
    for (index_t p = 0; p < 300; ++p) {
      if (component[static_cast<std::size_t>(p)] == mine) continue;
      const double score = std::max({points.squared_distance(q, p),
                                     core_sq[static_cast<std::size_t>(q)],
                                     core_sq[static_cast<std::size_t>(p)]});
      const Neighbor cand{score, p};
      if (cand < expected) expected = cand;
    }
    ASSERT_EQ(got.index, expected.index) << "q=" << q;
    ASSERT_DOUBLE_EQ(got.squared_distance, expected.squared_distance);
    const double radius = expected.squared_distance;
    EXPECT_EQ(tree.nearest_other_component_mreach(rank, mine, ranked, ranked_core_sq, notes,
                                                  radius)
                  .index,
              expected.index);
    EXPECT_EQ(tree.nearest_other_component_mreach(rank, mine, ranked, ranked_core_sq, notes,
                                                  std::nextafter(radius, 0.0))
                  .index,
              kNone);
  }
}

TEST(KdTree, KthNeighborDistancesSerialEqualsParallel) {
  const PointSet points = data::normal_points(2000, 3, 12);
  const KdTree tree(points);
  const auto serial = spatial::kth_neighbor_distances(exec::default_executor(exec::serial_backend()), points, tree, 4);
  const auto parallel = spatial::kth_neighbor_distances(exec::default_executor(), points, tree, 4);
  EXPECT_EQ(serial, parallel);
  // And each equals brute force.
  for (index_t q = 0; q < 2000; q += 97) {
    const auto expected = spatial::brute_force_knn(points, q, 4);
    EXPECT_DOUBLE_EQ(serial[static_cast<std::size_t>(q)],
                     std::sqrt(expected.back().squared_distance));
  }
}

TEST(KdTree, NeighborListsMatchBruteForce) {
  // The lists the core pass leaves for Borůvka: max(k, kMinListLength)
  // neighbours per point clamped to n - 1, ascending under (d², id), and the
  // fence (the next neighbour's d², +inf when none exists), on tiny inputs
  // with duplicated points.  Lists and fences sit at the point's rank and
  // hold ranks; every entry is mapped through tree_order() to its id.  Core
  // distances must not depend on the lists.
  for (const index_t n : {2, 3, 6, 7, 8}) {
    PointSet points = data::uniform_points(n, 2, 60 + static_cast<std::uint64_t>(n));
    const auto copy = [&](index_t from, index_t to) {
      for (int d = 0; d < 2; ++d) points.at(to, d) = points.at(from, d);
    };
    copy(0, n - 1);
    if (n >= 6) {
      copy(1, n - 2);
      copy(1, 2);
    }
    const KdTree tree(points);
    const pandora::testing::RankOf rank_of(tree);
    for (const auto& backend : exec::registered_backends()) {
      const exec::Executor& executor = exec::default_executor(backend);
      for (const int min_pts : {2, 7, 8, 9}) {
        const int k = min_pts - 1;
        spatial::NeighborLists lists;
        const auto with_lists = spatial::kth_neighbor_distances(executor, points, tree, k, &lists);
        EXPECT_EQ(with_lists, spatial::kth_neighbor_distances(executor, points, tree, k));
        const auto length = static_cast<int>(
            std::min<index_t>(std::max(k, spatial::kMinListLength), n - 1));
        ASSERT_EQ(lists.length, length) << "n=" << n << " mpts=" << min_pts;
        ASSERT_EQ(lists.ranks.size(), static_cast<std::size_t>(n * length));
        ASSERT_EQ(lists.fence_sq.size(), static_cast<std::size_t>(n));
        for (index_t q = 0; q < n; ++q) {
          const auto expected = spatial::brute_force_knn(points, q, length + 1);
          const auto rank = static_cast<std::size_t>(rank_of(q));
          for (int j = 0; j < length; ++j)
            ASSERT_EQ(tree.tree_order()[static_cast<std::size_t>(
                          lists.ranks[rank * static_cast<std::size_t>(length) +
                                      static_cast<std::size_t>(j)])],
                      expected[static_cast<std::size_t>(j)].index)
                << backend->name() << " n=" << n << " mpts=" << min_pts << " q=" << q;
          const double fence = static_cast<int>(expected.size()) > length
                                   ? expected[static_cast<std::size_t>(length)].squared_distance
                                   : std::numeric_limits<double>::infinity();
          EXPECT_DOUBLE_EQ(lists.fence_sq[rank], fence);
          const auto kth = static_cast<std::size_t>(std::min<index_t>(k, n - 1) - 1);
          EXPECT_DOUBLE_EQ(with_lists[static_cast<std::size_t>(q)],
                           std::sqrt(expected[kth].squared_distance));
        }
      }
    }
  }
}

TEST(KdTree, ParallelBuildMatchesExecutorlessBuild) {
  // The executor-less build is checked against brute force, then every
  // registered backend at several thread counts (so several breadth-first
  // split depths) must build a tree answering bit-identically to it.
  for (const pandora::testing::KdTreeBuildCase& c : pandora::testing::kdtree_build_cases()) {
    const KdTree reference(c.points, c.leaf_size);
    const pandora::testing::RankOf rank_of(reference);
    const index_t n = c.points.size();
    std::vector<Neighbor> got;
    for (index_t q = 0; q < n; q += std::max<index_t>(1, n / 16)) {
      reference.knn(rank_of(q), 7, got);
      const auto expected = spatial::brute_force_knn(c.points, q, 7);
      ASSERT_EQ(got.size(), expected.size()) << c.name << " q=" << q;
      for (std::size_t i = 0; i < got.size(); ++i)
        ASSERT_EQ(got[i].index, expected[i].index) << c.name << " q=" << q << " i=" << i;
    }
    const auto expected = pandora::testing::kdtree_query_sweep(reference);
    for (const auto& backend : exec::registered_backends()) {
      for (const int threads : {1, 3, 4}) {
        const exec::Executor executor(backend, threads);
        const KdTree tree(executor, c.points, c.leaf_size);
        ASSERT_EQ(pandora::testing::kdtree_query_sweep(tree), expected)
            << c.name << " on " << backend->name() << " threads=" << threads;
      }
    }
  }
}

TEST(KdTree, TreeOrderMatchesGoldenFingerprints) {
  // tree_order() pins the whole partition: the golden values are those of
  // the serial recursive build the parallel one replaced, so the tree stays
  // the same one on every backend and thread count.
  const auto fingerprint = [](const KdTree& tree) {
    std::uint64_t h = 0;
    for (const index_t id : tree.tree_order())
      h = exec::mix_fingerprint(h ^ static_cast<std::uint64_t>(id));
    return h;
  };
  const PointSet hacc = data::make_dataset("HaccProxy", 5000, 3);
  const PointSet grid = pandora::testing::tie_heavy_grid();
  const PointSet wide = data::uniform_points(3000, 8, 9);
  const std::array<std::uint64_t, 3> golden = {0x9a83f619c117d643ULL, 0x3dd4fd646bfce2cdULL,
                                               0xfc658605a06487f2ULL};
  EXPECT_EQ(fingerprint(KdTree(hacc, 32)), golden[0]);
  EXPECT_EQ(fingerprint(KdTree(grid, 8)), golden[1]);
  EXPECT_EQ(fingerprint(KdTree(wide, 1)), golden[2]);
  for (const auto& backend : exec::registered_backends()) {
    const exec::Executor executor(backend, 4);
    EXPECT_EQ(fingerprint(KdTree(executor, hacc, 32)), golden[0]) << backend->name();
    EXPECT_EQ(fingerprint(KdTree(executor, grid, 8)), golden[1]) << backend->name();
    EXPECT_EQ(fingerprint(KdTree(executor, wide, 1)), golden[2]) << backend->name();
  }
}

TEST(KdTree, RanksAndIdsInvertEachOther) {
  // Ranks are the index space of every per-point array a query reads:
  // tree_order() maps rank -> id and is a permutation on every build, so
  // it has an inverse.  Query results name the point's id and carry its
  // rank, and the two agree through tree_order().  The tree's rank-ordered
  // coordinate copy gives every pair the distance bits of the point set's
  // own kernel.
  for (const pandora::testing::KdTreeBuildCase& c : pandora::testing::kdtree_build_cases()) {
    const index_t n = c.points.size();
    for (const auto& backend : exec::registered_backends()) {
      const exec::Executor executor(backend, 3);
      const KdTree tree(executor, c.points, c.leaf_size);
      ASSERT_EQ(tree.size(), n) << c.name;
      const std::span<const index_t> id_of = tree.tree_order();
      std::vector<index_t> rank_of(static_cast<std::size_t>(n), kNone);
      for (index_t r = 0; r < n; ++r) {
        const index_t id = id_of[static_cast<std::size_t>(r)];
        ASSERT_TRUE(id >= 0 && id < n && rank_of[static_cast<std::size_t>(id)] == kNone)
            << c.name << " on " << backend->name();
        rank_of[static_cast<std::size_t>(id)] = r;
      }
      Rng rng(static_cast<std::uint64_t>(n) + 5);
      std::vector<Neighbor> found;
      for (int t = 0; t < 64 && n > 1; ++t) {
        const auto a = static_cast<index_t>(rng.next_below(static_cast<std::uint64_t>(n)));
        const auto b = static_cast<index_t>(rng.next_below(static_cast<std::uint64_t>(n)));
        const index_t rank_a = rank_of[static_cast<std::size_t>(a)];
        ASSERT_EQ(std::bit_cast<std::uint64_t>(
                      tree.squared_distance(rank_a, rank_of[static_cast<std::size_t>(b)])),
                  std::bit_cast<std::uint64_t>(c.points.squared_distance(a, b)))
            << c.name << " a=" << a << " b=" << b;
        tree.knn(rank_a, 3, found);
        for (const Neighbor& nb : found) {
          ASSERT_NE(nb.index, a) << c.name;
          ASSERT_EQ(id_of[static_cast<std::size_t>(nb.rank)], nb.index) << c.name;
        }
        tree.knn(c.points.point(a), 3, found);
        for (const Neighbor& nb : found)
          ASSERT_EQ(id_of[static_cast<std::size_t>(nb.rank)], nb.index) << c.name;
      }
    }
  }
}

TEST(KdTree, PruningUnderTiesMatchesBruteForceOnLattice) {
  // A 12^3 integer lattice with every seventh point duplicated (1975
  // points): many points sit exactly on split planes and at the k-th,
  // fence and radius distances, and leaf sizes 1 and 8 give hundreds of
  // leaves, so every strict-'>' prune meets ties.
  constexpr index_t kSide = 12;
  constexpr index_t kBase = kSide * kSide * kSide;
  constexpr index_t kDuplicates = (kBase + 6) / 7;
  PointSet points(3, kBase + kDuplicates);
  for (index_t i = 0; i < kBase; ++i) {
    points.at(i, 0) = static_cast<double>(i / (kSide * kSide));
    points.at(i, 1) = static_cast<double>(i / kSide % kSide);
    points.at(i, 2) = static_cast<double>(i % kSide);
  }
  for (index_t j = 0; j < kDuplicates; ++j)
    for (int d = 0; d < 3; ++d) points.at(kBase + j, d) = points.at(7 * j, d);
  const index_t n = points.size();
  std::vector<index_t> component(static_cast<std::size_t>(n));
  for (index_t p = 0; p < n; ++p) component[static_cast<std::size_t>(p)] = p % 4;
  const exec::Executor& executor = exec::default_executor();
  // One oracle list per point serves every mpts: shorter lists are prefixes
  // under the total (distance, id) order.
  const int longest = std::max(8, spatial::kMinListLength);
  std::vector<std::vector<Neighbor>> oracle;
  for (index_t q = 0; q < n; ++q) oracle.push_back(spatial::brute_force_knn(points, q, longest + 1));

  for (const int min_pts : {2, 7, 9}) {
    const int k = min_pts - 1;
    const int length = std::max(k, spatial::kMinListLength);
    std::vector<double> core_sq(static_cast<std::size_t>(n));
    for (index_t p = 0; p < n; ++p) {
      const double core =
          std::sqrt(oracle[static_cast<std::size_t>(p)][static_cast<std::size_t>(k - 1)]
                        .squared_distance);
      core_sq[static_cast<std::size_t>(p)] = core * core;
    }
    // Brute-force nearest other-component points, Euclidean and mreach.
    std::vector<std::pair<Neighbor, Neighbor>> nearest;
    for (index_t q = 0; q < n; q += 3) {
      const index_t mine = component[static_cast<std::size_t>(q)];
      Neighbor euclid, mreach;
      for (index_t p = 0; p < n; ++p) {
        if (component[static_cast<std::size_t>(p)] == mine) continue;
        const double sq = points.squared_distance(q, p);
        euclid = std::min(euclid, Neighbor{sq, p});
        mreach = std::min(mreach, Neighbor{std::max({sq, core_sq[static_cast<std::size_t>(q)],
                                                     core_sq[static_cast<std::size_t>(p)]}),
                                           p});
      }
      nearest.emplace_back(euclid, mreach);
    }

    for (const int leaf_size : {1, 8}) {
      const KdTree tree(executor, points, leaf_size);
      const pandora::testing::RankOf rank_of(tree);
      const std::string where =
          "leaf=" + std::to_string(leaf_size) + " mpts=" + std::to_string(min_pts);
      spatial::NeighborLists lists;
      const auto core = spatial::kth_neighbor_distances(executor, points, tree, k, &lists);
      ASSERT_EQ(lists.length, length) << where;
      for (index_t q = 0; q < n; ++q) {
        const std::vector<Neighbor>& expected = oracle[static_cast<std::size_t>(q)];
        const auto rank = static_cast<std::size_t>(rank_of(q));
        for (int j = 0; j < length; ++j)
          ASSERT_EQ(tree.tree_order()[static_cast<std::size_t>(
                        lists.ranks[rank * static_cast<std::size_t>(length) +
                                    static_cast<std::size_t>(j)])],
                    expected[static_cast<std::size_t>(j)].index)
              << where << " q=" << q << " j=" << j;
        ASSERT_EQ(lists.fence_sq[rank],
                  expected[static_cast<std::size_t>(length)].squared_distance)
            << where << " q=" << q;
        ASSERT_EQ(core[static_cast<std::size_t>(q)] * core[static_cast<std::size_t>(q)],
                  core_sq[static_cast<std::size_t>(q)])
            << where << " q=" << q;
      }

      const std::vector<index_t> ranked = by_rank(tree, component);
      const std::vector<double> ranked_core_sq = by_rank(tree, core_sq);
      spatial::KdTreeAnnotations notes;
      tree.annotate_components(executor, ranked, notes);
      tree.annotate_min_core(executor, ranked_core_sq, notes);
      for (index_t q = 0; q < n; q += 3) {
        const index_t mine = component[static_cast<std::size_t>(q)];
        const index_t rank = rank_of(q);
        const auto& [euclid, mreach] = nearest[static_cast<std::size_t>(q / 3)];
        // At a radius equal to the true minimum it is found; just below it
        // (below zero for a duplicate), nothing is.
        const Neighbor at_euclid = tree.nearest_other_component(rank, mine, ranked, notes,
                                                                euclid.squared_distance);
        ASSERT_EQ(at_euclid.index, euclid.index) << where << " q=" << q;
        ASSERT_EQ(at_euclid.squared_distance, euclid.squared_distance) << where << " q=" << q;
        ASSERT_EQ(tree.nearest_other_component(rank, mine, ranked, notes,
                                               std::nextafter(euclid.squared_distance, -1.0))
                      .index,
                  kNone)
            << where << " q=" << q;
        const Neighbor at_mreach = tree.nearest_other_component_mreach(
            rank, mine, ranked, ranked_core_sq, notes, mreach.squared_distance);
        ASSERT_EQ(at_mreach.index, mreach.index) << where << " q=" << q;
        ASSERT_EQ(at_mreach.squared_distance, mreach.squared_distance) << where << " q=" << q;
        ASSERT_EQ(tree.nearest_other_component_mreach(
                          rank, mine, ranked, ranked_core_sq, notes,
                          std::nextafter(mreach.squared_distance, -1.0))
                      .index,
                  kNone)
            << where << " q=" << q;
      }
    }
  }
}

/// What a tree answers, by point id and independent of its leaf order: for
/// every id q, its 7 nearest neighbours by rank and by coordinates, its
/// nearest point in another component (components id mod 3) by rank and by
/// coordinates, at an unbounded and at a tight radius, the same under mutual
/// reachability (squared core distances 1e-3 * (id mod 7)), and whether a
/// box around it holds a point within two radii.
std::vector<std::pair<double, index_t>> patch_answers(const exec::Executor& executor,
                                                      const KdTree& tree) {
  const PointSet& points = tree.points();
  const index_t n = points.size();
  std::vector<index_t> component(static_cast<std::size_t>(n));
  std::vector<double> core_sq(static_cast<std::size_t>(n));
  for (index_t p = 0; p < n; ++p) {
    component[static_cast<std::size_t>(p)] = p % 3;
    core_sq[static_cast<std::size_t>(p)] = 1e-3 * static_cast<double>(p % 7);
  }
  const pandora::testing::RankOf rank_of(tree);
  const std::vector<index_t> ranked = by_rank(tree, component);
  const std::vector<double> ranked_core_sq = by_rank(tree, core_sq);
  spatial::KdTreeAnnotations notes;
  tree.annotate_components(executor, ranked, notes);
  tree.annotate_min_core(executor, ranked_core_sq, notes);
  std::vector<std::pair<double, index_t>> answers;
  const auto record = [&](const Neighbor& nb) {
    answers.emplace_back(nb.squared_distance, nb.index);
  };
  std::vector<Neighbor> found;
  for (index_t q = 0; q < n; ++q) {
    const index_t rank = rank_of(q);
    const index_t mine = component[static_cast<std::size_t>(q)];
    tree.knn(rank, 7, found);
    std::for_each(found.begin(), found.end(), record);
    tree.knn(points.point(q), 7, found);
    std::for_each(found.begin(), found.end(), record);
    const Neighbor nearest = tree.nearest_other_component(rank, mine, ranked, notes);
    record(nearest);
    record(tree.nearest_other_component(points.point(q), mine, ranked, notes));
    record(tree.nearest_other_component(rank, mine, ranked, notes,
                                        std::nextafter(nearest.squared_distance, -1.0)));
    const Neighbor mreach =
        tree.nearest_other_component_mreach(rank, mine, ranked, ranked_core_sq, notes);
    record(mreach);
    record(tree.nearest_other_component_mreach(rank, mine, ranked, ranked_core_sq, notes,
                                               mreach.squared_distance));
    const std::span<const double> x = points.point(q);
    const std::array<double, 2> lo{x[0] - 0.01, x[1]};
    const std::array<double, 2> hi{x[0], x[1] + 0.02};
    for (const double radius_sq : {0.0, 1e-4, 4e-3})
      answers.emplace_back(radius_sq, tree.any_near_box(lo, hi, radius_sq, ranked_core_sq, notes));
  }
  return answers;
}

TEST(KdTree, PatchAnswersLikeAFreshBuild) {
  // Erase every fifth indexed point (or, as an insert does, none: an
  // identity remap), append new points, compact the set in place as dyn::
  // does, patch, and compare every answer with a tree freshly built over the
  // same points.
  struct Input {
    std::string name;
    PointSet points;
  };
  std::vector<Input> inputs;
  inputs.push_back({"uniform", data::uniform_points(1500, 2, 31)});
  {
    PointSet blobs = data::gaussian_blobs(1500, 2, 6, 0.03, 0.1, 32);
    for (index_t i = 0; i < blobs.size(); i += 7)  // duplicate points
      for (int d = 0; d < 2; ++d) blobs.at(i, d) = blobs.at(i / 2, d);
    inputs.push_back({"blobs with duplicates", std::move(blobs)});
  }
  inputs.push_back({"tie-heavy grid", pandora::testing::tie_heavy_grid()});
  for (const Input& input : inputs) {
    const index_t total = input.points.size();
    const index_t indexed = total - total / 10;  // the rest is appended after the erase
    for (const auto& backend : {exec::serial_backend(), exec::openmp_backend()}) {
      for (const index_t erase_every : {5, 0}) {
        const exec::Executor executor(backend, backend == exec::serial_backend() ? 1 : 4);
        const std::string where = input.name + " on " + backend->name() +
                                  (erase_every == 0 ? ", nothing erased" : ", a fifth erased");
        PointSet points(2, indexed);
        std::copy_n(input.points.coords().begin(), 2 * indexed, points.coords().begin());
        KdTree tree(executor, points, 32);  // ~20-point leaves: a fifth never empties one
        std::vector<index_t> remap(static_cast<std::size_t>(indexed));
        std::vector<double> compacted;
        index_t next = 0;
        for (index_t i = 0; i < indexed; ++i) {
          const bool erased = erase_every > 0 && i % erase_every == 0;
          remap[static_cast<std::size_t>(i)] = erased ? kNone : next++;
          if (!erased)
            compacted.insert(compacted.end(), points.point(i).begin(), points.point(i).end());
        }
        compacted.insert(compacted.end(), input.points.coords().begin() + 2 * indexed,
                         input.points.coords().end());
        points.coords() = std::move(compacted);
        ASSERT_TRUE(tree.patch(executor, remap)) << where;
        ASSERT_EQ(tree.size(), points.size());
        const KdTree fresh(executor, points, 32);
        EXPECT_EQ(patch_answers(executor, tree), patch_answers(executor, fresh)) << where;
        // The leaves tile the ranks, and every rank holds one point.
        index_t covered = 0;
        for (const KdTree::Leaf& leaf : tree.leaves()) {
          ASSERT_EQ(leaf.begin, covered);
          ASSERT_LT(leaf.begin, leaf.end);
          covered = leaf.end;
        }
        EXPECT_EQ(covered, points.size());
        std::vector<index_t> order(tree.tree_order().begin(), tree.tree_order().end());
        std::sort(order.begin(), order.end());
        for (index_t r = 0; r < points.size(); ++r)
          ASSERT_EQ(order[static_cast<std::size_t>(r)], r);
      }
    }
  }
}

TEST(KdTree, CopyBoundToEqualPointsAnswersAsItsSource) {
  // A patched source (a fifth erased, a tenth appended), copied over a
  // separate but equal PointSet, as a snapshot copies dyn::'s index.
  for (const auto& backend : {exec::serial_backend(), exec::openmp_backend()}) {
    const exec::Executor executor(backend, backend == exec::serial_backend() ? 1 : 4);
    const PointSet all = data::gaussian_blobs(1500, 2, 6, 0.03, 0.1, 37);
    const index_t indexed = 1350;
    std::vector<std::pair<double, index_t>> source_answers;
    std::unique_ptr<PointSet> copy_points;
    std::unique_ptr<KdTree> copy;
    {
      PointSet points(2, indexed);
      std::copy_n(all.coords().begin(), 2 * indexed, points.coords().begin());
      KdTree source(executor, points, 32);
      std::vector<index_t> remap(static_cast<std::size_t>(indexed));
      std::vector<double> compacted;
      index_t next = 0;
      for (index_t i = 0; i < indexed; ++i) {
        remap[static_cast<std::size_t>(i)] = i % 5 == 0 ? kNone : next++;
        if (i % 5 != 0)
          compacted.insert(compacted.end(), points.point(i).begin(), points.point(i).end());
      }
      compacted.insert(compacted.end(), all.coords().begin() + 2 * indexed, all.coords().end());
      points.coords() = std::move(compacted);
      ASSERT_TRUE(source.patch(executor, remap)) << backend->name();

      copy_points = std::make_unique<PointSet>(points);
      copy = std::make_unique<KdTree>(source, *copy_points);
      EXPECT_EQ(&copy->points(), copy_points.get());
      EXPECT_NE(copy->tree_order().data(), source.tree_order().data());
      EXPECT_NE(copy->leaves().data(), source.leaves().data());
      source_answers = patch_answers(executor, source);

      PointSet shorter(2, points.size() - 1);
      EXPECT_THROW((void)KdTree(source, shorter), std::invalid_argument) << backend->name();
      PointSet wider(3, points.size());
      EXPECT_THROW((void)KdTree(source, wider), std::invalid_argument) << backend->name();
    }
    // The source and its points are gone: the copy reads only its own.
    EXPECT_EQ(patch_answers(executor, *copy), source_answers) << backend->name();
  }
}

/// Erases the flagged indexed points, appends `tail`, compacts the set in
/// place as dyn:: does, and expects the patch to refuse and leave the tree's
/// rank order, leaves and answers as they were.
void expect_patch_refused(const exec::Executor& executor, PointSet& points, KdTree& tree,
                          const std::vector<char>& erased, std::span<const double> tail,
                          const std::string& where) {
  const index_t n = tree.size();
  const std::vector<index_t> order_before(tree.tree_order().begin(), tree.tree_order().end());
  const std::vector<KdTree::Leaf> leaves_before(tree.leaves().begin(), tree.leaves().end());
  std::vector<std::pair<double, index_t>> before;
  std::vector<Neighbor> found;
  for (index_t r = 0; r < n; ++r) {
    tree.knn(r, 5, found);
    for (const Neighbor& nb : found) before.emplace_back(nb.squared_distance, nb.index);
  }
  std::vector<index_t> remap(static_cast<std::size_t>(n));
  std::vector<double> compacted;
  index_t next = 0;
  for (index_t i = 0; i < n; ++i) {
    const bool gone = erased[static_cast<std::size_t>(i)] != 0;
    remap[static_cast<std::size_t>(i)] = gone ? kNone : next++;
    if (!gone) compacted.insert(compacted.end(), points.point(i).begin(), points.point(i).end());
  }
  compacted.insert(compacted.end(), tail.begin(), tail.end());
  points.coords() = std::move(compacted);
  EXPECT_FALSE(tree.patch(executor, remap)) << where;
  EXPECT_EQ(std::vector<index_t>(tree.tree_order().begin(), tree.tree_order().end()),
            order_before)
      << where;
  ASSERT_EQ(tree.leaves().size(), leaves_before.size()) << where;
  for (std::size_t l = 0; l < leaves_before.size(); ++l) {
    EXPECT_EQ(tree.leaves()[l].begin, leaves_before[l].begin) << where;
    EXPECT_EQ(tree.leaves()[l].end, leaves_before[l].end) << where;
  }
  std::vector<std::pair<double, index_t>> after;
  for (index_t r = 0; r < n; ++r) {
    tree.knn(r, 5, found);
    for (const Neighbor& nb : found) after.emplace_back(nb.squared_distance, nb.index);
  }
  EXPECT_EQ(after, before) << where;
}

TEST(KdTree, PatchThatWouldEmptyALeafChangesNothing) {
  for (const auto& backend : {exec::serial_backend(), exec::openmp_backend()}) {
    const exec::Executor executor(backend, backend == exec::serial_backend() ? 1 : 4);
    PointSet points = data::uniform_points(500, 2, 33);
    KdTree tree(executor, points, 8);
    // Erase every point of the third leaf, and every tenth point elsewhere.
    const KdTree::Leaf victim = tree.leaves()[2];
    std::vector<char> erased(500, 0);
    for (index_t r = victim.begin; r < victim.end; ++r)
      erased[static_cast<std::size_t>(tree.tree_order()[static_cast<std::size_t>(r)])] = 1;
    for (index_t i = 0; i < 500; i += 10) erased[static_cast<std::size_t>(i)] = 1;
    expect_patch_refused(executor, points, tree, erased, {}, backend->name());
  }
}

TEST(KdTree, PatchThatWouldOverfillALeafChangesNothing) {
  // 20 appended points in a tight cluster far outside the unit square all
  // descend to the corner leaf, which would then hold more than twice the
  // leaf size of 8.
  for (const auto& backend : {exec::serial_backend(), exec::openmp_backend()}) {
    const exec::Executor executor(backend, backend == exec::serial_backend() ? 1 : 4);
    PointSet points = data::uniform_points(500, 2, 36);
    KdTree tree(executor, points, 8);
    std::vector<char> erased(500, 0);
    erased[7] = 1;
    std::vector<double> tail;
    for (int j = 0; j < 20; ++j) {
      tail.push_back(3.0 + 1e-3 * j);
      tail.push_back(3.0 - 1e-3 * j);
    }
    expect_patch_refused(executor, points, tree, erased, tail, backend->name());
  }
}

TEST(KdTree, LeafAtATimeQueriesMatchBruteForce) {
  // any_foreign_near_box over a leaf's box may only say "nothing foreign in
  // range" when a brute-force scan agrees for every point of the leaf.
  const exec::Executor executor(exec::openmp_backend());
  const PointSet points = data::gaussian_blobs(600, 2, 4, 0.05, 0.1, 34);
  const KdTree tree(executor, points, 8);
  std::vector<index_t> component(600);
  std::vector<double> core_sq(600);
  for (index_t p = 0; p < 600; ++p) {
    component[static_cast<std::size_t>(p)] = points.at(p, 0) < 0.5 ? 0 : 1 + p % 2;
    core_sq[static_cast<std::size_t>(p)] = 1e-4 * static_cast<double>(p % 5);
  }
  const std::vector<index_t> ranked = by_rank(tree, component);
  const std::vector<double> ranked_core_sq = by_rank(tree, core_sq);
  spatial::KdTreeAnnotations notes;
  tree.annotate_components(executor, ranked, notes);
  tree.annotate_min_core(executor, ranked_core_sq, notes);
  int proved_empty = 0;
  for (const KdTree::Leaf& leaf : tree.leaves()) {
    const index_t mine = ranked[static_cast<std::size_t>(leaf.begin)];
    for (const bool mreach : {false, true}) {
      for (const double radius_sq : {1e-5, 1e-4, 1e-3, 1e-2}) {
        const std::span<const double> leaf_core_sq =
            mreach ? std::span<const double>(ranked_core_sq) : std::span<const double>{};
        const bool near = tree.any_foreign_near_box(tree.box_lo(leaf), tree.box_hi(leaf), mine,
                                                    ranked, leaf_core_sq, notes, radius_sq);
        if (near) continue;
        ++proved_empty;
        for (index_t r = leaf.begin; r < leaf.end; ++r) {
          const index_t p = tree.tree_order()[static_cast<std::size_t>(r)];
          for (index_t q = 0; q < 600; ++q) {
            if (component[static_cast<std::size_t>(q)] == component[static_cast<std::size_t>(p)])
              continue;
            double score = points.squared_distance(p, q);
            if (mreach)
              score = std::max({score, core_sq[static_cast<std::size_t>(p)],
                                core_sq[static_cast<std::size_t>(q)]});
            ASSERT_GT(score, radius_sq) << "p=" << p << " q=" << q;
          }
        }
      }
    }
  }
  EXPECT_GT(proved_empty, 0);

  // nearest_in: every point's nearest point of another tree, against
  // brute force, with the (distance, id) tie break on duplicated points.
  PointSet others = data::uniform_points(40, 2, 35);
  for (int d = 0; d < 2; ++d) others.at(39, d) = others.at(3, d);
  const KdTree other_tree(executor, others, 8);
  std::vector<Neighbor> found(static_cast<std::size_t>(tree.size()));
  tree.nearest_in(executor, other_tree, found);
  for (index_t r = 0; r < tree.size(); ++r) {
    const index_t p = tree.tree_order()[static_cast<std::size_t>(r)];
    Neighbor expected;
    for (index_t q = 0; q < others.size(); ++q)
      expected = std::min(expected, Neighbor{others.squared_distance(points.point(p), q), q});
    const Neighbor& got = found[static_cast<std::size_t>(r)];
    ASSERT_EQ(got.index, expected.index) << "point " << p;
    ASSERT_EQ(got.squared_distance, expected.squared_distance);
    ASSERT_EQ(other_tree.tree_order()[static_cast<std::size_t>(got.rank)], expected.index);
  }
}

}  // namespace
