#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <initializer_list>
#include <string>
#include <tuple>

#include "pandora/common/rng.hpp"
#include "pandora/data/point_generators.hpp"
#include "pandora/dendrogram/sorted_edges.hpp"
#include "pandora/graph/tree.hpp"
#include "pandora/graph/union_find.hpp"
#include "pandora/hdbscan/core_distance.hpp"
#include "pandora/obs/metrics.hpp"
#include "pandora/spatial/brute_force.hpp"
#include "pandora/spatial/emst.hpp"
#include "test_helpers.hpp"

namespace {

using namespace pandora;
using graph::EdgeList;
using spatial::KdTree;
using spatial::PointSet;
using pandora::testing::tie_heavy_grid;

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
  // Through the kNN-seeded route; n = 2 leaves fewer than min_pts other
  // points, so no fence exists there.
  const auto& [dim, n] = GetParam();
  const int min_pts = static_cast<int>(std::min<index_t>(4, n));
  const PointSet points = data::gaussian_blobs(n, dim, 4, 0.08, 0.1, 77);
  KdTree tree(points);
  for (const auto& backend : exec::registered_backends()) {
    const exec::Executor& executor = exec::default_executor(backend);
    spatial::NeighborLists seeds;
    const auto core = hdbscan::core_distances(executor, points, tree, min_pts, &seeds);
    const EdgeList expected = spatial::brute_force_mreach_mst(points, core);
    const EdgeList got = spatial::mutual_reachability_mst(executor, points, tree, core, &seeds);
    ASSERT_TRUE(graph::is_spanning_tree(got, n)) << backend->name();
    EXPECT_NEAR(weight_of(got), weight_of(expected), 1e-9 * std::max(1.0, weight_of(expected)))
        << backend->name();
  }
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

/// The mutual-reachability MST at `min_pts`, with or without the kNN seeds
/// the core-distance pass leaves for Borůvka (the route hdbscan() takes).
EdgeList mreach_mst(const exec::Executor& exec, const PointSet& points, const KdTree& tree,
                    int min_pts, bool seeded) {
  spatial::NeighborLists seeds;
  const auto core = hdbscan::core_distances(exec, points, tree, min_pts, seeded ? &seeds : nullptr);
  return spatial::mutual_reachability_mst(exec, points, tree, core, seeded ? &seeds : nullptr);
}

/// Fingerprints (edge order, endpoints, weight bits) of the MSTs the golden
/// test pins: mutual-reachability MSTs at mpts 2, 5, 9 on a HaccProxy set
/// and on the tie-heavy grid, then one seeded component join.
std::vector<std::uint64_t> mst_fingerprints(const exec::Executor& exec, bool seeded) {
  std::vector<std::uint64_t> out;
  for (const PointSet& points : {data::make_dataset("HaccProxy", 3000, 17), tie_heavy_grid()}) {
    const KdTree tree(points);
    for (const int min_pts : {2, 5, 9}) {
      const EdgeList mst = mreach_mst(exec, points, tree, min_pts, seeded);
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
      for (const bool seeded : {false, true}) {
        const std::vector<std::uint64_t> got =
            mst_fingerprints(exec::default_executor(backend), seeded);
        ASSERT_EQ(got.size(), golden.size());
        for (std::size_t i = 0; i < got.size(); ++i)
          EXPECT_EQ(got[i], golden[i]) << "case " << i << " on " << backend->name()
                                       << (seeded ? " (kNN-seeded)" : "") << ": 0x" << std::hex
                                       << got[i];
      }
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

PointSet plane_points(std::initializer_list<std::array<double, 2>> xy) {
  PointSet points(2, static_cast<index_t>(xy.size()));
  index_t i = 0;
  for (const auto& p : xy) {
    points.at(i, 0) = p[0];
    points.at(i, 1) = p[1];
    ++i;
  }
  return points;
}

/// Ten points (duplicates included) on which a list minimum ties F* in round
/// 0 at mpts 7: point 0's core² and fence are both 9, and its list minimum
/// is point 3 (distance² 4, lifted to 9 by core²(0)).  Point 2 outside the
/// list also scores 9 but has the smaller id, so a fence rule that certified
/// ties would hook 0-3 instead of 0-2.
PointSet round0_fence_tie_points() {
  return plane_points(
      {{3, 0}, {3, 3}, {0, 0}, {1, 0}, {1, 0}, {0, 1}, {2, 0}, {3, 1}, {3, 2}, {0, 1}});
}

/// Ten points on which a list minimum ties F* in Borůvka's last round at
/// mpts 5: point 4's nearest foreign list entry, point 5, scores 4 (lifted by
/// core²(5)) and ties F*(4) = 4.  Point 1 outside the list also scores 4 with
/// the smaller id, so a fence rule that certified ties would hook 4-5
/// instead of 4-1.
PointSet later_round_fence_tie_points() {
  return plane_points(
      {{1, 3}, {3, 1}, {0, 0}, {3, 2}, {1, 1}, {2, 0}, {2, 2}, {1, 2}, {2, 3}, {1, 2}});
}

TEST(Emst, KnnSeededMreachMstEqualsUnseeded) {
  // The fence rule may only certify a candidate a tree query would also
  // return, so seeding must never change an edge, its order or its weight
  // bits — on heavy ties (the grid, duplicates included), on a list minimum
  // tying F* in round 0 and in a later round, on clustered data, and on
  // inputs too small to have a fence at all.
  std::vector<PointSet> inputs = {tie_heavy_grid(), round0_fence_tie_points(),
                                  later_round_fence_tie_points(),
                                  data::make_dataset("HaccProxy", 3000, 29)};
  for (const index_t n : {2, 3}) inputs.push_back(data::uniform_points(n, 3, 40 + n));
  for (const auto& backend : exec::registered_backends()) {
    const exec::Executor& executor = exec::default_executor(backend);
    for (const PointSet& points : inputs) {
      const KdTree tree(points);
      for (const int min_pts : {1, 2, 3, 5, 7, 8, 9}) {
        const EdgeList plain = mreach_mst(executor, points, tree, min_pts, false);
        const EdgeList seeded = mreach_mst(executor, points, tree, min_pts, true);
        ASSERT_EQ(seeded.size(), plain.size());
        for (std::size_t i = 0; i < plain.size(); ++i)
          ASSERT_EQ(seeded[i], plain[i]) << backend->name() << " n=" << points.size()
                                         << " mpts=" << min_pts << " edge " << i;
      }
    }
  }
}

/// The sorted weights of `mst`: the same multiset for every MST of a graph,
/// whichever edges its ties pick.
std::vector<double> sorted_weights(const EdgeList& mst) {
  std::vector<double> weights;
  weights.reserve(mst.size());
  for (const auto& e : mst) weights.push_back(e.weight);
  std::sort(weights.begin(), weights.end());
  return weights;
}

TEST(Emst, TieRobustMreachMstMatchesBruteForceOnShuffledIds) {
  // A differential check that does not care which edge a tie picks: the
  // kd-tree MST's sorted weights equal the brute-force Kruskal MST's, bit
  // for bit, on every registered backend.  Inputs have their ids shuffled,
  // so ids carry no spatial order and ranks and ids disagree everywhere;
  // they cover dims 1-5, mpts 1-9, duplicated points and lattice ties.
  struct Case {
    std::string name;
    PointSet points;
    std::vector<int> min_pts;
  };
  std::vector<Case> cases;
  for (int dim = 1; dim <= 5; ++dim)
    cases.push_back({"uniform dim=" + std::to_string(dim),
                     data::uniform_points(300, dim, 70 + static_cast<std::uint64_t>(dim)),
                     {1, 2, 5, 9}});
  cases.push_back({"tie-heavy grid", tie_heavy_grid(), {1, 2, 3, 4, 5, 6, 7, 8, 9}});
  PointSet line(1, 500);  // 1-D lattice, every value four or five times
  for (index_t i = 0; i < line.size(); ++i) line.at(i, 0) = static_cast<double>(i % 111);
  cases.push_back({"1-D lattice with duplicates", std::move(line), {1, 3, 7}});
  PointSet blobs = data::gaussian_blobs(2000, 3, 6, 0.05, 0.1, 31);
  for (index_t i = 0; i + 1 < blobs.size(); i += 9)  // every ninth point doubled
    for (int d = 0; d < 3; ++d) blobs.at(i + 1, d) = blobs.at(i, d);
  cases.push_back({"blobs with duplicates", std::move(blobs), {2, 9}});

  for (std::size_t c = 0; c < cases.size(); ++c) {
    const PointSet points = pandora::testing::shuffle_ids(cases[c].points, 11 + c).points;
    for (const int min_pts : cases[c].min_pts) {
      const std::string where = cases[c].name + " mpts=" + std::to_string(min_pts);
      const auto core =
          hdbscan::core_distances(exec::default_executor(exec::serial_backend()), points,
                                  KdTree(points), min_pts);
      const std::vector<double> expected =
          sorted_weights(spatial::brute_force_mreach_mst(points, core));
      for (const auto& backend : exec::registered_backends()) {
        const exec::Executor& executor = exec::default_executor(backend);
        const KdTree tree(executor, points);
        const EdgeList got = mreach_mst(executor, points, tree, min_pts, true);
        ASSERT_TRUE(graph::is_spanning_tree(got, points.size())) << where;
        ASSERT_EQ(sorted_weights(got), expected) << where << " on " << backend->name();
      }
    }
  }
}

TEST(Emst, PermutedInputGivesThePermutedMst) {
  // Without ties the MST is unique, so relabelling the points may only
  // relabel its edges: at mpts 1 on continuous random input, the MST of a
  // permuted input is the permuted MST as a set of (endpoints, weight bits).
  const auto edge_set = [](const EdgeList& mst, const std::vector<index_t>* relabel) {
    std::vector<std::tuple<index_t, index_t, double>> set;
    for (const auto& e : mst) {
      index_t u = e.u, v = e.v;
      if (relabel != nullptr) {
        u = (*relabel)[static_cast<std::size_t>(u)];
        v = (*relabel)[static_cast<std::size_t>(v)];
      }
      set.emplace_back(std::min(u, v), std::max(u, v), e.weight);
    }
    std::sort(set.begin(), set.end());
    return set;
  };
  for (const int dim : {2, 5}) {
    const PointSet points = data::uniform_points(1500, dim, 90 + static_cast<std::uint64_t>(dim));
    const pandora::testing::ShuffledPoints permuted = pandora::testing::shuffle_ids(points, 3);
    for (const auto& backend : exec::registered_backends()) {
      const exec::Executor& executor = exec::default_executor(backend);
      const EdgeList original = mreach_mst(executor, points, KdTree(executor, points), 1, true);
      const EdgeList relabelled =
          mreach_mst(executor, permuted.points, KdTree(executor, permuted.points), 1, true);
      EXPECT_EQ(edge_set(relabelled, nullptr), edge_set(original, &permuted.new_id))
          << "dim=" << dim << " on " << backend->name();
    }
  }
}

TEST(Emst, KnnSeedsAndLowerBoundsCutTreeQueries) {
  // Tie-free clustered data at mpts 2: every round-0 candidate is certified
  // by its kNN fence, later rounds certify most candidates from the same
  // lists, and per-point lower bounds skip queries that cannot win.  With
  // the lists used in round 0 only, Borůvka issued 9,388 queries here; the
  // bound sits at a third of that.
  constexpr std::uint64_t kRoundZeroOnlyQueries = 9388;
  const exec::Executor executor(exec::serial_backend());
  const PointSet points = data::make_dataset("HaccProxy", 3000, 17);
  const KdTree tree(points);
  const auto count = [](const char* round) {
    return obs::registry().counter_value(std::string("pandora_emst_queries_total{round=\"") +
                                         round + "\"}");
  };
  const std::uint64_t first_before = count("first");
  const std::uint64_t later_before = count("later");
  const EdgeList mst = mreach_mst(executor, points, tree, 2, true);
  ASSERT_TRUE(graph::is_spanning_tree(mst, points.size()));
  const std::uint64_t first = count("first") - first_before;
  const std::uint64_t total = first + count("later") - later_before;
  EXPECT_EQ(first, 0u) << "round 0 must be fully seeded";
  EXPECT_LT(total, kRoundZeroOnlyQueries / 3) << total << " queries";
}

}  // namespace
