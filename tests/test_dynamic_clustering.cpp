// The dyn:: incremental subsystem: after ANY fuzzed sequence of insert /
// erase batches the maintained EMST and the replayed dendrogram must be
// equivalent to a cold from-scratch rebuild over the same live points —
// including duplicate-distance inputs (grids, repeated points) and
// erase-to-tiny-n edge cases.  Equivalence is checked structurally: MSTs of
// a point set are unique as a *weight multiset*, and the single-linkage
// hierarchy is unique as the sequence of threshold partitions, so both are
// compared exactly even where distance ties make the edge set ambiguous.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <numeric>
#include <vector>

#include "pandora/common/rng.hpp"
#include "pandora/data/point_generators.hpp"
#include "pandora/dendrogram/pandora.hpp"
#include "pandora/dendrogram/sorted_edges.hpp"
#include "pandora/dyn/dynamic_clustering.hpp"
#include "pandora/graph/tree.hpp"
#include "pandora/graph/union_find.hpp"
#include "pandora/pipeline.hpp"
#include "pandora/spatial/emst.hpp"
#include "pandora/spatial/kdtree.hpp"

namespace {

using namespace pandora;

/// Sorted (descending) weight array of an edge list — the unique signature
/// of every MST of a point set (all MSTs share one weight multiset, and
/// weights from both code paths come through the identical arithmetic, so
/// the comparison is exact).
std::vector<double> weight_signature(const graph::EdgeList& edges) {
  std::vector<double> weights;
  weights.reserve(edges.size());
  for (const auto& e : edges) weights.push_back(e.weight);
  std::sort(weights.begin(), weights.end(), std::greater<>());
  return weights;
}

/// Canonical labels (minimum member id per cluster) of the partition formed
/// by all edges with weight <= threshold.
std::vector<index_t> partition_at(const graph::EdgeList& edges, index_t n, double threshold) {
  graph::UnionFind uf(n);
  for (const auto& e : edges)
    if (e.weight <= threshold) uf.unite(e.u, e.v);
  std::vector<index_t> label(static_cast<std::size_t>(n));
  for (index_t x = 0; x < n; ++x) label[static_cast<std::size_t>(x)] = uf.find(x);
  return label;
}

/// Asserts the maintained state equals a from-scratch rebuild on the same
/// live points: exact weight multiset, spanning-tree validity, dendrogram
/// weight run, and identical threshold partitions at every distinct merge
/// height ("heights and merge structure" under tie-ambiguity).
void expect_equivalent_to_rebuild(const dyn::DynamicClustering& stream) {
  const index_t n = stream.size();
  const spatial::PointSet& points = stream.points();
  const exec::Executor reference(exec::default_backend());

  if (n <= 1) {
    EXPECT_TRUE(stream.emst().empty());
    EXPECT_EQ(stream.dendrogram().num_vertices, n);
    EXPECT_EQ(stream.dendrogram().num_edges, 0);
    return;
  }

  spatial::KdTree tree(points);
  const graph::EdgeList rebuilt = spatial::euclidean_mst(reference, points, tree);

  ASSERT_TRUE(graph::is_spanning_tree(stream.emst(), n));
  const std::vector<double> maintained_weights = weight_signature(stream.emst());
  const std::vector<double> rebuilt_weights = weight_signature(rebuilt);
  ASSERT_EQ(maintained_weights, rebuilt_weights)
      << "maintained EMST weight multiset diverged from the from-scratch EMST";

  // The replayed dendrogram's weights are the maintained MST's sorted run.
  const dendrogram::Dendrogram& replayed = stream.dendrogram();
  ASSERT_EQ(replayed.num_vertices, n);
  ASSERT_EQ(replayed.num_edges, n - 1);
  EXPECT_EQ(replayed.weight, maintained_weights);

  // Merge structure: the hierarchy's partition at every distinct height.
  std::vector<double> thresholds = rebuilt_weights;
  thresholds.erase(std::unique(thresholds.begin(), thresholds.end()), thresholds.end());
  for (const double t : thresholds) {
    EXPECT_EQ(partition_at(stream.emst(), n, t), partition_at(rebuilt, n, t))
        << "partitions diverge at threshold " << t;
  }

  // And the replayed dendrogram really is PANDORA over the maintained tree.
  const dendrogram::Dendrogram direct =
      dendrogram::pandora_dendrogram(reference, stream.emst(), n);
  EXPECT_EQ(replayed.parent, direct.parent);
  EXPECT_EQ(replayed.weight, direct.weight);
}

spatial::PointSet slice_points(const spatial::PointSet& source, index_t begin, index_t count) {
  spatial::PointSet out(source.dim(), count);
  for (index_t i = 0; i < count; ++i)
    for (int d = 0; d < source.dim(); ++d) out.at(i, d) = source.at(begin + i, d);
  return out;
}

TEST(DynamicClustering, SingleInsertsMatchRebuildAtEveryStep) {
  const exec::Executor executor(exec::default_backend());
  dyn::DynamicClustering stream(executor);
  const spatial::PointSet all = data::gaussian_blobs(120, 2, 3, 0.05, 0.1, 11);

  stream.insert(slice_points(all, 0, 40));
  expect_equivalent_to_rebuild(stream);
  for (index_t i = 40; i < all.size(); ++i) {
    const auto row = all.point(i);
    stream.insert(std::span<const double>(row.data(), row.size()));
    expect_equivalent_to_rebuild(stream);
  }
  EXPECT_EQ(stream.size(), all.size());
  EXPECT_EQ(stream.epoch(), 1u + (all.size() - 40));
}

TEST(DynamicClustering, ErasesMatchRebuildDownToTinyN) {
  const exec::Executor executor(exec::default_backend());
  dyn::DynamicClustering stream(executor);
  const std::vector<index_t> ids = stream.insert(data::uniform_points(60, 3, 5));
  expect_equivalent_to_rebuild(stream);

  Rng rng(99);
  std::vector<index_t> remaining = ids;
  while (remaining.size() > 1) {
    // Erase a random clump (sometimes a big one) and re-verify.
    const std::size_t count =
        std::min<std::size_t>(remaining.size() - 1, 1 + rng.next_u64() % 7);
    std::vector<index_t> victims;
    for (std::size_t c = 0; c < count; ++c) {
      const std::size_t pick = rng.next_u64() % remaining.size();
      victims.push_back(remaining[pick]);
      remaining.erase(remaining.begin() + static_cast<std::ptrdiff_t>(pick));
    }
    stream.erase(victims);
    expect_equivalent_to_rebuild(stream);
  }
  EXPECT_EQ(stream.size(), 1);
  EXPECT_EQ(stream.dendrogram().num_edges, 0);

  // One point inserted beside the last one: a 1-point batch tree over a
  // stream with no maintained edges.
  const std::array<double, 3> one{0.5, 0.25, 0.75};
  remaining.push_back(stream.insert(std::span<const double>(one.data(), one.size())));
  expect_equivalent_to_rebuild(stream);

  // ... and to zero: the stream must come back up from empty.
  stream.erase(remaining);
  EXPECT_EQ(stream.size(), 0);
  EXPECT_EQ(stream.dendrogram().num_nodes(), 0);
  stream.insert(data::uniform_points(20, 3, 6));
  expect_equivalent_to_rebuild(stream);
}

TEST(DynamicClustering, RandomizedInsertEraseFuzz) {
  // The acceptance fuzz: random mixed batches, equivalence after EVERY
  // batch.  Three seeds x ~12 batches keeps the suite fast while covering
  // batch inserts, single inserts, erases and interleavings.
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    const exec::Executor executor(exec::default_backend());
    dyn::DynamicClustering stream(executor);
    Rng rng(seed);
    std::vector<index_t> live;

    const spatial::PointSet pool = data::power_law_blobs(900, 2, 12, 1.2, seed);
    index_t cursor = 0;

    for (const index_t id : stream.insert(slice_points(pool, cursor, 150))) live.push_back(id);
    cursor += 150;
    expect_equivalent_to_rebuild(stream);

    for (int batch = 0; batch < 12; ++batch) {
      const bool do_erase = !live.empty() && rng.next_u64() % 3 == 0;
      if (do_erase) {
        const std::size_t count =
            std::min<std::size_t>(live.size(), 1 + rng.next_u64() % 40);
        std::vector<index_t> victims;
        for (std::size_t c = 0; c < count; ++c) {
          const std::size_t pick = rng.next_u64() % live.size();
          victims.push_back(live[pick]);
          live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
        }
        stream.erase(victims);
      } else {
        const index_t count =
            std::min<index_t>(pool.size() - cursor, 1 + static_cast<index_t>(rng.next_u64() % 60));
        if (count == 0) continue;
        for (const index_t id : stream.insert(slice_points(pool, cursor, count)))
          live.push_back(id);
        cursor += count;
      }
      expect_equivalent_to_rebuild(stream);
      ASSERT_EQ(static_cast<std::size_t>(stream.size()), live.size());
    }
  }
}

TEST(DynamicClustering, DuplicateDistancesAndDuplicatePoints) {
  // A perfect grid (massive distance ties), then duplicates of existing
  // points, then erases that leave co-located points behind.
  const exec::Executor executor(exec::default_backend());
  dyn::DynamicClustering stream(executor);

  const int side = 7;
  spatial::PointSet grid(2, side * side);
  for (int x = 0; x < side; ++x)
    for (int y = 0; y < side; ++y) {
      grid.at(x * side + y, 0) = x;
      grid.at(x * side + y, 1) = y;
    }
  const std::vector<index_t> grid_ids = stream.insert(grid);
  expect_equivalent_to_rebuild(stream);

  // Insert exact duplicates (zero-weight EMST edges must appear).
  for (const std::array<double, 2> dup : {std::array<double, 2>{3.0, 3.0},
                                          std::array<double, 2>{0.0, 0.0},
                                          std::array<double, 2>{3.0, 3.0}}) {
    stream.insert(std::span<const double>(dup.data(), dup.size()));
    expect_equivalent_to_rebuild(stream);
  }

  // A batch of 3 coincident new points (zero 2nd-nearest-neighbour
  // distances inside the batch), then a batch of duplicates of grid points.
  spatial::PointSet coincident(2, 3);
  for (index_t i = 0; i < 3; ++i) {
    coincident.at(i, 0) = 1.5;
    coincident.at(i, 1) = 4.5;
  }
  stream.insert(coincident);
  expect_equivalent_to_rebuild(stream);
  spatial::PointSet grid_dups(2, 5);
  for (index_t i = 0; i < 5; ++i) {
    grid_dups.at(i, 0) = grid.at(i * 9, 0);
    grid_dups.at(i, 1) = grid.at(i * 9, 1);
  }
  stream.insert(grid_dups);
  expect_equivalent_to_rebuild(stream);

  // Erase a stripe of the grid; survivors include the duplicates.
  std::vector<index_t> victims(grid_ids.begin(), grid_ids.begin() + side);
  stream.erase(victims);
  expect_equivalent_to_rebuild(stream);
}

/// The multi-point batches below: more than one leaf (32 points) of the
/// insert's batch tree, so its searches and box queries descend past a leaf.
constexpr index_t kBatch = 40;

TEST(DynamicClustering, BatchInsertDisplacesAFarAwayChainEdge) {
  // Two elongated clusters, A along y = 0 and B along y = 3, joined at their
  // far ends (x = 10) by a chain whose heaviest edge (2.0) sits at x = 14.
  // A new point between the near ends (x = 0) bridges A and B with two 1.5
  // edges, so the chain's heaviest edge must leave the tree although it lies
  // about 14 away from every new point.
  spatial::PointSet base(2, 0);
  const auto add = [&](double x, double y) {
    base.coords().push_back(x);
    base.coords().push_back(y);
  };
  for (int i = 0; i <= 100; ++i) add(0.1 * i, 0.0);                // A
  for (int i = 0; i <= 100; ++i) add(0.1 * i, 3.0);                // B
  for (int k = 1; k <= 8; ++k) add(10.0 + 0.5 * k, 0.0);           // chain, A side
  add(14.0, 0.5);
  add(14.0, 1.0);
  for (int k = 0; k < 8; ++k) add(14.0 - 0.5 * k, 3.0);            // chain, B side

  const exec::Executor executor(exec::default_backend());
  dyn::DynamicClustering stream(executor);
  stream.insert(base);
  const auto has_weight = [&](double w) {
    return std::any_of(stream.emst().begin(), stream.emst().end(),
                       [&](const graph::WeightedEdge& e) { return e.weight == w; });
  };
  ASSERT_TRUE(has_weight(2.0));

  // The bridge point plus a far-away line of points that fills the batch.
  spatial::PointSet batch(2, kBatch);
  batch.at(0, 0) = 0.0;
  batch.at(0, 1) = 1.5;
  for (index_t i = 1; i < kBatch; ++i) {
    batch.at(i, 0) = 100.0 + static_cast<double>(i);
    batch.at(i, 1) = 100.0;
  }
  stream.insert(batch);
  expect_equivalent_to_rebuild(stream);
  EXPECT_FALSE(has_weight(2.0)) << "the displaced chain edge survived the insert";
  EXPECT_GT(stream.stats().doubtful_edges, 0u);
}

TEST(DynamicClustering, BatchInsertsOnGridWithDuplicates) {
  // Batch inserts into a grid: duplicates of grid points, points on grid midpoints (exact distance ties with the
  // grid edges) and duplicates of the new points themselves.
  const exec::Executor executor(exec::default_backend());
  dyn::DynamicClustering stream(executor);
  const int side = 12;
  spatial::PointSet grid(2, side * side);
  for (int x = 0; x < side; ++x)
    for (int y = 0; y < side; ++y) {
      grid.at(x * side + y, 0) = x;
      grid.at(x * side + y, 1) = y;
    }
  const std::vector<index_t> grid_ids = stream.insert(grid);
  expect_equivalent_to_rebuild(stream);

  for (int round = 0; round < 3; ++round) {
    spatial::PointSet batch(2, kBatch + round * 10);
    for (index_t i = 0; i < batch.size(); ++i) {
      const auto cell = static_cast<int>((i * 5 + round * 7) % (side * side));
      const double half = i % 3 == 0 ? 0.5 : 0.0;  // a midpoint or a duplicate
      batch.at(i, 0) = cell / side + half;
      batch.at(i, 1) = cell % side;
    }
    for (index_t i = batch.size() / 2; i < batch.size(); i += 4) {  // in-batch duplicates
      batch.at(i, 0) = batch.at(i - 1, 0);
      batch.at(i, 1) = batch.at(i - 1, 1);
    }
    stream.insert(batch);
    expect_equivalent_to_rebuild(stream);
    const auto stripe = static_cast<std::size_t>(round) * 9;
    stream.erase(std::span<const index_t>(grid_ids).subspan(stripe, 9));
    expect_equivalent_to_rebuild(stream);
  }
}

TEST(DynamicClustering, BatchInsertsInThreeAndFiveDimensions) {
  for (const int dim : {3, 5}) {
    const exec::Executor executor(exec::default_backend());
    dyn::DynamicClustering stream(executor);
    const spatial::PointSet pool =
        data::gaussian_blobs(1400, dim, 6, 0.05, 0.1, static_cast<std::uint64_t>(dim));
    std::vector<index_t> ids = stream.insert(slice_points(pool, 0, 600));
    index_t cursor = 600;
    for (const index_t count : {kBatch, index_t{100}, index_t{250}}) {
      stream.insert(slice_points(pool, cursor, count));
      cursor += count;
      expect_equivalent_to_rebuild(stream);
      stream.erase(std::span<const index_t>(ids).first(20));
      ids.erase(ids.begin(), ids.begin() + 20);
      expect_equivalent_to_rebuild(stream);
    }
  }
}

TEST(DynamicClustering, BatchInsertCertificateLeavesFewEdgesDoubtful) {
  // Batches of 1 to 500 points from the same distribution as the 50k
  // maintained points: the per-edge certificate must pre-merge all but a
  // few of the maintained edges, and the repaired dendrogram is the cold
  // rebuild's, parent for parent (the input has no distance ties).  The
  // 500-point batch leaves 1.8% doubtful, and testing only one child of
  // each edge would leave 2.8% or 14%, so its bound is 2.5%.  Batches of 1,
  // 10 and 32 points leave 2, 15 and 57 edges (under 0.12%); one global
  // 2nd-nearest-neighbour threshold for the whole batch left 20%, 72% and
  // 96%, so their bound is 1%.
  const index_t n = 50000;
  const spatial::PointSet pool = data::gaussian_blobs(n + 500, 2, 8, 0.03, 0.1, 21);
  const exec::Executor reference(exec::default_backend());
  for (const index_t m : {index_t{1}, index_t{10}, index_t{32}, index_t{500}}) {
    SCOPED_TRACE(::testing::Message() << "batch of " << m);
    const exec::Executor executor(exec::default_backend());
    dyn::DynamicClustering stream(executor);
    stream.insert(slice_points(pool, 0, n));
    const std::uint64_t before = stream.stats().doubtful_edges;
    stream.insert(slice_points(pool, n, m));
    const std::uint64_t doubtful = stream.stats().doubtful_edges - before;
    const auto maintained = static_cast<std::uint64_t>(n - 1);
    if (m > 32) {
      EXPECT_GT(doubtful, 0u);
      EXPECT_LT(doubtful, maintained / 40);
    } else {
      EXPECT_LT(doubtful, maintained / 100);
    }

    const spatial::KdTree tree(reference, stream.points());
    const graph::EdgeList rebuilt = spatial::euclidean_mst(reference, stream.points(), tree);
    EXPECT_EQ(weight_signature(stream.emst()), weight_signature(rebuilt));
    const dendrogram::Dendrogram cold =
        dendrogram::pandora_dendrogram(reference, rebuilt, stream.size());
    EXPECT_EQ(stream.dendrogram().parent, cold.parent);
    EXPECT_EQ(stream.dendrogram().weight, cold.weight);
  }
}

TEST(DynamicClustering, DeterministicAcrossRepeats) {
  const spatial::PointSet pool = data::uniform_points(300, 2, 42);
  const auto run_once = [&] {
    const exec::Executor executor(exec::default_backend());
    dyn::DynamicClustering stream(executor);
    stream.insert(slice_points(pool, 0, 200));
    for (index_t i = 200; i < 260; ++i) {
      const auto row = pool.point(i);
      stream.insert(std::span<const double>(row.data(), row.size()));
    }
    std::vector<index_t> victims(30);
    std::iota(victims.begin(), victims.end(), index_t{50});
    stream.erase(victims);
    return std::pair{stream.emst(), stream.dendrogram().parent};
  };
  const auto [edges_a, parent_a] = run_once();
  const auto [edges_b, parent_b] = run_once();
  ASSERT_EQ(edges_a.size(), edges_b.size());
  for (std::size_t i = 0; i < edges_a.size(); ++i) EXPECT_EQ(edges_a[i], edges_b[i]) << i;
  EXPECT_EQ(parent_a, parent_b);
}

TEST(DynamicClustering, SortedRunMatchesFullSortBitForBit) {
  // The delta merge must reproduce sort_edges over the maintained edge list
  // exactly — order array included (the tie-break renumbering argument).
  const exec::Executor executor(exec::default_backend());
  dyn::DynamicClustering stream(executor);
  stream.insert(data::gaussian_blobs(400, 2, 4, 0.04, 0.1, 7));
  for (int round = 0; round < 3; ++round) {
    std::vector<index_t> victims;
    for (index_t s = 0; s < 20; ++s)
      victims.push_back(stream.id_at(static_cast<index_t>((s * 7 + round) %
                                                          stream.size())));
    std::sort(victims.begin(), victims.end());
    victims.erase(std::unique(victims.begin(), victims.end()), victims.end());
    stream.erase(victims);
    stream.insert(data::uniform_points(25, 2, 1000 + round));

    const dendrogram::SortedEdges resorted =
        dendrogram::sort_edges(executor, stream.emst(), stream.size());
    EXPECT_EQ(stream.sorted_edges().u, resorted.u);
    EXPECT_EQ(stream.sorted_edges().v, resorted.v);
    EXPECT_EQ(stream.sorted_edges().weight, resorted.weight);
    EXPECT_EQ(stream.sorted_edges().order, resorted.order);
  }
}

TEST(DynamicClustering, IdsSurviveCompactionAndRejectDoubleErase) {
  const exec::Executor executor(exec::default_backend());
  dyn::DynamicClustering stream(executor);
  const std::vector<index_t> ids = stream.insert(data::uniform_points(50, 2, 3));
  const index_t victim = ids[10];
  // Record victim+1's coordinates through its id, erase victim, re-check.
  const index_t tracked = ids[11];
  const double x_before = stream.points().at(stream.slot_of(tracked), 0);
  stream.erase(std::array{victim});
  EXPECT_EQ(stream.slot_of(victim), kNone);
  EXPECT_EQ(stream.points().at(stream.slot_of(tracked), 0), x_before);
  EXPECT_EQ(stream.id_at(stream.slot_of(tracked)), tracked);
  EXPECT_THROW(stream.erase(std::array{victim}), std::invalid_argument);
  // Duplicate ids within one batch are rejected before any mutation.
  EXPECT_THROW(stream.erase(std::array{ids[12], ids[12]}), std::invalid_argument);
  EXPECT_NE(stream.slot_of(ids[12]), kNone);
}

TEST(DynamicClustering, UpdatesRekeyHdbscanArtifacts) {
  const exec::Executor executor(exec::default_backend());
  dyn::DynamicClustering stream(executor);
  stream.insert(data::gaussian_blobs(500, 2, 4, 0.04, 0.1, 13));

  hdbscan::HdbscanOptions options;
  options.min_pts = 4;
  options.min_cluster_size = 10;

  const auto first = stream.hdbscan(options);
  const auto cache_after_first = executor.artifact_cache().stats();
  const auto second = stream.hdbscan(options);
  const auto cache_after_second = executor.artifact_cache().stats();
  // Within one epoch the kd-tree, core distances and EMST replay.
  EXPECT_GE(cache_after_second.hits - cache_after_first.hits, 3u);
  EXPECT_EQ(first.labels, second.labels);

  stream.insert(std::array{0.5, 0.5});
  const auto third = stream.hdbscan(options);  // new points: recompute, no stale artifacts
  EXPECT_GT(executor.artifact_cache().stats().misses, cache_after_second.misses);
  EXPECT_EQ(third.labels.size(), static_cast<std::size_t>(stream.size()));

  // The rebuilt reference must agree with the content-keyed pipeline.
  const exec::Executor reference(exec::default_backend());
  const auto expected = hdbscan::hdbscan(reference, stream.points(), options);
  EXPECT_EQ(third.labels, expected.labels);
  EXPECT_EQ(third.num_clusters, expected.num_clusters);
}

TEST(DynamicClustering, UpdateStatsTrackTheIncrementalPath) {
  const exec::Executor executor(exec::default_backend());
  dyn::DynamicClustering stream(executor);
  stream.insert(data::uniform_points(400, 2, 17));
  const dyn::UpdateStats& stats = stream.stats();
  EXPECT_EQ(stats.points_inserted, 400u);
  EXPECT_EQ(stats.index_rebuilds, 1u);  // bulk load builds once

  stream.insert(std::array{0.25, 0.75});
  EXPECT_EQ(stats.points_inserted, 401u);
  EXPECT_GT(stats.boruvka_rounds, 0u) << "single insert must take the repair path";
  EXPECT_GT(stats.edges_added, 0u);
  EXPECT_EQ(stats.index_patches, 1u) << "a one-point insert patches the index";
  EXPECT_EQ(stats.index_rebuilds, 1u);

  stream.erase(std::array{stream.id_at(0)});
  EXPECT_EQ(stats.points_erased, 1u);
  EXPECT_EQ(stats.index_patches, 2u) << "an erase within the drift budget patches the index";
  EXPECT_EQ(stats.index_rebuilds, 1u);

  // 2 points drifted so far; 70 more pass the 64-point budget.
  std::vector<index_t> victims;
  for (index_t slot = 0; slot < 70; ++slot) victims.push_back(stream.id_at(slot));
  stream.erase(victims);
  EXPECT_EQ(stats.index_patches, 2u);
  EXPECT_EQ(stats.index_rebuilds, 2u) << "crossing the drift budget rebuilds the index";
  expect_equivalent_to_rebuild(stream);
}

TEST(DynamicClustering, AlternatingChurnPatchesAndRebuildsTheIndex) {
  // 40 alternating 1% inserts and erases on blobs with duplicate points:
  // the updates patch the kd index, cross the drift budget (12.5% of n)
  // several times, and one erase clears a spatial ball that empties a leaf.
  // Every update must match a cold rebuild, on both backends, and the two
  // backends must maintain the same tree edge for edge.
  constexpr index_t kInitial = 1600;
  constexpr index_t kBatch = 16;
  spatial::PointSet pool = data::gaussian_blobs(kInitial + 20 * kBatch, 2, 6, 0.04, 0.1, 71);
  for (index_t i = 0; i < pool.size(); i += 9)  // duplicate points
    for (int d = 0; d < 2; ++d) pool.at(i, d) = pool.at(i / 3, d);
  std::vector<graph::EdgeList> trees[2];
  int backend_index = 0;
  for (const auto& backend : {exec::serial_backend(), exec::openmp_backend()}) {
    const exec::Executor executor(backend, backend == exec::serial_backend() ? 1 : 4);
    dyn::DynamicClustering stream(executor);
    std::vector<index_t> live = stream.insert(slice_points(pool, 0, kInitial));
    index_t cursor = kInitial;
    const dyn::UpdateStats& stats = stream.stats();

    // A ball of the 150 points nearest to one point: within the drift
    // budget (200), so only an emptied leaf can make this erase rebuild.
    {
      const std::span<const double> center = stream.points().point(0);
      std::vector<std::pair<double, index_t>> by_distance;
      for (index_t s = 0; s < stream.size(); ++s)
        by_distance.emplace_back(stream.points().squared_distance(center, s), stream.id_at(s));
      std::sort(by_distance.begin(), by_distance.end());
      std::vector<index_t> ball;
      for (std::size_t i = 0; i < 150; ++i) ball.push_back(by_distance[i].second);
      std::erase_if(live, [&](index_t id) {
        return std::find(ball.begin(), ball.end(), id) != ball.end();
      });
      stream.erase(ball);
      EXPECT_EQ(stats.index_rebuilds, 2u) << "the ball empties a leaf, so the erase rebuilds";
      EXPECT_EQ(stats.index_patches, 0u);
      expect_equivalent_to_rebuild(stream);
    }

    for (int round = 0; round < 40; ++round) {
      if (round % 2 == 0) {
        const std::vector<index_t> ids = stream.insert(slice_points(pool, cursor, kBatch));
        cursor += kBatch;
        live.insert(live.end(), ids.begin(), ids.end());
      } else {
        const std::vector<index_t> victims(live.begin(), live.begin() + kBatch);
        live.erase(live.begin(), live.begin() + kBatch);
        stream.erase(victims);
      }
      expect_equivalent_to_rebuild(stream);
      trees[backend_index].push_back(stream.emst());
    }
    EXPECT_GE(stats.index_patches, 10u) << backend->name();
    EXPECT_GE(stats.index_rebuilds, 2u + 2u) << backend->name() << ": the budget was crossed twice";
    ++backend_index;
  }
  ASSERT_EQ(trees[0].size(), trees[1].size());
  for (std::size_t i = 0; i < trees[0].size(); ++i) {
    ASSERT_EQ(trees[0][i].size(), trees[1][i].size());
    for (std::size_t e = 0; e < trees[0][i].size(); ++e) {
      ASSERT_EQ(trees[0][i][e].u, trees[1][i][e].u) << "update " << i << " edge " << e;
      ASSERT_EQ(trees[0][i][e].v, trees[1][i][e].v);
      ASSERT_EQ(trees[0][i][e].weight, trees[1][i][e].weight);
    }
  }
}

TEST(DynamicClustering, InsertOutsideTheIndexRebuildsIt) {
  // A tight cluster inserted far outside the indexed unit square (100
  // points, under the 262-point drift budget) would all descend to the
  // corner leaf, so the patch refuses and the insert rebuilds the index.
  // In-distribution churn then patches again.
  for (const auto& backend : {exec::serial_backend(), exec::openmp_backend()}) {
    const exec::Executor executor(backend, backend == exec::serial_backend() ? 1 : 4);
    dyn::DynamicClustering stream(executor);
    (void)stream.insert(data::uniform_points(2000, 2, 81));
    const dyn::UpdateStats& stats = stream.stats();
    spatial::PointSet far = data::uniform_points(100, 2, 82);
    for (index_t i = 0; i < far.size(); ++i)
      for (int d = 0; d < 2; ++d) far.at(i, d) = 3.0 + 0.1 * far.at(i, d);
    (void)stream.insert(far);
    EXPECT_EQ(stats.index_patches, 0u) << backend->name();
    EXPECT_EQ(stats.index_rebuilds, 2u) << backend->name() << ": the corner leaf would overfill";
    expect_equivalent_to_rebuild(stream);

    (void)stream.insert(data::uniform_points(20, 2, 83));
    EXPECT_EQ(stats.index_patches, 1u) << backend->name();
    stream.erase(std::array{stream.id_at(1)});
    EXPECT_EQ(stats.index_patches, 2u) << backend->name();
    EXPECT_EQ(stats.index_rebuilds, 2u) << backend->name();
    expect_equivalent_to_rebuild(stream);
  }
}

TEST(DynamicClustering, InsertOnlyStreamPatchesThenRebuilds) {
  // Consecutive in-distribution inserts, no erases: each patches the kd
  // index until the points inserted since the last build pass the drift
  // budget (max(64, n / 8)), which rebuilds it, and patching resumes.
  constexpr index_t kInitial = 1000;
  constexpr index_t kBatch = 20;
  constexpr int kInserts = 20;
  const spatial::PointSet pool = data::uniform_points(kInitial + kInserts * kBatch, 2, 91);
  for (const auto& backend : {exec::serial_backend(), exec::openmp_backend()}) {
    const exec::Executor executor(backend, backend == exec::serial_backend() ? 1 : 4);
    dyn::DynamicClustering stream(executor);
    (void)stream.insert(slice_points(pool, 0, kInitial));
    const dyn::UpdateStats& stats = stream.stats();
    std::uint64_t patches = 0, rebuilds = 1;
    index_t drift = 0;
    for (int i = 0; i < kInserts; ++i) {
      (void)stream.insert(slice_points(pool, kInitial + i * kBatch, kBatch));
      drift += kBatch;
      if (static_cast<double>(drift) > std::max(64.0, 0.125 * stream.size())) {
        ++rebuilds;
        drift = 0;
      } else {
        ++patches;
      }
      EXPECT_EQ(stats.index_patches, patches) << backend->name() << " insert " << i;
      EXPECT_EQ(stats.index_rebuilds, rebuilds) << backend->name() << " insert " << i;
      expect_equivalent_to_rebuild(stream);
    }
    EXPECT_GE(rebuilds, 2u + 1u) << backend->name() << ": the budget was crossed twice";
  }
}

}  // namespace
