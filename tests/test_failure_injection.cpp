// Failure injection: every public entry point must reject malformed input
// with std::invalid_argument (never crash, hang or silently mis-answer).

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <limits>

#include "pandora/data/point_generators.hpp"
#include "pandora/dendrogram/analysis.hpp"
#include "pandora/dendrogram/pandora.hpp"
#include "pandora/dendrogram/union_find_dendrogram.hpp"
#include "pandora/dyn/dynamic_clustering.hpp"
#include "pandora/graph/mst.hpp"
#include "pandora/graph/tree.hpp"
#include "pandora/hdbscan/hdbscan.hpp"
#include "pandora/obs/metrics.hpp"
#include "pandora/spatial/kdtree.hpp"
#include "test_helpers.hpp"

namespace {

using namespace pandora;
using dendrogram::PandoraOptions;

PandoraOptions validating() {
  PandoraOptions options;
  options.validate_input = true;
  return options;
}

TEST(FailureInjection, CycleRejected) {
  const graph::EdgeList cycle{{0, 1, 1.0}, {1, 2, 2.0}, {2, 0, 3.0}};
  EXPECT_THROW((void)dendrogram::pandora_dendrogram(exec::default_executor(), cycle, 3, validating()),
               std::invalid_argument);
}

TEST(FailureInjection, ForestRejected) {
  const graph::EdgeList forest{{0, 1, 1.0}, {2, 3, 2.0}};
  EXPECT_THROW((void)dendrogram::pandora_dendrogram(exec::default_executor(), forest, 4, validating()),
               std::invalid_argument);
}

TEST(FailureInjection, SelfLoopRejected) {
  const graph::EdgeList self_loop{{0, 0, 1.0}, {0, 1, 2.0}};
  EXPECT_THROW((void)dendrogram::pandora_dendrogram(exec::default_executor(), self_loop, 2, validating()),
               std::invalid_argument);
}

TEST(FailureInjection, UnvalidatedMultigraphFailsFastInsteadOfCorrupting) {
  // With validation off (the default), the contraction's fixed leased buffers
  // assume tree bounds; a multigraph that violates them must still be
  // rejected (by the internal bound check) rather than scatter out of range.
  graph::EdgeList multi;
  for (int k = 0; k < 9; ++k)
    multi.push_back({0, 1, 1.0 + k});
  EXPECT_THROW((void)dendrogram::pandora_dendrogram(
                   exec::default_executor(), multi, 2),
               std::invalid_argument);
}

TEST(FailureInjection, UnvalidatedIsolatedVertexFailsFastInsteadOfCorrupting) {
  // The last vertex has no edge, so no edge writes its sided parent or its
  // forest pointer; without validation the contraction must still reject it
  // instead of reading whatever the leased slots held before.
  // (The larger path runs its passes in parallel chunks on the openmp
  // backend; the check must still throw on the calling thread.)
  for (const index_t path_vertices : {4, 20000}) {
    graph::EdgeList path = data::path_tree(path_vertices);
    data::assign_increasing_weights(path);
    for (const auto& backend : exec::registered_backends())
      EXPECT_THROW((void)dendrogram::pandora_dendrogram(exec::default_executor(backend), path,
                                                        path_vertices + 1),
                   std::invalid_argument)
          << backend->name() << " n=" << path_vertices;
  }
}

TEST(FailureInjection, OutOfRangeEndpointRejected) {
  const graph::EdgeList bad{{0, 5, 1.0}};
  EXPECT_THROW((void)dendrogram::pandora_dendrogram(exec::default_executor(), bad, 2, validating()),
               std::invalid_argument);
}

TEST(FailureInjection, NanAndNegativeWeightsRejected) {
  const graph::EdgeList nan_edge{{0, 1, std::numeric_limits<double>::quiet_NaN()}};
  EXPECT_THROW((void)dendrogram::pandora_dendrogram(exec::default_executor(), nan_edge, 2, validating()),
               std::invalid_argument);
  const graph::EdgeList inf_edge{{0, 1, std::numeric_limits<double>::infinity()}};
  EXPECT_THROW((void)dendrogram::pandora_dendrogram(exec::default_executor(), inf_edge, 2, validating()),
               std::invalid_argument);
  const graph::EdgeList negative{{0, 1, -1.0}};
  EXPECT_THROW((void)dendrogram::pandora_dendrogram(exec::default_executor(), negative, 2, validating()),
               std::invalid_argument);
}

TEST(FailureInjection, UnionFindBaselineValidatesToo) {
  const graph::EdgeList cycle{{0, 1, 1.0}, {1, 2, 2.0}, {2, 0, 3.0}};
  EXPECT_THROW((void)dendrogram::union_find_dendrogram(exec::default_executor(exec::serial_backend()), cycle, 3,
                                                       /*validate_input=*/true),
               std::invalid_argument);
}

TEST(FailureInjection, ValidationOffMeansCallerContract) {
  // Without validation the library trusts the caller (hot paths); a valid
  // tree passes through both entry points unchanged.
  const graph::EdgeList tree = pandora::testing::make_tree(
      pandora::testing::Topology::random_attach, 128, 3);
  EXPECT_NO_THROW((void)dendrogram::pandora_dendrogram(exec::default_executor(), tree, 128));
  EXPECT_NO_THROW((void)dendrogram::pandora_dendrogram(exec::default_executor(), tree, 128, validating()));
}

TEST(FailureInjection, HdbscanRejectsEmptyInput) {
  const spatial::PointSet empty(2, 0);
  EXPECT_THROW((void)hdbscan::hdbscan(exec::default_executor(), empty, {}), std::invalid_argument);
}

TEST(FailureInjection, HdbscanRejectsBadMinPts) {
  spatial::PointSet points(2, 10);
  hdbscan::HdbscanOptions options;
  options.min_pts = 0;
  EXPECT_THROW((void)hdbscan::hdbscan(exec::default_executor(), points, options), std::invalid_argument);
}

TEST(FailureInjection, HdbscanRejectsBadMinClusterSize) {
  spatial::PointSet points(2, 10);
  hdbscan::HdbscanOptions options;
  options.min_cluster_size = 0;
  EXPECT_THROW((void)hdbscan::hdbscan(exec::default_executor(), points, options), std::invalid_argument);
}

// Bad options fail at the front door: no cache lookup and no tree build
// happen before the throw, even where earlier sweep values are valid.
TEST(FailureInjection, HdbscanRejectsBadOptionsBeforeAnyWork) {
  const spatial::PointSet points = data::gaussian_blobs(300, 2, 3, 0.04, 0.1, 3);
  const exec::Executor executor(exec::serial_backend());
  const auto misses = [] { return obs::registry().counter_value("pandora_cache_misses_total"); };
  obs::Histogram& tree_builds =
      obs::registry().histogram("pandora_phase_seconds{phase=\"tree_build\"}");
  const std::uint64_t misses_before = misses();
  const std::uint64_t builds_before = tree_builds.count();

  hdbscan::HdbscanOptions no_size;
  no_size.min_cluster_size = 0;
  EXPECT_THROW((void)hdbscan::hdbscan(executor, points, no_size), std::invalid_argument);
  hdbscan::HdbscanOptions no_pts;
  no_pts.min_pts = 0;
  EXPECT_THROW((void)hdbscan::hdbscan(executor, points, no_pts), std::invalid_argument);
  const std::array<int, 2> mpts = {2, 0};
  EXPECT_THROW((void)hdbscan::hdbscan_sweep_min_pts(executor, points, mpts),
               std::invalid_argument);
  EXPECT_THROW((void)hdbscan::hdbscan_sweep_min_pts(executor, points, std::array{2}, no_size),
               std::invalid_argument);
  const std::array<index_t, 2> sizes = {5, 0};
  EXPECT_THROW((void)hdbscan::hdbscan_sweep_min_cluster_size(executor, points, sizes),
               std::invalid_argument);
  EXPECT_THROW(
      (void)hdbscan::hdbscan_sweep_min_cluster_size(executor, points, std::array<index_t, 1>{5},
                                                    no_pts),
      std::invalid_argument);

  // Non-finite coordinates fail by name on every points overload, before the
  // content hash, the cache lookup and the tree build.
  const auto expect_non_finite = [](auto&& call) {
    try {
      call();
      ADD_FAILURE() << "expected std::invalid_argument";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("non-finite coordinate at point"), std::string::npos)
          << e.what();
    }
  };
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity()}) {
    spatial::PointSet poisoned = points;
    poisoned.at(117, 1) = bad;
    expect_non_finite([&] { (void)hdbscan::hdbscan(executor, poisoned); });
    expect_non_finite(
        [&] { (void)hdbscan::hdbscan_sweep_min_pts(executor, poisoned, std::array{2, 3}); });
    expect_non_finite([&] {
      (void)hdbscan::hdbscan_sweep_min_cluster_size(executor, poisoned,
                                                    std::array<index_t, 2>{5, 10});
    });
  }

  EXPECT_EQ(misses(), misses_before);
  EXPECT_EQ(tree_builds.count(), builds_before);
}

TEST(FailureInjection, MstRequiresConnectivity) {
  const graph::EdgeList forest{{0, 1, 1.0}, {2, 3, 2.0}};
  EXPECT_THROW((void)graph::kruskal_mst(forest, 4), std::invalid_argument);
  EXPECT_THROW((void)graph::boruvka_mst(exec::default_executor(), forest, 4),
               std::invalid_argument);
}

TEST(FailureInjection, NonFinitePointCoordinatesRejected) {
  spatial::PointSet points(2, 4);
  points.at(2, 1) = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(spatial::validate_points(points), std::invalid_argument);
  points.at(2, 1) = std::numeric_limits<double>::infinity();
  EXPECT_THROW(spatial::validate_points(points), std::invalid_argument);
  points.at(2, 1) = 0.0;
  EXPECT_NO_THROW(spatial::validate_points(points));
}

TEST(FailureInjection, HdbscanRejectsNonFinitePoints) {
  spatial::PointSet points(2, 8);
  for (index_t i = 0; i < 8; ++i) points.at(i, 0) = static_cast<double>(i);
  // The tree indexes `points` by reference; poisoning them after the build
  // hands the caller's-tree overloads a NaN without sorting one.
  const spatial::KdTree tree(points);
  points.at(5, 1) = std::numeric_limits<double>::quiet_NaN();
  const exec::Executor& executor = exec::default_executor();
  // The message names the offending point and dimension, where a NaN that
  // reached the kernels would surface from a progress check deep in EMST
  // construction.
  try {
    (void)hdbscan::hdbscan(executor, points);
    FAIL() << "a NaN coordinate must throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("non-finite coordinate at point 5, dim 1"),
              std::string::npos)
        << e.what();
  }
  const std::vector<index_t> sizes{2, 3};
  EXPECT_THROW((void)hdbscan::hdbscan_sweep_min_cluster_size(executor, points, sizes),
               std::invalid_argument);
  // The caller's-tree overloads check the points the tree indexes.
  hdbscan::SharedNeighborPass passes;
  EXPECT_THROW((void)hdbscan::hdbscan(executor, tree, passes), std::invalid_argument);
  EXPECT_THROW((void)hdbscan::hdbscan_sweep_min_pts(executor, tree, passes, std::array{2}),
               std::invalid_argument);
}

TEST(FailureInjection, DynInsertRejectsNonFinitePointsWithoutMutating) {
  exec::Executor executor;
  dyn::DynamicClustering stream(executor);
  spatial::PointSet good(2, 4);
  for (index_t i = 0; i < 4; ++i) good.at(i, 0) = static_cast<double>(i);
  stream.insert(good);
  const std::uint64_t epoch_before = stream.epoch();

  spatial::PointSet bad(2, 2);
  bad.at(1, 0) = std::numeric_limits<double>::infinity();
  EXPECT_THROW((void)stream.insert(bad), std::invalid_argument);
  // A rejected batch is a no-op: same epoch, still healthy, still usable.
  EXPECT_EQ(stream.epoch(), epoch_before);
  EXPECT_TRUE(stream.healthy());
  EXPECT_EQ(stream.size(), 4);
  EXPECT_NO_THROW((void)stream.dendrogram());
}

TEST(FailureInjection, DynInsertRejectsDimensionMismatch) {
  exec::Executor executor;
  dyn::DynamicClustering stream(executor);
  spatial::PointSet first(3, 2);
  stream.insert(first);
  spatial::PointSet wrong_dim(2, 2);
  EXPECT_THROW((void)stream.insert(wrong_dim), std::invalid_argument);
  EXPECT_TRUE(stream.healthy());
}

TEST(FailureInjection, SinglePointHdbscanDegeneratesGracefully) {
  spatial::PointSet one(3, 1);
  one.at(0, 0) = 1.0;
  const auto result = hdbscan::hdbscan(exec::default_executor(), one, {});
  EXPECT_EQ(result.labels.size(), 1u);
  EXPECT_EQ(result.num_clusters, 0);
}

}  // namespace
