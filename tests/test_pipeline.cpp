// The fluent Pipeline builder: every terminal operation must match the free
// function it fronts, and the builder must compose with the Executor's
// workspace and PhaseTimes sink.

#include <gtest/gtest.h>

#include "pandora/data/point_generators.hpp"
#include "pandora/dendrogram/union_find_dendrogram.hpp"
#include "pandora/hdbscan/core_distance.hpp"
#include "pandora/pipeline.hpp"
#include "pandora/spatial/emst.hpp"
#include "test_helpers.hpp"

namespace {

using namespace pandora;
using pandora::testing::Topology;
using pandora::testing::make_tree;

TEST(Pipeline, BuildDendrogramMatchesPandoraFreeFunction) {
  const graph::EdgeList tree = make_tree(Topology::preferential, 6000, 13, 0);
  const exec::Executor executor(exec::default_backend());
  const auto via_pipeline = Pipeline::on(executor).build_dendrogram(tree, 6000);
  const auto via_free = dendrogram::pandora_dendrogram(executor, tree, 6000);
  EXPECT_EQ(via_pipeline.parent, via_free.parent);
  EXPECT_EQ(via_pipeline.edge_order, via_free.edge_order);
}

TEST(Pipeline, UnionFindAlgorithmSelection) {
  const graph::EdgeList tree = make_tree(Topology::random_attach, 4000, 5, 3);
  const exec::Executor executor(exec::default_backend());
  const auto via_pipeline =
      Pipeline::on(executor)
          .with_dendrogram_algorithm(hdbscan::DendrogramAlgorithm::union_find)
          .build_dendrogram(tree, 4000);
  const auto via_free = dendrogram::union_find_dendrogram(executor, tree, 4000);
  EXPECT_EQ(via_pipeline.parent, via_free.parent);
  // And both agree with PANDORA (the paper's equivalence claim).
  const auto pandora_d = Pipeline::on(executor).build_dendrogram(tree, 4000);
  EXPECT_EQ(via_pipeline.parent, pandora_d.parent);
}

TEST(Pipeline, SortedEdgesPathSharesOneSort) {
  const graph::EdgeList tree = make_tree(Topology::broom, 3000, 2, 0);
  const exec::Executor executor(exec::default_backend());
  const auto pipeline = Pipeline::on(executor);
  const auto sorted = pipeline.sort_edges(tree, 3000);
  const auto from_sorted = pipeline.build_dendrogram(sorted);
  const auto from_edges = pipeline.build_dendrogram(tree, 3000);
  EXPECT_EQ(from_sorted.parent, from_edges.parent);
}

TEST(Pipeline, ValidationRejectsNonTrees) {
  const graph::EdgeList cycle{{0, 1, 1.0}, {1, 2, 2.0}, {2, 0, 3.0}};
  const exec::Executor executor(exec::serial_backend());
  EXPECT_THROW((void)Pipeline::on(executor).with_validation().build_dendrogram(cycle, 3),
               std::invalid_argument);
  EXPECT_THROW((void)Pipeline::on(executor)
                   .with_validation()
                   .with_dendrogram_algorithm(hdbscan::DendrogramAlgorithm::union_find)
                   .build_dendrogram(cycle, 3),
               std::invalid_argument);
}

TEST(Pipeline, BuildMstSelectsMetricByMinPts) {
  const spatial::PointSet points = data::gaussian_blobs(900, 2, 3, 0.05, 0.05, 9);
  const exec::Executor executor(exec::default_backend());

  spatial::KdTree tree_a(points);
  const auto euclid = Pipeline::on(executor).with_min_pts(1).build_mst(points, tree_a);
  spatial::KdTree tree_b(points);
  const auto euclid_free = spatial::euclidean_mst(executor, points, tree_b);
  ASSERT_EQ(euclid.size(), euclid_free.size());
  for (std::size_t i = 0; i < euclid.size(); ++i) EXPECT_EQ(euclid[i], euclid_free[i]);

  spatial::KdTree tree_c(points);
  const auto mreach = Pipeline::on(executor).with_min_pts(4).build_mst(points, tree_c);
  spatial::KdTree tree_d(points);
  const auto core = hdbscan::core_distances(executor, points, tree_d, 4);
  const auto mreach_free = spatial::mutual_reachability_mst(executor, points, tree_d, core);
  ASSERT_EQ(mreach.size(), mreach_free.size());
  for (std::size_t i = 0; i < mreach.size(); ++i) EXPECT_EQ(mreach[i], mreach_free[i]);
}

TEST(Pipeline, RunHdbscanMatchesFreeFunction) {
  const spatial::PointSet points = data::power_law_blobs(1000, 2, 10, 1.3, 5);
  const exec::Executor executor(exec::default_backend());
  const auto via_pipeline = Pipeline::on(executor)
                                .with_min_pts(4)
                                .with_min_cluster_size(20)
                                .allow_single_cluster(false)
                                .run_hdbscan(points);
  hdbscan::HdbscanOptions options;
  options.min_pts = 4;
  options.min_cluster_size = 20;
  const auto via_free = hdbscan::hdbscan(executor, points, options);
  EXPECT_EQ(via_pipeline.labels, via_free.labels);
  EXPECT_EQ(via_pipeline.num_clusters, via_free.num_clusters);
}

TEST(Pipeline, SelectionOptionsReachExtraction) {
  const spatial::PointSet points = data::power_law_blobs(1000, 2, 10, 1.3, 6);
  const exec::Executor executor(exec::default_backend());
  const auto base = Pipeline::on(executor).with_min_pts(3).with_min_cluster_size(10);
  auto leaf_pipeline = base;  // builders are cheap copyable values
  const auto eom = base.run_hdbscan(points);
  const auto leaf =
      leaf_pipeline.with_cluster_selection(hdbscan::ClusterSelectionMethod::leaf)
          .run_hdbscan(points);
  // Leaf selection is at least as fine-grained as excess-of-mass.
  EXPECT_GE(leaf.num_clusters, eom.num_clusters);
}

TEST(Pipeline, PhaseSinkObservesPipelinePhases) {
  const graph::EdgeList tree = make_tree(Topology::preferential, 5000, 8, 0);
  const exec::Executor executor(exec::default_backend());
  PhaseTimes times;
  executor.set_phase_times(&times);
  (void)Pipeline::on(executor).build_dendrogram(tree, 5000);
  executor.set_phase_times(nullptr);
  EXPECT_GT(times.get("sort"), 0.0);
  EXPECT_GT(times.get("contraction"), 0.0);
  EXPECT_GT(times.get("expansion"), 0.0);
}

}  // namespace
