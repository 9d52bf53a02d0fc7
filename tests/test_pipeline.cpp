// The pipeline's executor-based entry points end to end: the sorted-edges
// path, front-door tree validation, selection options and the PhaseTimes
// sink, all through the free functions every caller uses.

#include <gtest/gtest.h>

#include "pandora/data/point_generators.hpp"
#include "pandora/pipeline.hpp"
#include "test_helpers.hpp"

namespace {

using namespace pandora;
using pandora::testing::Topology;
using pandora::testing::make_tree;

TEST(Pipeline, SortedEdgesPathSharesOneSort) {
  const graph::EdgeList tree = make_tree(Topology::broom, 3000, 2, 0);
  const exec::Executor executor(exec::default_backend());
  const auto sorted = dendrogram::sort_edges(executor, tree, 3000);
  const auto from_sorted = dendrogram::pandora_dendrogram(executor, sorted);
  const auto from_edges = dendrogram::pandora_dendrogram(executor, tree, 3000);
  EXPECT_EQ(from_sorted.parent, from_edges.parent);
  EXPECT_EQ(dendrogram::union_find_dendrogram(executor, sorted).parent, from_edges.parent);
}

TEST(Pipeline, ValidationRejectsNonTrees) {
  const graph::EdgeList cycle{{0, 1, 1.0}, {1, 2, 2.0}, {2, 0, 3.0}};
  const exec::Executor executor(exec::serial_backend());
  dendrogram::PandoraOptions validating;
  validating.validate_input = true;
  EXPECT_THROW((void)dendrogram::pandora_dendrogram(executor, cycle, 3, validating),
               std::invalid_argument);
  EXPECT_THROW((void)dendrogram::union_find_dendrogram(executor, cycle, 3, true),
               std::invalid_argument);
}

TEST(Pipeline, SelectionOptionsReachExtraction) {
  const spatial::PointSet points = data::power_law_blobs(1000, 2, 10, 1.3, 6);
  const exec::Executor executor(exec::default_backend());
  hdbscan::HdbscanOptions options;
  options.min_pts = 3;
  options.min_cluster_size = 10;
  const auto eom = hdbscan::hdbscan(executor, points, options);
  options.cluster_selection_method = hdbscan::ClusterSelectionMethod::leaf;
  const auto leaf = hdbscan::hdbscan(executor, points, options);
  // Leaf selection is at least as fine-grained as excess-of-mass.
  EXPECT_GE(leaf.num_clusters, eom.num_clusters);
}

TEST(Pipeline, PhaseSinkObservesDendrogramPhases) {
  const graph::EdgeList tree = make_tree(Topology::preferential, 5000, 8, 0);
  const exec::Executor executor(exec::default_backend());
  PhaseTimes times;
  executor.set_phase_times(&times);
  (void)dendrogram::pandora_dendrogram(executor, tree, 5000);
  executor.set_phase_times(nullptr);
  EXPECT_GT(times.get("sort"), 0.0);
  EXPECT_GT(times.get("contraction"), 0.0);
  EXPECT_GT(times.get("expansion"), 0.0);
}

}  // namespace
