// End-to-end integration across modules: generators -> kd-tree -> EMST ->
// dendrogram (all algorithms, all spaces) -> analysis -> clustering, on every
// Table 2 dataset family at test scale.

#include <gtest/gtest.h>

#include <cmath>

#include "pandora/data/point_generators.hpp"
#include "pandora/dendrogram/analysis.hpp"
#include "pandora/dendrogram/pandora.hpp"
#include "pandora/dendrogram/union_find_dendrogram.hpp"
#include "pandora/graph/mst.hpp"
#include "pandora/graph/tree.hpp"
#include "pandora/hdbscan/core_distance.hpp"
#include "pandora/hdbscan/hdbscan.hpp"
#include "pandora/spatial/emst.hpp"

namespace {

using namespace pandora;
using dendrogram::Dendrogram;
using spatial::KdTree;
using spatial::PointSet;

class DatasetSweep : public ::testing::TestWithParam<std::string> {};

std::vector<std::string> dataset_names() {
  std::vector<std::string> names;
  for (const auto& spec : data::table2_datasets()) names.push_back(spec.name);
  return names;
}

INSTANTIATE_TEST_SUITE_P(Table2, DatasetSweep, ::testing::ValuesIn(dataset_names()),
                         [](const auto& info) { return info.param; });

TEST_P(DatasetSweep, FullPipelineAgreesAcrossAlgorithmsAndSpaces) {
  const index_t n = 3000;
  const PointSet points = data::make_dataset(GetParam(), n, 2024);
  KdTree tree(points);
  const auto core = hdbscan::core_distances(exec::default_executor(), points, tree, 2);
  const graph::EdgeList mst =
      spatial::mutual_reachability_mst(exec::default_executor(), points, tree, core);
  ASSERT_TRUE(graph::is_spanning_tree(mst, n));

  const Dendrogram reference = dendrogram::union_find_dendrogram(exec::default_executor(), mst, n);
  dendrogram::validate_dendrogram(reference);

  for (const auto& space : exec::registered_backends()) {
    const Dendrogram ours = dendrogram::pandora_dendrogram(exec::default_executor(space), mst, n);
    ASSERT_EQ(ours.parent, reference.parent) << GetParam() << " space=" << space->name();
  }
}

TEST_P(DatasetSweep, SkewnessIsSubstantialOnRealisticData) {
  // Table 2's point: real-world dendrograms are far from balanced.  Even at
  // test scale every dataset family should exceed the ideal height by a
  // healthy factor.
  const index_t n = 4000;
  const PointSet points = data::make_dataset(GetParam(), n, 7);
  KdTree tree(points);
  const auto core = hdbscan::core_distances(exec::default_executor(), points, tree, 2);
  const graph::EdgeList mst =
      spatial::mutual_reachability_mst(exec::default_executor(), points, tree, core);
  const Dendrogram d = dendrogram::pandora_dendrogram(exec::default_executor(), mst, n);
  EXPECT_GE(dendrogram::skewness(d), 1.5) << GetParam();
}

TEST(Integration, SkewnessOrderingMatchesTable2) {
  // The qualitative ordering of Table 2: the equal-density VisualSim family
  // is by far the least imbalanced (Imb 43 in the paper, vs ~1e5 for both
  // the cosmology and the uniform clouds).
  auto skewness_of = [](const std::string& name) {
    const index_t n = 5000;
    const PointSet points = data::make_dataset(name, n, 99);
    KdTree tree(points);
    const auto core = hdbscan::core_distances(exec::default_executor(), points, tree, 2);
    const graph::EdgeList mst =
        spatial::mutual_reachability_mst(exec::default_executor(), points, tree, core);
    return dendrogram::skewness(dendrogram::pandora_dendrogram(exec::default_executor(), mst, n));
  };
  const double sim = skewness_of("VisualSim5D");
  EXPECT_GT(skewness_of("HaccProxy"), 1.2 * sim);
  EXPECT_GT(skewness_of("Uniform3D"), 1.2 * sim);
}

TEST(Integration, EuclideanPipelineMatchesGraphMst) {
  // Single-linkage over an explicit distance graph must equal the spatial
  // pipeline when the graph contains the EMST edges.
  const PointSet points = data::gaussian_blobs(400, 2, 4, 0.05, 0.1, 55);
  KdTree tree(points);
  const graph::EdgeList emst = spatial::euclidean_mst(exec::default_executor(), points, tree);

  // Build a k-NN graph and force EMST containment (k-NN graphs can miss long
  // bridge edges), then extract its MST with Borůvka and compare dendrograms.
  graph::EdgeList knn_graph = emst;
  std::vector<spatial::Neighbor> neighbors;
  std::vector<index_t> rank_of(static_cast<std::size_t>(points.size()));
  for (index_t r = 0; r < points.size(); ++r)
    rank_of[static_cast<std::size_t>(tree.tree_order()[static_cast<std::size_t>(r)])] = r;
  for (index_t q = 0; q < points.size(); ++q) {
    tree.knn(rank_of[static_cast<std::size_t>(q)], 12, neighbors);
    for (const auto& nb : neighbors)
      if (q < nb.index) knn_graph.push_back({q, nb.index, std::sqrt(nb.squared_distance)});
  }
  const graph::EdgeList graph_mst =
      graph::boruvka_mst(exec::default_executor(), knn_graph, points.size());
  EXPECT_NEAR(graph::total_weight(graph_mst), graph::total_weight(emst), 1e-9);

  const Dendrogram a = dendrogram::pandora_dendrogram(exec::default_executor(), emst, points.size());
  const Dendrogram b = dendrogram::pandora_dendrogram(exec::default_executor(), graph_mst, points.size());
  // The dendrograms are built from different-but-equal MSTs; cluster
  // structure at every cut must agree.
  for (const double t : {0.01, 0.05, 0.2, 1.0}) {
    const auto la = dendrogram::cut_labels(a, t);
    const auto lb = dendrogram::cut_labels(b, t);
    ASSERT_EQ(la, lb) << "cut at " << t;
  }
}

TEST(Integration, HdbscanEndToEndOnEveryDatasetFamily) {
  for (const auto& spec : data::table2_datasets()) {
    const PointSet points = data::make_dataset(spec.name, 1500, 3);
    hdbscan::HdbscanOptions options;
    options.min_pts = 4;
    options.min_cluster_size = 15;
    const auto result = hdbscan::hdbscan(exec::default_executor(), points, options);
    EXPECT_EQ(result.labels.size(), static_cast<std::size_t>(points.size())) << spec.name;
    dendrogram::validate_dendrogram(result.dendrogram);
    // Labels are dense in [0, num_clusters).
    for (const index_t l : result.labels)
      EXPECT_TRUE(l == kNone || (l >= 0 && l < result.num_clusters)) << spec.name;
  }
}

}  // namespace
