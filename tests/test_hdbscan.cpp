#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "pandora/data/point_generators.hpp"
#include "pandora/dendrogram/analysis.hpp"
#include "pandora/dendrogram/union_find_dendrogram.hpp"
#include "pandora/hdbscan/hdbscan.hpp"

namespace {

using namespace pandora;
using hdbscan::CondensedTree;
using hdbscan::HdbscanOptions;
using hdbscan::HdbscanResult;
using spatial::PointSet;

/// Three well-separated 2-D blobs with known membership.
PointSet three_blobs(index_t per_cluster, std::vector<index_t>& truth) {
  const double centers[3][2] = {{0.0, 0.0}, {10.0, 0.0}, {0.0, 10.0}};
  PointSet points(2, per_cluster * 3);
  Rng rng(123);
  truth.resize(static_cast<std::size_t>(per_cluster) * 3);
  for (index_t c = 0; c < 3; ++c)
    for (index_t i = 0; i < per_cluster; ++i) {
      const index_t id = c * per_cluster + i;
      points.at(id, 0) = centers[c][0] + 0.1 * rng.normal();
      points.at(id, 1) = centers[c][1] + 0.1 * rng.normal();
      truth[static_cast<std::size_t>(id)] = c;
    }
  return points;
}

bool labels_refine_truth(const std::vector<index_t>& labels, const std::vector<index_t>& truth) {
  // Every non-noise label must map to exactly one ground-truth cluster.
  std::map<index_t, index_t> label_to_truth;
  for (std::size_t i = 0; i < labels.size(); ++i) {
    if (labels[i] == kNone) continue;
    auto [it, fresh] = label_to_truth.try_emplace(labels[i], truth[i]);
    if (it->second != truth[i]) return false;
  }
  return true;
}

TEST(Hdbscan, RecoversThreeWellSeparatedBlobs) {
  std::vector<index_t> truth;
  const PointSet points = three_blobs(120, truth);
  HdbscanOptions options;
  options.min_pts = 4;
  options.min_cluster_size = 10;
  const HdbscanResult result = hdbscan::hdbscan(exec::default_executor(), points, options);
  EXPECT_EQ(result.num_clusters, 3);
  EXPECT_TRUE(labels_refine_truth(result.labels, truth));
  // Blobs are tight: the vast majority of points must be clustered.
  const auto noise = static_cast<index_t>(
      std::count(result.labels.begin(), result.labels.end(), kNone));
  EXPECT_LT(noise, 36);  // < 10%
}

TEST(Hdbscan, PandoraAndUnionFindPipelinesAgreeExactly) {
  // The pipeline's PANDORA dendrogram against the union-find baseline built
  // from the same mutual-reachability MST.
  const PointSet points = data::gaussian_blobs(1500, 3, 8, 0.03, 0.05, 31);
  for (const int min_pts : {2, 4, 8}) {
    HdbscanOptions options;
    options.min_pts = min_pts;
    const HdbscanResult result = hdbscan::hdbscan(exec::default_executor(), points, options);
    const dendrogram::Dendrogram baseline =
        dendrogram::union_find_dendrogram(exec::default_executor(), result.mst, points.size());
    ASSERT_EQ(result.dendrogram.parent, baseline.parent) << "min_pts=" << min_pts;
  }
}

TEST(Hdbscan, SerialAndParallelSpacesAgreeExactly) {
  const PointSet points = data::power_law_blobs(1200, 2, 15, 1.3, 77);
  HdbscanOptions serial_options;

  HdbscanOptions parallel_options;

  const HdbscanResult a =
      hdbscan::hdbscan(exec::default_executor(exec::serial_backend()), points, serial_options);
  const HdbscanResult b =
      hdbscan::hdbscan(exec::default_executor(), points, parallel_options);
  EXPECT_EQ(a.dendrogram.parent, b.dendrogram.parent);
  EXPECT_EQ(a.labels, b.labels);
}

TEST(Hdbscan, NoiseGetsRejectedOnUniformBackground) {
  // Two dense blobs plus 30% uniform background: background points should be
  // mostly noise.
  PointSet points(2, 1000);
  Rng rng(5);
  for (index_t i = 0; i < 1000; ++i) {
    if (i < 350) {
      points.at(i, 0) = 0.2 + 0.005 * rng.normal();
      points.at(i, 1) = 0.2 + 0.005 * rng.normal();
    } else if (i < 700) {
      points.at(i, 0) = 0.8 + 0.005 * rng.normal();
      points.at(i, 1) = 0.8 + 0.005 * rng.normal();
    } else {
      points.at(i, 0) = rng.next_double();
      points.at(i, 1) = rng.next_double();
    }
  }
  HdbscanOptions options;
  options.min_pts = 8;
  options.min_cluster_size = 25;
  const HdbscanResult result = hdbscan::hdbscan(exec::default_executor(), points, options);
  EXPECT_GE(result.num_clusters, 2);
  index_t background_noise = 0;
  for (index_t i = 700; i < 1000; ++i)
    if (result.labels[static_cast<std::size_t>(i)] == kNone) ++background_noise;
  EXPECT_GT(background_noise, 100) << "most of the uniform background should be noise";
  // And the dense blobs themselves must be almost fully clustered.
  index_t blob_noise = 0;
  for (index_t i = 0; i < 700; ++i)
    if (result.labels[static_cast<std::size_t>(i)] == kNone) ++blob_noise;
  EXPECT_LT(blob_noise, 70);
}

TEST(CondensedTreeTest, SizesAndStabilitiesAreConsistent) {
  const PointSet points = data::gaussian_blobs(600, 2, 5, 0.04, 0.1, 13);
  const HdbscanResult result = hdbscan::hdbscan(exec::default_executor(), points, {});
  const CondensedTree& tree = result.condensed_tree;
  ASSERT_GE(tree.num_clusters(), 1);
  EXPECT_EQ(tree.clusters[0].size, points.size());
  for (index_t c = 0; c < tree.num_clusters(); ++c) {
    const auto& cluster = tree.clusters[static_cast<std::size_t>(c)];
    EXPECT_GE(cluster.stability, 0.0) << c;
    EXPECT_GE(cluster.death_lambda, cluster.birth_lambda) << c;
    if (cluster.child_a != kNone) {
      const auto& ca = tree.clusters[static_cast<std::size_t>(cluster.child_a)];
      const auto& cb = tree.clusters[static_cast<std::size_t>(cluster.child_b)];
      EXPECT_EQ(ca.parent, c);
      EXPECT_EQ(cb.parent, c);
      EXPECT_LE(ca.size + cb.size, cluster.size);
      EXPECT_GE(ca.birth_lambda, cluster.birth_lambda);
    }
  }
  // Every point belongs to a valid cluster and has a sane exit density.
  for (index_t p = 0; p < points.size(); ++p) {
    const index_t c = tree.point_cluster[static_cast<std::size_t>(p)];
    ASSERT_GE(c, 0);
    ASSERT_LT(c, tree.num_clusters());
    EXPECT_GE(tree.point_lambda[static_cast<std::size_t>(p)],
              tree.clusters[static_cast<std::size_t>(c)].birth_lambda);
  }
}

TEST(CondensedTreeTest, MinClusterSizeOneMirrorsDendrogram) {
  const PointSet points = data::uniform_points(64, 2, 2);
  HdbscanOptions options;
  options.min_cluster_size = 1;
  const HdbscanResult result = hdbscan::hdbscan(exec::default_executor(), points, options);
  // With mcs = 1 every dendrogram split is a true split: one cluster per
  // edge node plus the root.
  EXPECT_EQ(result.condensed_tree.num_clusters(),
            2 * result.dendrogram.num_edges + 1);
}

TEST(CondensedTreeTest, LargeMinClusterSizeYieldsSingleRootNoExtraction) {
  const PointSet points = data::uniform_points(200, 2, 4);
  HdbscanOptions options;
  options.min_cluster_size = 200;  // nothing can split
  const HdbscanResult result = hdbscan::hdbscan(exec::default_executor(), points, options);
  EXPECT_EQ(result.condensed_tree.num_clusters(), 1);
  EXPECT_EQ(result.num_clusters, 0);  // root not selectable by default
  EXPECT_TRUE(std::all_of(result.labels.begin(), result.labels.end(),
                          [](index_t l) { return l == kNone; }));
}

TEST(CondensedTreeTest, AllowSingleClusterLabelsEverythingInOneBlob) {
  const PointSet points = data::gaussian_blobs(300, 2, 1, 0.02, 0.0, 6);
  HdbscanOptions options;
  options.min_cluster_size = 50;
  options.allow_single_cluster = true;
  const HdbscanResult result = hdbscan::hdbscan(exec::default_executor(), points, options);
  EXPECT_GE(result.num_clusters, 1);
  const auto clustered = static_cast<index_t>(std::count_if(
      result.labels.begin(), result.labels.end(), [](index_t l) { return l != kNone; }));
  EXPECT_GT(clustered, 250);
}

TEST(Hdbscan, MinPtsMonotonicallyLoosensDendrogram) {
  // Larger minPts -> larger mutual reachability distances -> heavier MST.
  const PointSet points = data::gaussian_blobs(400, 2, 4, 0.05, 0.1, 41);
  double previous = 0;
  for (const int min_pts : {2, 4, 8, 16}) {
    HdbscanOptions options;
    options.min_pts = min_pts;
    const HdbscanResult result = hdbscan::hdbscan(exec::default_executor(), points, options);
    const double w = graph::total_weight(result.mst);
    EXPECT_GE(w, previous - 1e-12);
    previous = w;
  }
}

TEST(Hdbscan, PhaseTimesCoverThePipeline) {
  const PointSet points = data::uniform_points(5000, 3, 15);
  const HdbscanResult result = hdbscan::hdbscan(exec::default_executor(), points, {});
  for (const char* phase : {"core_distance", "mst", "condense", "extract"})
    EXPECT_GT(result.times.get(phase), 0.0) << phase;
  // Pandora's dendrogram phases.
  EXPECT_GT(result.times.get("sort") + result.times.get("contraction") +
                result.times.get("expansion"),
            0.0);
}

TEST(Hdbscan, PhaseTimesRouteToTheResultAndRestoreTheCallersSink) {
  const PointSet points = data::uniform_points(2000, 3, 16);
  const exec::Executor executor(exec::serial_backend());
  PhaseTimes caller;
  executor.set_phase_times(&caller);
  const HdbscanResult result = hdbscan::hdbscan(executor, points, {});
  EXPECT_EQ(executor.phase_times(), &caller);
  executor.set_phase_times(nullptr);
  EXPECT_TRUE(caller.all().empty()) << "hdbscan() phases belong to result.times";
  EXPECT_GT(result.times.get("mst"), 0.0);
}

}  // namespace
