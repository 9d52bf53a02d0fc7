// Quickstart: build a single-linkage dendrogram for a small point cloud with
// the PANDORA algorithm and read clusters off it.
//
//   $ ./quickstart
//
// Walks through the whole public API surface in ~60 lines: generate points,
// build the Euclidean MST, construct the dendrogram, inspect its structure,
// and extract flat clusters at a distance threshold.

#include <cstdio>

#include "pandora/data/point_generators.hpp"
#include "pandora/dendrogram/analysis.hpp"
#include "pandora/dendrogram/pandora.hpp"
#include "pandora/spatial/emst.hpp"
#include "pandora/spatial/kdtree.hpp"

int main() {
  using namespace pandora;

  // 0. The execution context: backend choice + reusable scratch arena +
  //    optional phase-time sink.  Construct one and reuse it for every query.
  const exec::Executor executor(exec::default_backend());

  // 1. Some clustered 2-D data: four Gaussian blobs, 2000 points.
  const spatial::PointSet points = data::gaussian_blobs(
      /*n=*/2000, /*dim=*/2, /*clusters=*/4, /*spread=*/0.02, /*noise_fraction=*/0.05,
      /*seed=*/42);

  // 2. Its Euclidean minimum spanning tree (parallel Borůvka over a kd-tree).
  spatial::KdTree tree(executor, points);
  const graph::EdgeList mst = spatial::euclidean_mst(executor, points, tree);
  std::printf("EMST: %zu edges over %d points\n", mst.size(), points.size());

  // 3. The dendrogram, via PANDORA (recursive tree contraction).  A
  //    PhaseTimes sink installed on the executor shows where the time goes
  //    (sort / contraction / expansion).
  PhaseTimes times;
  executor.set_phase_times(&times);
  dendrogram::PandoraOptions options;
  options.validate_input = true;  // we are no hot loop: check the tree
  const dendrogram::Dendrogram dendro =
      dendrogram::pandora_dendrogram(executor, mst, points.size(), options);
  executor.set_phase_times(nullptr);

  std::printf("dendrogram: root edge weight %.4f, height %d, skewness %.1f\n",
              dendro.weight[0], dendrogram::height(dendro), dendrogram::skewness(dendro));
  const auto counts = dendrogram::classify_edges(dendro);
  std::printf("edge nodes: %d leaf, %d chain, %d alpha\n", counts.leaf_edges,
              counts.chain_edges, counts.alpha_edges);
  for (const auto& [phase, seconds] : times.all())
    std::printf("  %-12s %.4fs\n", phase.c_str(), seconds);

  // 4. Flat single-linkage clusters: cut all edges longer than 0.1.
  const std::vector<index_t> labels = dendrogram::cut_labels(dendro, 0.1);
  index_t num_clusters = 0;
  for (const index_t l : labels) num_clusters = std::max(num_clusters, l + 1);
  std::printf("cut at 0.1: %d clusters\n", num_clusters);

  // 5. Sizes of the four biggest clusters (the planted blobs).
  std::vector<index_t> sizes(static_cast<std::size_t>(num_clusters), 0);
  for (const index_t l : labels) ++sizes[static_cast<std::size_t>(l)];
  std::sort(sizes.rbegin(), sizes.rend());
  std::printf("largest clusters:");
  for (index_t i = 0; i < std::min<index_t>(4, num_clusters); ++i)
    std::printf(" %d", sizes[static_cast<std::size_t>(i)]);
  std::printf("\n");
  return 0;
}
