// Dendrogram skewness survey — the Section 3.1.3 / Table 2 analysis as a
// library application: how far from balanced are single-linkage dendrograms
// of realistic data, and what does that imply for parallel construction?
//
//   $ ./dendrogram_skewness [n]

#include <cstdio>
#include <cstdlib>

#include "pandora/data/point_generators.hpp"
#include "pandora/dendrogram/analysis.hpp"
#include "pandora/pipeline.hpp"
#include "pandora/spatial/kdtree.hpp"

int main(int argc, char** argv) {
  using namespace pandora;
  const index_t n = argc > 1 ? std::atoi(argv[1]) : 30000;
  const exec::Executor executor(exec::default_backend());

  std::printf("single-linkage dendrogram shape across dataset families (n=%d, mpts=2)\n\n",
              n);
  std::printf("%-16s %4s %8s %9s | %7s %7s %7s | %9s\n", "dataset", "dim", "height",
              "skewness", "leaf", "chain", "alpha", "levels~");
  for (const auto& spec : data::table2_datasets()) {
    const spatial::PointSet points = data::make_dataset(spec.name, n, 7);
    spatial::KdTree tree(executor, points);
    const graph::EdgeList mst = spatial::mutual_reachability_mst(
        executor, points, tree, hdbscan::core_distances(executor, points, tree, 2));
    const dendrogram::Dendrogram dendro =
        dendrogram::pandora_dendrogram(executor, mst, points.size());
    const auto counts = dendrogram::classify_edges(dendro);
    // Chain fraction implies how much a single contraction shrinks the tree.
    const double alpha_fraction =
        static_cast<double>(counts.alpha_edges) / static_cast<double>(dendro.num_edges);
    std::printf("%-16s %4d %8d %9.1f | %6.1f%% %6.1f%% %6.1f%% | %9.2f\n", spec.name.c_str(),
                spec.dim, dendrogram::height(dendro), dendrogram::skewness(dendro),
                100.0 * counts.leaf_edges / dendro.num_edges,
                100.0 * counts.chain_edges / dendro.num_edges, 100.0 * alpha_fraction,
                alpha_fraction > 0 ? 1.0 / alpha_fraction : 0.0);
  }
  std::printf(
      "\nTakeaways (match Section 3.1.3): every family is heavily skewed; chain\n"
      "edges dominate skewed dendrograms, which is exactly the structure PANDORA's\n"
      "chain-contraction exploits.\n");
  return 0;
}
