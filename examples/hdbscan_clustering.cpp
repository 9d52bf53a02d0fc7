// HDBSCAN* end to end: density-based clustering with noise rejection on data
// with clusters of very different densities — the workload class the paper's
// introduction motivates (Section 6.5).
//
//   $ ./hdbscan_clustering [n]
//
// Prints the phase breakdown that makes the paper's Figure 1 argument, then
// rebuilds the dendrogram of the same MST with the union-find baseline and
// verifies it is identical to the PANDORA one.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>

#include "pandora/data/point_generators.hpp"
#include "pandora/pipeline.hpp"

int main(int argc, char** argv) {
  using namespace pandora;
  const index_t n = argc > 1 ? std::atoi(argv[1]) : 50000;

  // Power-law blobs: many clusters spanning a decade of densities plus
  // implicit background sparsity — hard for flat DBSCAN, natural for HDBSCAN*.
  const spatial::PointSet points = data::power_law_blobs(n, 2, 40, 1.3, 7);

  const exec::Executor executor(exec::default_backend());
  hdbscan::HdbscanOptions options;
  options.min_pts = 4;
  options.min_cluster_size = 25;

  const hdbscan::HdbscanResult result = hdbscan::hdbscan(executor, points, options);

  std::printf("HDBSCAN* on %d points (minPts=%d, minClusterSize=%d)\n", points.size(),
              4, 25);
  std::printf("clusters found: %d\n", result.num_clusters);
  const auto noise = static_cast<index_t>(
      std::count(result.labels.begin(), result.labels.end(), kNone));
  std::printf("noise points: %d (%.1f%%)\n", noise, 100.0 * noise / points.size());

  std::map<index_t, index_t> sizes;
  for (const index_t l : result.labels)
    if (l != kNone) ++sizes[l];
  std::vector<index_t> sorted_sizes;
  for (const auto& [_, s] : sizes) sorted_sizes.push_back(s);
  std::sort(sorted_sizes.rbegin(), sorted_sizes.rend());
  std::printf("largest clusters:");
  for (std::size_t i = 0; i < std::min<std::size_t>(8, sorted_sizes.size()); ++i)
    std::printf(" %d", sorted_sizes[i]);
  std::printf("\n\nphase breakdown (the Figure 1 story):\n");
  for (const auto& [phase, seconds] : result.times.all())
    std::printf("  %-14s %8.4fs\n", phase.c_str(), seconds);

  // Cross-check against the union-find baseline on the same MST: the
  // dendrograms must be identical.
  const Timer timer;
  const dendrogram::Dendrogram baseline =
      dendrogram::union_find_dendrogram(executor, result.mst, points.size());
  const double baseline_seconds = timer.seconds();
  std::printf("\nbaseline (union-find) agrees: %s\n",
              baseline.parent == result.dendrogram.parent ? "yes" : "NO (bug!)");
  std::printf("dendrogram time: pandora %.4fs vs union-find %.4fs\n",
              result.times.get("sort") + result.times.get("contraction") +
                  result.times.get("expansion"),
              baseline_seconds);
  return 0;
}
