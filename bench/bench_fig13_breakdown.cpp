// Figure 13: breakdown of the time PANDORA spends in its three phases
// (sort / multilevel contraction / expansion), normalised per dataset, on the
// multithreaded space.  The paper's shape: sorting dominates (~0.7-0.85),
// contraction is second (~0.1-0.2), expansion is negligible.

#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "pandora/pipeline.hpp"

using namespace pandora;

int main() {
  bench::print_header("PANDORA phase breakdown (normalised, parallel space)", "Figure 13");

  const std::vector<std::string> datasets = {"Pamap2Proxy", "VisualSim5D", "FarmProxy",
                                             "HaccProxy",   "Normal2D",    "Uniform3D"};
  std::printf("%-14s | %10s %12s %11s\n", "dataset", "sort", "contraction", "expansion");
  for (const auto& name : datasets) {
    const index_t n = bench::scaled(400000);
    const exec::Executor executor(exec::default_backend());
    executor.set_artifact_caching(false);  // every run sorts for real
    const bench::PreparedDataset prepared = bench::prepare_dataset(name, n, 2, executor);
    // One warm-up call, then the median of five runs per phase.
    const bench::PhaseMeasurement m = bench::measure_phases(executor, 5, [&] {
      (void)dendrogram::pandora_dendrogram(executor, prepared.mst, prepared.n);
    });
    const double sort = m.median("sort");
    const double contraction = m.median("contraction");
    const double expansion = m.median("expansion");
    const double total = sort + contraction + expansion;
    std::printf("%-14s | %10.2f %12.2f %11.2f\n", name.c_str(), sort / total,
                contraction / total, expansion / total);
  }
  std::printf(
      "\nExpected shape (paper): sort_time dominant (0.67-0.85), contraction second\n"
      "(0.12-0.22), expansion small (0.03-0.10).\n");
  return 0;
}
