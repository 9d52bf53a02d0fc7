// Figure 12: speed-up of the accelerated space over the serial space for the
// individual phases of HDBSCAN* with PANDORA: EMST construction, total
// dendrogram, and the dendrogram's internal sort / contraction / expansion.
// The paper's observation to reproduce: sorting scales best, multilevel
// contraction scales worst, and the dendrogram total sits in between.

#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "pandora/pipeline.hpp"

using namespace pandora;

namespace {

constexpr int kRepeats = 3;

struct PhaseSeconds {
  double mst = 0, dendrogram = 0, sort = 0, contraction = 0, expansion = 0;
};

/// Medians of kRepeats warm runs on `space`: the MR-MST build, the whole
/// dendrogram build, and the dendrogram's sort / contraction / expansion.
PhaseSeconds run_pipeline(const std::string& name, index_t n, std::shared_ptr<const exec::Backend> space) {
  PhaseSeconds out;
  const exec::Executor executor(std::move(space));
  executor.set_artifact_caching(false);  // every run sorts and contracts for real
  // prepare_dataset's own MR-MST build doubles as the warm-up.
  const bench::PreparedDataset prepared = bench::prepare_dataset(name, n, 2, executor);
  out.mst = bench::measure(kRepeats, [&] {
              (void)spatial::mutual_reachability_mst(executor, *prepared.points, *prepared.tree,
                                                     prepared.core);
            }).median();
  const bench::PhaseMeasurement dendrogram = bench::measure_phases(executor, kRepeats, [&] {
    (void)dendrogram::pandora_dendrogram(executor, prepared.mst, prepared.n);
  });
  out.dendrogram = dendrogram.wall.median();
  out.sort = dendrogram.median("sort");
  out.contraction = dendrogram.median("contraction");
  out.expansion = dendrogram.median("expansion");
  return out;
}

}  // namespace

int main() {
  bench::print_header(
      "Per-phase speed-up of the parallel space over the serial space",
      "Figure 12 (speed-up of MI250X over EPYC 7A53 by HDBSCAN* phase)");

  const std::vector<std::string> datasets = {"Normal2D",  "HaccProxy",  "Uniform3D",
                                             "Pamap2Proxy", "FarmProxy", "VisualSim5D"};
  std::printf("%-14s | %8s %10s %8s %12s %10s\n", "dataset", "mst", "dendrogram", "sort",
              "contraction", "expansion");
  for (const auto& name : datasets) {
    const index_t n = bench::scaled(250000);
    const PhaseSeconds serial = run_pipeline(name, n, exec::serial_backend());
    const PhaseSeconds parallel = run_pipeline(name, n, exec::default_backend());
    auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
    std::printf("%-14s | %7.1fx %9.1fx %7.1fx %11.1fx %9.1fx\n", name.c_str(),
                ratio(serial.mst, parallel.mst), ratio(serial.dendrogram, parallel.dendrogram),
                ratio(serial.sort, parallel.sort),
                ratio(serial.contraction, parallel.contraction),
                ratio(serial.expansion, parallel.expansion));
  }
  std::printf(
      "\nExpected shape (paper): sorting is the most scalable phase, multilevel\n"
      "contraction the least (3-5x there vs 10-20x for sort); overall dendrogram\n"
      "speed-up lands between the two.\n");
  return 0;
}
