// Figure 1: time taken by the HDBSCAN* components (EMST and dendrogram) for
// the cosmology dataset under three configurations:
//   (a) everything sequential                       ["CPU"]
//   (b) parallel MST + sequential union-find        ["CPU + MST(GPU)"]
//   (c) parallel MST + parallel PANDORA dendrogram  ["CPU + MST(GPU) + Dendrogram(GPU)"]
// The paper's point: in (b) the dendrogram is 86% of the runtime; PANDORA
// shrinks it to ~26%.  Serial/parallel spaces stand in for CPU/GPU (see
// DESIGN.md).  Table 1's implementation inventory is reprinted for context.

#include <cstdio>

#include "bench_common.hpp"
#include "pandora/pipeline.hpp"

using namespace pandora;

namespace {

struct Config {
  const char* label;
  std::shared_ptr<const exec::Backend> mst_space;
  bool pandora;            // else union-find baseline
  std::shared_ptr<const exec::Backend> dendro_space;
};

}  // namespace

int main() {
  bench::print_header("HDBSCAN* component times on the cosmology proxy (HaccProxy)",
                      "Figure 1 (and Table 1 inventory)");

  std::printf(
      "\nTable 1 context — open-source dendrogram implementations:\n"
      "  scikit-learn / hdbscan (Python, R). sequential   -> union_find_dendrogram(serial)\n"
      "  Wang et al. [46] multithreaded (seq. UF core)    -> union_find_dendrogram(parallel sort)\n"
      "  rapidsai [21] GPU MST + sequential dendrogram    -> config (b) below\n"
      "  PANDORA (this paper)                             -> pandora_dendrogram(parallel)\n\n");

  const index_t n = bench::scaled(2000000);
  const Config configs[] = {
      {"(a) CPU serial: MST(serial)    + UnionFind(serial)", exec::serial_backend(), false,
       exec::serial_backend()},
      {"(b) status quo: MST(parallel)  + UnionFind(serial)", exec::default_backend(), false,
       exec::serial_backend()},
      {"(c) this paper: MST(parallel)  + Pandora(parallel)", exec::default_backend(), true,
       exec::default_backend()},
  };

  std::printf("%-55s %10s %12s %8s\n", "configuration", "mst [s]", "dendro [s]",
              "dendro%");
  double baseline_dendro = 0;
  double pandora_dendro = 0;
  for (const Config& config : configs) {
    const exec::Executor mst_executor(config.mst_space);
    const exec::Executor dendro_executor(config.dendro_space);
    const bench::PreparedDataset prepared =
        bench::prepare_dataset("HaccProxy", n, /*min_pts=*/2, mst_executor);
    double dendro_seconds = 0;
    if (config.pandora) {
      dendro_seconds = bench::best_of(3, [&] {
        (void)dendrogram::pandora_dendrogram(dendro_executor, prepared.mst, prepared.n);
      });
      pandora_dendro = dendro_seconds;
    } else {
      dendro_seconds = bench::best_of(3, [&] {
        (void)dendrogram::union_find_dendrogram(dendro_executor, prepared.mst, prepared.n);
      });
      baseline_dendro = dendro_seconds;  // config (b) is measured last of the two
    }
    const double total = prepared.mst_seconds + dendro_seconds;
    std::printf("%-55s %10.3f %12.3f %7.1f%%\n", config.label, prepared.mst_seconds,
                dendro_seconds, 100.0 * dendro_seconds / total);
  }
  std::printf("\ndendrogram speed-up (b)->(c): %.1fx  (the paper's headline arrow: 17.6x)\n",
              baseline_dendro / pandora_dendro);
  std::printf(
      "\nExpected shape (paper): the dendrogram dominates config (b) (86%% there) and\n"
      "Pandora removes it from the critical path.  Note the substrate substitution:\n"
      "the paper's MST runs on a GPU while ours is a CPU kd-tree Borůvka, so the\n"
      "*absolute* dendrogram share here is smaller; the reproduced shape is the\n"
      "(b)->(c) dendrogram speed-up and the share collapse between (b) and (c).\n");
  return 0;
}
