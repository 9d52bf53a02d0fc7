// Table 2: the dataset roster with dendrogram imbalance ("Imb" — the ratio of
// the dendrogram height to the ideal log2(n) height).  Every paper dataset is
// substituted by a deterministic generator of matching dimensionality and
// distribution shape (DESIGN.md); sizes are scaled to the machine, so the
// absolute Imb values are smaller than the paper's (height grows with n) but
// the qualitative ordering — VisualSim lowest by far, cosmology/GPS/uniform
// highly skewed — is the reproduced result.

#include <cstdio>

#include "bench_common.hpp"
#include "pandora/dendrogram/analysis.hpp"
#include "pandora/pipeline.hpp"

using namespace pandora;

int main() {
  const exec::Executor executor(exec::default_backend());
  bench::print_header("Dataset roster and dendrogram imbalance", "Table 2");

  std::printf("%-16s %-34s %4s %9s %8s %10s\n", "name", "substitutes", "dim", "npts",
              "height", "Imb");
  for (const auto& spec : data::table2_datasets()) {
    const index_t n = bench::scaled(static_cast<index_t>(spec.default_n / 4));
    const bench::PreparedDataset prepared =
        bench::prepare_dataset(spec.name, n, /*min_pts=*/2, executor);
    const auto dendro = dendrogram::pandora_dendrogram(executor, prepared.mst, prepared.n);
    std::printf("%-16s %-34s %4d %9d %8d %10.1f\n", spec.name.c_str(),
                spec.paper_name.c_str(), prepared.dim, prepared.n,
                dendrogram::height(dendro), dendrogram::skewness(dendro));
  }
  std::printf(
      "\nExpected shape (paper): all families are far from balanced (Imb >> 1);\n"
      "VisualSim is the least skewed (43 at paper scale), cosmology/GPS/uniform are\n"
      "orders of magnitude above the ideal height.\n");
  return 0;
}
