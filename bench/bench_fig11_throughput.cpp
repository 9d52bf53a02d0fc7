// Figure 11: dendrogram-construction throughput (MPoints/sec) across the
// dataset roster for:
//   * UnionFind   — Algorithm 2 baseline (parallel sort, sequential merge
//                   loop), the "Union-Find (AMD 7A53-64c)" bars;
//   * Pandora(1T) — PANDORA in the serial space, the single-thread reference;
//   * Pandora(MT) — PANDORA in the parallel space, standing in for the
//                   GPU bars (MI250X / A100).
// The reproduced shape: PANDORA-parallel beats the union-find baseline on
// every dataset, with the largest gains on the most skewed dendrograms.
//
// The initial descending-(weight, id) edge sort — the phase the paper's
// Figure 12 shows dominating dendrogram time — is also measured on its own,
// so the JSON artifact tracks the edge-sort trajectory across PRs.

#include <cstdio>

#include "bench_common.hpp"
#include "pandora/dendrogram/mixed.hpp"
#include "pandora/dendrogram/sorted_edges.hpp"
#include "pandora/pipeline.hpp"

using namespace pandora;

int main() {
  const exec::Executor parallel_executor(exec::default_backend());
  const exec::Executor serial_executor(exec::serial_backend());
  // Construction algorithms are compared cold: the cross-call SortedEdges
  // cache would otherwise let every repeat replay the first sort.  (The
  // cache's own benefit is measured separately below and in fig14.)
  parallel_executor.set_artifact_caching(false);
  serial_executor.set_artifact_caching(false);
  bench::print_header("Dendrogram construction throughput (MPoints/sec, higher is better)",
                      "Figure 11 (plus the Section 2.3.3 mixed baseline)");
  bench::JsonReport json("fig11");

  std::printf("%-16s %9s | %12s %12s %12s %12s | %10s %10s | %9s\n", "dataset", "npts",
              "UnionFind", "Mixed(MT)", "Pandora(1T)", "Pandora(MT)", "radix [ms]",
              "emst [ms]", "speedup");
  for (const auto& spec : data::table2_datasets()) {
    const index_t n = bench::scaled(static_cast<index_t>(spec.default_n / 2));
    const bench::PreparedDataset prepared =
        bench::prepare_dataset(spec.name, n, /*min_pts=*/2, parallel_executor);

    const bench::Measurement m_uf = bench::measure(3, [&] {
      (void)dendrogram::union_find_dendrogram(parallel_executor, prepared.mst, prepared.n);
    });
    const bench::Measurement m_mixed = bench::measure(3, [&] {
      (void)dendrogram::mixed_dendrogram(parallel_executor, prepared.mst, prepared.n, 0.1);
    });
    const bench::Measurement m_serial = bench::measure(3, [&] {
      (void)dendrogram::pandora_dendrogram(serial_executor, prepared.mst, prepared.n);
    });
    const bench::Measurement m_parallel = bench::measure(3, [&] {
      (void)dendrogram::pandora_dendrogram(parallel_executor, prepared.mst, prepared.n);
    });
    // The Section 3.1.1 edge sort on its own (the Figure 12/13 hot phase).
    const bench::Measurement m_sort = bench::measure(5, [&] {
      (void)dendrogram::sort_edges(parallel_executor, prepared.mst, prepared.n);
    });
    // The EMST phase on its own, edge sort excluded: this is the column the
    // SoA/SIMD distance kernels move (Borůvka leaf scans are its hot loop).
    const bench::Measurement m_emst = bench::measure(3, [&] {
      (void)spatial::mutual_reachability_mst(parallel_executor, *prepared.points,
                                             *prepared.tree, prepared.core);
    });

    const double t_uf = m_uf.best();
    const double t_parallel = m_parallel.best();
    std::printf("%-16s %9d | %12.1f %12.1f %12.1f %12.1f | %10.2f %10.2f | %8.1fx\n",
                spec.name.c_str(), prepared.n, bench::mpoints_per_sec(prepared.n, t_uf),
                bench::mpoints_per_sec(prepared.n, m_mixed.best()),
                bench::mpoints_per_sec(prepared.n, m_serial.best()),
                bench::mpoints_per_sec(prepared.n, t_parallel), 1e3 * m_sort.median(),
                1e3 * m_emst.median(), t_uf / t_parallel);

    json.field("dataset", spec.name)
        .field("n", prepared.n)
        .timing("union_find", m_uf)
        .timing("mixed", m_mixed)
        .timing("pandora_serial", m_serial)
        .timing("pandora_parallel", m_parallel)
        .timing("edge_sort", m_sort)
        .timing("emst", m_emst)
        .field("pandora_mpoints_per_sec", bench::mpoints_per_sec(prepared.n, t_parallel));
    json.end_row();
  }
  std::printf(
      "\nExpected shape (paper): multithreaded Pandora ~0.7-2.2x UnionFind; the\n"
      "accelerated space adds another large factor (6-37x on GPUs there), uniformly\n"
      "across skewness levels.\n");
  return 0;
}
