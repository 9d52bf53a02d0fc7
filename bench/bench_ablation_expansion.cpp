// Ablation A (DESIGN.md): multilevel expansion (Section 3.3.2) against
// dendrogram skewness.  Multilevel expansion is O(n log n) whatever the
// shape of the dendrogram, which is the work-optimality claim of Section 4.
// Synthetic topologies sweep the skewness axis; the EMST of the cosmology
// proxy provides a realistic instance, and also hosts the Section 5
// Euler-tour comparison.

#include <cstdio>
#include <string>

#include "bench_common.hpp"
#include "pandora/common/rng.hpp"
#include "pandora/data/tree_generators.hpp"
#include "pandora/dendrogram/analysis.hpp"
#include "pandora/graph/euler_tour.hpp"
#include "pandora/pipeline.hpp"

using namespace pandora;

namespace {

void run_case(const exec::Executor& executor, const std::string& label,
              const graph::EdgeList& tree, index_t nv) {
  const auto pipeline = Pipeline::on(executor);
  const auto dendro = pipeline.build_dendrogram(tree, nv);
  const double t_multi = bench::best_of(3, [&] {
    (void)pipeline.build_dendrogram(tree, nv);
  });
  std::printf("%-28s %9d %10.1f | %12.3fs\n", label.c_str(), nv - 1,
              dendrogram::skewness(dendro), t_multi);
}

}  // namespace

int main() {
  bench::print_header("Ablation: multilevel expansion time against skewness",
                      "Section 3.3.2 (work-optimality claim of Section 4)");

  const exec::Executor executor(exec::default_backend());
  const index_t nv = bench::scaled(400000);
  std::printf("%-28s %9s %10s | %12s\n", "tree", "edges", "skewness", "multilevel");

  Rng rng(17);
  {
    graph::EdgeList tree = data::preferential_attachment_tree(nv, rng);
    data::assign_random_weights(tree, rng);
    run_case(executor, "preferential-attachment", tree, nv);
  }
  {
    graph::EdgeList tree = data::random_attachment_tree(nv, rng);
    data::assign_random_weights(tree, rng);
    run_case(executor, "random-attachment", tree, nv);
  }
  {
    graph::EdgeList tree = data::caterpillar_tree(nv);
    data::assign_random_weights(tree, rng);
    run_case(executor, "caterpillar", tree, nv);
  }
  {
    graph::EdgeList tree = data::balanced_tree(nv);
    data::assign_random_weights(tree, rng);
    run_case(executor, "balanced", tree, nv);
  }
  {
    const bench::PreparedDataset prepared =
        bench::prepare_dataset("HaccProxy", nv, 2, executor);
    run_case(executor, "HaccProxy EMST", prepared.mst, prepared.n);

    // Section 5's rejected alternative: converting the edge-list MST into an
    // Euler tour (parallel list ranking) before any dendrogram work.  The
    // paper's finding to reproduce: the conversion alone costs about as much
    // as the entire contraction-based dendrogram construction.
    const double t_euler = bench::best_of(3, [&] {
      (void)graph::build_euler_tour(executor, prepared.mst, prepared.n, 0);
    });
    const auto pipeline = Pipeline::on(executor);
    const double t_full = bench::best_of(3, [&] {
      (void)pipeline.build_dendrogram(prepared.mst, prepared.n);
    });
    std::printf(
        "\nEuler-tour conversion (Section 5 alternative) on HaccProxy EMST:\n"
        "  edge list -> Euler tour (list ranking): %.3fs\n"
        "  full PANDORA dendrogram construction:   %.3fs   (ratio %.2fx)\n",
        t_euler, t_full, t_euler / t_full);
  }
  std::printf(
      "\nExpected shape: multilevel time stays flat as skewness grows (O(n log n)\n"
      "work on every topology); the Euler-tour conversion alone costs about as\n"
      "much as the full construction (the paper's Section 5 finding).\n");
  return 0;
}
