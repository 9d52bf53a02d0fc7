// Ablation A (DESIGN.md): multilevel expansion (Section 3.3.2) against
// dendrogram skewness.  Multilevel expansion is O(n log n) whatever the
// shape of the dendrogram, which is the work-optimality claim of Section 4.
// Synthetic topologies sweep the skewness axis, including the monotone
// (increasing-weight) path, caterpillar and randomly relabelled path whose
// dendrograms are single chains; the EMST of the cosmology proxy provides a
// realistic instance, and also hosts the Section 5 Euler-tour comparison.
// Every row is timed on the full-thread and on the serial backend, with the
// contraction and expansion phases beside the total, so a multi-thread
// slowdown on a skewed tree shows in the layer that causes it.

#include <cstdio>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "pandora/common/rng.hpp"
#include "pandora/data/tree_generators.hpp"
#include "pandora/dendrogram/analysis.hpp"
#include "pandora/graph/euler_tour.hpp"
#include "pandora/pipeline.hpp"

using namespace pandora;

namespace {

/// Median dendrogram time over 3 warm runs (the sort replays from the
/// artifact cache) and the median contraction and expansion phases, in
/// milliseconds.
struct Timing {
  double total, contraction, expansion;
};

Timing time_dendrogram(const exec::Executor& executor, const graph::EdgeList& tree, index_t nv) {
  const bench::PhaseMeasurement m = bench::measure_phases(
      executor, 3, [&] { (void)dendrogram::pandora_dendrogram(executor, tree, nv); });
  return {1e3 * m.wall.median(), 1e3 * m.median("contraction"), 1e3 * m.median("expansion")};
}

void run_case(const exec::Executor& executor, const exec::Executor& serial,
              const std::string& label, const graph::EdgeList& tree, index_t nv) {
  const auto dendro = dendrogram::pandora_dendrogram(executor, tree, nv);
  const Timing full = time_dendrogram(executor, tree, nv);
  const Timing one = time_dendrogram(serial, tree, nv);
  std::printf("%-28s %9d %10.1f | %9.2f %9.2f | %9.2f %9.2f | %9.2f %9.2f\n", label.c_str(),
              nv - 1, dendrogram::skewness(dendro), full.total, one.total, full.contraction,
              one.contraction, full.expansion, one.expansion);
}

}  // namespace

int main() {
  bench::print_header("Ablation: multilevel expansion time against skewness",
                      "Section 3.3.2 (work-optimality claim of Section 4)");

  const exec::Executor executor(exec::default_backend());
  const exec::Executor serial(exec::serial_backend());
  const index_t nv = bench::scaled(400000);
  std::printf("%-28s %9s %10s | %9s %9s | %9s %9s | %9s %9s\n", "tree", "edges", "skewness",
              "total ms", "total 1t", "contract", "contr 1t", "expand", "expand 1t");

  Rng rng(17);
  {
    graph::EdgeList tree = data::preferential_attachment_tree(nv, rng);
    data::assign_random_weights(tree, rng);
    run_case(executor, serial, "preferential-attachment", tree, nv);
  }
  {
    graph::EdgeList tree = data::random_attachment_tree(nv, rng);
    data::assign_random_weights(tree, rng);
    run_case(executor, serial, "random-attachment", tree, nv);
  }
  {
    graph::EdgeList tree = data::caterpillar_tree(nv);
    data::assign_random_weights(tree, rng);
    run_case(executor, serial, "caterpillar", tree, nv);
  }
  {
    graph::EdgeList tree = data::balanced_tree(nv);
    data::assign_random_weights(tree, rng);
    run_case(executor, serial, "balanced", tree, nv);
  }
  {
    graph::EdgeList path = data::path_tree(nv);
    data::assign_increasing_weights(path);
    run_case(executor, serial, "increasing path", path, nv);
    graph::EdgeList caterpillar = data::caterpillar_tree(nv);
    data::assign_increasing_weights(caterpillar);
    run_case(executor, serial, "increasing caterpillar", caterpillar, nv);
    // The same path under a random relabelling: the contraction's scatters
    // and pointer chases lose all locality.
    std::vector<index_t> perm(static_cast<std::size_t>(nv));
    std::iota(perm.begin(), perm.end(), index_t{0});
    for (index_t i = nv - 1; i > 0; --i)
      std::swap(perm[static_cast<std::size_t>(i)],
                perm[rng.next_below(static_cast<std::uint64_t>(i) + 1)]);
    for (graph::WeightedEdge& edge : path) {
      edge.u = perm[static_cast<std::size_t>(edge.u)];
      edge.v = perm[static_cast<std::size_t>(edge.v)];
    }
    run_case(executor, serial, "increasing permuted path", path, nv);
  }
  {
    const bench::PreparedDataset prepared =
        bench::prepare_dataset("HaccProxy", nv, 2, executor);
    run_case(executor, serial, "HaccProxy EMST", prepared.mst, prepared.n);

    // Section 5's rejected alternative: converting the edge-list MST into an
    // Euler tour (parallel list ranking) before any dendrogram work.  The
    // paper's finding to reproduce: the conversion alone costs about as much
    // as the entire contraction-based dendrogram construction.
    const double t_euler = bench::best_of(3, [&] {
      (void)graph::build_euler_tour(executor, prepared.mst, prepared.n, 0);
    });
    const double t_full = bench::best_of(3, [&] {
      (void)dendrogram::pandora_dendrogram(executor, prepared.mst, prepared.n);
    });
    std::printf(
        "\nEuler-tour conversion (Section 5 alternative) on HaccProxy EMST:\n"
        "  edge list -> Euler tour (list ranking): %.3fs\n"
        "  full PANDORA dendrogram construction:   %.3fs   (ratio %.2fx)\n",
        t_euler, t_full, t_euler / t_full);
  }
  std::printf(
      "\nExpected shape: multilevel time stays flat as skewness grows (O(n log n)\n"
      "work on every topology), and the full-thread columns are no slower than\n"
      "the serial ones on any row; the Euler-tour conversion alone costs about\n"
      "as much as the full construction (the paper's Section 5 finding).\n");
  return 0;
}
