// Checkpointed analysis pipeline: compute the expensive stages (EMST +
// dendrogram) once, persist them, then answer many cheap queries — the
// workflow a production clustering service builds around this library.
//
//   $ ./checkpointed_pipeline [n]
//
// Demonstrates: binary MST/dendrogram checkpoints (pandora::io), SciPy
// linkage export, and O(log h) cophenetic-distance queries (pandora's
// Theorem-1 oracle) without ever touching the points again.

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "pandora/data/point_generators.hpp"
#include "pandora/dendrogram/analysis.hpp"
#include "pandora/dendrogram/lca.hpp"
#include "pandora/pipeline.hpp"
#include "pandora/io/io.hpp"
#include "pandora/spatial/emst.hpp"
#include "pandora/spatial/kdtree.hpp"

int main(int argc, char** argv) {
  using namespace pandora;
  const index_t n = argc > 1 ? std::atoi(argv[1]) : 100000;
  const std::string checkpoint = "/tmp/pandora_dendrogram_checkpoint.bin";

  // --- producer side: the expensive pass -----------------------------------
  {
    const spatial::PointSet points = data::make_dataset("VisualVar2D", n, 7);
    Timer timer;
    const exec::Executor executor(exec::default_backend());
    spatial::KdTree tree(executor, points);
    const graph::EdgeList mst = spatial::euclidean_mst(executor, points, tree);
    const auto dendro = dendrogram::pandora_dendrogram(executor, mst, points.size());
    std::printf("producer: EMST + dendrogram for %d points in %.2fs\n", points.size(),
                timer.seconds());
    io::save_dendrogram_file(checkpoint, dendro);
    std::printf("producer: checkpoint written to %s\n", checkpoint.c_str());
  }

  // --- consumer side: cheap reloads and queries ----------------------------
  {
    Timer timer;
    const auto dendro = io::load_dendrogram_file(checkpoint);
    std::printf("consumer: reloaded %d-edge dendrogram in %.3fs (validated)\n",
                dendro.num_edges, timer.seconds());

    // SciPy interchange: the first rows of the linkage matrix.
    std::ostringstream csv;
    io::write_linkage_csv(csv, dendro);
    std::istringstream head(csv.str());
    std::string line;
    std::printf("consumer: linkage.csv head:\n");
    for (int i = 0; i < 4 && std::getline(head, line); ++i)
      std::printf("    %s\n", line.c_str());

    // Cophenetic-distance oracle: merge heights between sample points.
    const dendrogram::DendrogramLca oracle(dendro);
    std::printf("consumer: cophenetic distances (single-linkage merge heights):\n");
    for (index_t a = 0; a < 3; ++a)
      for (index_t b = 3; b < 6; ++b)
        std::printf("    d(%d, %d) = %.5f\n", a, b, oracle.cophenetic_distance(a, b));

    // Flat clusterings at several thresholds, all from the same checkpoint.
    std::printf("consumer: clusters by cut threshold:\n");
    for (const double t : {0.001, 0.005, 0.02}) {
      const auto labels = dendrogram::cut_labels(dendro, t);
      index_t clusters = 0;
      for (const index_t l : labels) clusters = std::max(clusters, l + 1);
      std::printf("    t=%.3f -> %d clusters\n", t, clusters);
    }
  }
  std::remove(checkpoint.c_str());
  return 0;
}
