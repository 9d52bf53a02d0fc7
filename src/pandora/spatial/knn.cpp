#include "pandora/spatial/knn.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "pandora/common/expect.hpp"
#include "pandora/obs/metrics.hpp"

namespace pandora::spatial {

namespace {

/// kNN passes run (calls with k > 0): an mpts sweep runs one, and a
/// snapshot's readers share theirs (see hdbscan::NeighborPass).
obs::Counter& passes_metric() {
  static obs::Counter& metric = obs::registry().counter("pandora_knn_passes_total");
  return metric;
}

}  // namespace

std::vector<double> kth_neighbor_distances(const exec::Executor& exec, const PointSet& points,
                                           const KdTree& tree, int k, NeighborLists* lists) {
  const index_t n = points.size();
  PANDORA_EXPECT(tree.size() == n, "the kd-tree must index exactly the query points");
  std::vector<double> result(static_cast<std::size_t>(n), 0.0);
  if (lists != nullptr) *lists = NeighborLists{};
  if (k <= 0) return result;
  passes_metric().inc();
  if (n <= 1) return result;

  // Queries run in rank order so consecutive searches touch the same nodes
  // and leaf columns while they are cache-hot, and every chunk writes its own
  // range of the rank-indexed lists.  Each distance crosses the rank -> id
  // boundary once, scattered to its point id.
  const std::span<const index_t> id_of = tree.tree_order();
  const int k_eff = static_cast<int>(std::min<index_t>(k, n - 1));
  // With lists, one neighbour beyond the list: the (L+1)-th is the fence.
  const auto list_length =
      static_cast<int>(std::min<index_t>(std::max(k, kMinListLength), n - 1));
  const int fetch = lists != nullptr ? list_length + 1 : k;
  if (lists != nullptr) {
    lists->length = list_length;
    lists->ranks.resize(static_cast<std::size_t>(n) * static_cast<std::size_t>(list_length));
    lists->fence_sq.assign(static_cast<std::size_t>(n), std::numeric_limits<double>::infinity());
  }

  // Small chunks so uneven query costs balance dynamically across the
  // backend's workers (kd-tree searches vary with local density); the serial
  // backend runs the same chunks in order, so every backend shares one path.
  constexpr index_t kQueriesPerChunk = 256;
  const int num_chunks = static_cast<int>((n + kQueriesPerChunk - 1) / kQueriesPerChunk);
  auto body = [&](int c) {
    // Per-worker scratch, persistent across chunks and calls (backend
    // workers are long-lived threads) — steady-state passes allocate
    // nothing here.
    thread_local std::vector<Neighbor> nb;
    const index_t lo = static_cast<index_t>(c) * kQueriesPerChunk;
    const index_t hi = std::min<index_t>(n, lo + kQueriesPerChunk);
    for (index_t r = lo; r < hi; ++r) {
      const auto p = static_cast<std::size_t>(r);
      tree.knn(r, fetch, nb);
      result[static_cast<std::size_t>(id_of[p])] = std::sqrt(nb[static_cast<std::size_t>(k_eff - 1)].squared_distance);
      if (lists == nullptr) continue;
      for (int j = 0; j < list_length; ++j)
        lists->ranks[p * static_cast<std::size_t>(list_length) + static_cast<std::size_t>(j)] =
            nb[static_cast<std::size_t>(j)].rank;
      if (static_cast<int>(nb.size()) > list_length)
        lists->fence_sq[p] = nb[static_cast<std::size_t>(list_length)].squared_distance;
    }
  };
  exec.run_chunks(num_chunks, exec.num_threads(), body);
  return result;
}

}  // namespace pandora::spatial
