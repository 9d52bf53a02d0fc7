#include "pandora/spatial/knn.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace pandora::spatial {

std::vector<double> kth_neighbor_distances(const exec::Executor& exec, const PointSet& points,
                                           const KdTree& tree, int k, NeighborLists* lists) {
  const index_t n = points.size();
  std::vector<double> result(static_cast<std::size_t>(n), 0.0);
  if (lists != nullptr) *lists = NeighborLists{};
  if (k <= 0 || n <= 1) return result;

  // Queries run in tree (leaf-partition) order so consecutive searches touch
  // the same nodes and leaf blocks while they are cache-hot.  Results scatter
  // back by point id, so the output is identical to querying 0..n-1 directly.
  const std::span<const index_t> order = tree.tree_order();
  const int k_eff = static_cast<int>(std::min<index_t>(k, n - 1));
  // With lists, one neighbour beyond the list: the (L+1)-th is the fence.
  const auto list_length =
      static_cast<int>(std::min<index_t>(std::max(k, kMinListLength), n - 1));
  const int fetch = lists != nullptr ? list_length + 1 : k;
  if (lists != nullptr) {
    lists->length = list_length;
    lists->ids.resize(static_cast<std::size_t>(n) * static_cast<std::size_t>(list_length));
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
    for (index_t i = lo; i < hi; ++i) {
      const index_t q = order[static_cast<std::size_t>(i)];
      const auto p = static_cast<std::size_t>(q);
      tree.knn(q, fetch, nb);
      result[p] = std::sqrt(nb[static_cast<std::size_t>(k_eff - 1)].squared_distance);
      if (lists == nullptr) continue;
      for (int j = 0; j < list_length; ++j)
        lists->ids[p * static_cast<std::size_t>(list_length) + static_cast<std::size_t>(j)] =
            nb[static_cast<std::size_t>(j)].index;
      if (static_cast<int>(nb.size()) > list_length)
        lists->fence_sq[p] = nb[static_cast<std::size_t>(list_length)].squared_distance;
    }
  };
  exec.run_chunks(num_chunks, exec.num_threads(), body);
  return result;
}

}  // namespace pandora::spatial
