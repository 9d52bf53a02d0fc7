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

  // Queries run in tree (leaf-partition) order so each knn_batch group is
  // spatially coherent — the group DFS then shares most of its node visits
  // and leaf SoA scans across the group.  Results scatter back by point id,
  // so the output is identical to querying 0..n-1 directly.
  const std::span<const index_t> order = tree.tree_order();
  const int k_eff = static_cast<int>(std::min<index_t>(k, n - 1));
  // With lists, one more neighbour: the (k+1)-th is the fence.
  const int fetch = lists != nullptr ? k + 1 : k;
  const auto row = static_cast<std::size_t>(std::min<index_t>(fetch, n - 1));
  const bool has_fence = static_cast<int>(row) > k_eff;
  if (lists != nullptr) {
    lists->k = k_eff;
    lists->ids.resize(static_cast<std::size_t>(n) * static_cast<std::size_t>(k_eff));
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
    thread_local std::vector<Neighbor> scratch;
    const index_t lo = static_cast<index_t>(c) * kQueriesPerChunk;
    const index_t hi = std::min<index_t>(n, lo + kQueriesPerChunk);
    tree.knn_batch(order.subspan(static_cast<std::size_t>(lo), static_cast<std::size_t>(hi - lo)),
                   fetch, scratch);
    for (index_t i = lo; i < hi; ++i) {
      const auto p = static_cast<std::size_t>(order[static_cast<std::size_t>(i)]);
      const Neighbor* nb = scratch.data() + static_cast<std::size_t>(i - lo) * row;
      result[p] = std::sqrt(nb[k_eff - 1].squared_distance);
      if (lists == nullptr) continue;
      for (int j = 0; j < k_eff; ++j)
        lists->ids[p * static_cast<std::size_t>(k_eff) + static_cast<std::size_t>(j)] =
            nb[j].index;
      if (has_fence) lists->fence_sq[p] = nb[k_eff].squared_distance;
    }
  };
  exec.run_chunks(num_chunks, exec.num_threads(), body);
  return result;
}

}  // namespace pandora::spatial
