#pragma once

#include <vector>

#include "pandora/common/types.hpp"
#include "pandora/exec/executor.hpp"
#include "pandora/spatial/kdtree.hpp"
#include "pandora/spatial/point_set.hpp"

namespace pandora::spatial {

/// Shortest neighbour list a kNN pass keeps for a later exact search, even
/// when k is smaller: a longer list certifies more Borůvka candidates from
/// memory (see `mutual_reachability_mst`), at the price of a costlier kNN
/// pass.  With the split-plane kNN descent, `hdbscan()` on HaccProxy 50k at
/// mpts 2 (4-vCPU AVX2 host, medians of four interleaved rounds) read
/// 42.6 / 41.0 / 43.2 ms at 4 threads and 114 / 116 / 115 ms serially for
/// floors 4 / 6 / 8: no floor wins at both thread counts.
inline constexpr int kMinListLength = 6;

/// What a k-nearest-neighbour pass can leave behind for a later exact
/// search: each point's L nearest neighbours (ascending under the
/// (squared distance, id) order) and its *fence*, the squared distance of
/// the (L+1)-th nearest neighbour.  Every point outside a list lies at
/// squared distance >= its fence.  The fence is +inf when fewer than L+1
/// other points exist (the list then holds all of them).
///
/// Everything here is in the rank space of the kd-tree the pass ran on (see
/// KdTree): list r and fence r belong to the point at rank r, and list
/// entries are ranks, so a later pass over ranks reads its list, and its
/// neighbours' rank-ordered state, at nearby positions.  `tree_order()` maps
/// an entry to its point id.
struct NeighborLists {
  int length = 0;                ///< entries per list: min(max(k, kMinListLength), n - 1)
  std::vector<index_t> ranks;    ///< rank r's list at [r * length, (r + 1) * length)
  std::vector<double> fence_sq;  ///< one per rank

  [[nodiscard]] bool empty() const { return fence_sq.empty(); }
};

/// Distance (not squared) from every point to its k-th nearest neighbour,
/// excluding the point itself, indexed by point id.  k <= 0 yields zeros.
/// `tree` must index `points`.  Parallel over ranks, one kd-tree search per
/// point.  With `lists`, the same search fetches L + 1 neighbours,
/// L = max(k, kMinListLength), and fills `lists` (rank-indexed) with each
/// point's L nearest neighbours and its fence (see NeighborLists); the returned
/// distances are unchanged (the k-nearest set under the total
/// (distance, id) order is a prefix of the (L+1)-nearest one).  `lists` is
/// left empty when k <= 0 or n <= 1.  Each call with k > 0 counts one pass
/// in `pandora_knn_passes_total` (obs registry).
[[nodiscard]] std::vector<double> kth_neighbor_distances(const exec::Executor& exec,
                                                         const PointSet& points,
                                                         const KdTree& tree, int k,
                                                         NeighborLists* lists = nullptr);

}  // namespace pandora::spatial
