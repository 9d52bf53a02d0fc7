#pragma once

#include <vector>

#include "pandora/common/types.hpp"
#include "pandora/exec/executor.hpp"
#include "pandora/spatial/kdtree.hpp"
#include "pandora/spatial/point_set.hpp"

namespace pandora::spatial {

/// What a k-nearest-neighbour pass can leave behind for a later exact
/// search: each point's k nearest neighbours (ids only, ascending under the
/// (squared distance, id) order) and its *fence*, the squared distance of
/// the (k+1)-th nearest neighbour.  Every point outside a list lies at
/// squared distance >= its fence.  The fence is +inf when fewer than k+1
/// other points exist (the list then holds all of them).
struct NeighborLists {
  int k = 0;                     ///< entries per list: min(k, n - 1)
  std::vector<index_t> ids;      ///< point p's list at [p * k, (p + 1) * k)
  std::vector<double> fence_sq;  ///< one per point

  [[nodiscard]] bool empty() const { return fence_sq.empty(); }
};

/// Distance (not squared) from every point to its k-th nearest neighbour,
/// excluding the point itself.  k <= 0 yields zeros.  Parallel over points.
/// With `lists`, the same pass fetches one neighbour more and fills `lists`
/// with each point's k nearest ids and its fence (see NeighborLists); the
/// returned distances are unchanged (the k-nearest set under the total
/// (distance, id) order is a prefix of the (k+1)-nearest one).  `lists` is
/// left empty when k <= 0 or n <= 1.
[[nodiscard]] std::vector<double> kth_neighbor_distances(const exec::Executor& exec,
                                                         const PointSet& points,
                                                         const KdTree& tree, int k,
                                                         NeighborLists* lists = nullptr);

}  // namespace pandora::spatial
