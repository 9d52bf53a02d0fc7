#include "pandora/hdbscan/core_distance.hpp"

#include <algorithm>
#include <cmath>

#include "pandora/common/expect.hpp"
#include "pandora/exec/fingerprint.hpp"
#include "pandora/exec/parallel.hpp"

namespace pandora::hdbscan {

std::vector<double> core_distances(const exec::Executor& exec, const spatial::PointSet& points,
                                   const spatial::KdTree& tree, int min_pts,
                                   spatial::NeighborLists* seeds) {
  PANDORA_EXPECT(min_pts >= 1, "minPts must be at least 1");
  return spatial::kth_neighbor_distances(exec, points, tree, min_pts - 1, seeds);
}

namespace {

/// A core-distance artifact as stored in the Executor's ArtifactCache.
struct CachedCoreDistances {
  std::vector<double> values;
  const spatial::PointSet* points = nullptr;
};

}  // namespace

std::shared_ptr<const std::vector<double>> core_distances_cached(
    const exec::Executor& exec, const spatial::PointSet& points, const spatial::KdTree& tree,
    int min_pts, std::optional<std::uint64_t> fingerprint,
    spatial::NeighborLists* seeds) {
  if (seeds != nullptr) *seeds = spatial::NeighborLists{};
  const auto compute = [&] {
    auto owned = std::make_shared<CachedCoreDistances>();
    owned->values = core_distances(exec, points, tree, min_pts, seeds);
    owned->points = &points;
    return owned;
  };
  if (!exec.artifact_caching()) {
    auto owned = compute();
    const std::vector<double>* view = &owned->values;
    return {std::move(owned), view};
  }

  // min_pts is folded into the key with the full mixer, so a sweep's values
  // occupy distinct slots — see exec/fingerprint.hpp.
  const std::uint64_t base =
      fingerprint ? *fingerprint : spatial::point_set_fingerprint(exec, points);
  const std::uint64_t key = exec::combine_fingerprint(
      exec::tagged_fingerprint(exec::ArtifactTag::core_distance, base),
      static_cast<std::uint64_t>(static_cast<std::uint32_t>(min_pts)));
  std::shared_ptr<CachedCoreDistances> entry =
      exec.artifact_cache().find<CachedCoreDistances>(key);
  if (entry == nullptr || entry->points != &points) {
    entry = compute();
    exec.artifact_cache().insert(key, entry);
  }
  const std::vector<double>* view = &entry->values;
  return {std::move(entry), view};
}

NeighborPass::NeighborPass(const exec::Executor& exec, const spatial::KdTree& tree,
                           int max_min_pts)
    : tree_(&tree) {
  PANDORA_EXPECT(max_min_pts >= 1, "minPts must be at least 1");
  (void)spatial::kth_neighbor_distances(exec, tree.points(), tree, max_min_pts - 1, &lists_);
}

bool NeighborPass::serves(int min_pts) const {
  return std::min<index_t>(min_pts - 1, tree_->size() - 1) <= lists_.length;
}

std::vector<double> NeighborPass::core_distances(const exec::Executor& exec,
                                                 int min_pts) const {
  PANDORA_EXPECT(min_pts >= 1, "minPts must be at least 1");
  PANDORA_EXPECT(serves(min_pts), "the neighbour pass is too short for this minPts");
  const index_t n = tree_->size();
  std::vector<double> result(static_cast<std::size_t>(n), 0.0);
  const auto k = static_cast<int>(std::min<index_t>(min_pts - 1, n - 1));
  if (k <= 0) return result;
  const std::span<const index_t> id_of = tree_->tree_order();
  const auto length = static_cast<std::size_t>(lists_.length);
  exec::parallel_for(exec, n, [&](size_type r) {
    const auto p = static_cast<std::size_t>(r);
    const index_t kth = lists_.ranks[p * length + static_cast<std::size_t>(k - 1)];
    result[static_cast<std::size_t>(id_of[p])] =
        std::sqrt(tree_->squared_distance(static_cast<index_t>(r), kth));
  });
  return result;
}

std::shared_ptr<const NeighborPass> SharedNeighborPass::get(const exec::Executor& exec,
                                                            const spatial::KdTree& tree,
                                                            int min_pts, int fetch_min_pts) {
  bool released = false;
  const auto held = [&]() -> std::shared_ptr<const NeighborPass> {
    const std::lock_guard<std::mutex> lock(mutex_);
    released = released_;
    if (pass_ != nullptr && &pass_->tree() == &tree && pass_->serves(min_pts)) return pass_;
    return nullptr;
  };
  if (auto pass = held()) return pass;
  // One query computes at a time, so the next finds the pass it waited for;
  // a released holder keeps nothing, so its queries need not wait.
  std::unique_lock<std::mutex> computing(compute_mutex_, std::defer_lock);
  if (!released) {
    computing.lock();
    if (auto pass = held()) return pass;
    if (released) computing.unlock();
  }
  auto pass = std::make_shared<const NeighborPass>(exec, tree, std::max(min_pts, fetch_min_pts));
  const std::lock_guard<std::mutex> lock(mutex_);
  // Computations are serialised and each starts only when the held pass is
  // too short for it, so this one is the longest.
  if (!released_) pass_ = pass;
  return pass;
}

void SharedNeighborPass::release() {
  std::shared_ptr<const NeighborPass> dropped;
  const std::lock_guard<std::mutex> lock(mutex_);
  released_ = true;
  dropped.swap(pass_);
}

}  // namespace pandora::hdbscan
