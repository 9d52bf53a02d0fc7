#include "pandora/hdbscan/core_distance.hpp"

#include "pandora/common/expect.hpp"
#include "pandora/exec/fingerprint.hpp"

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

}  // namespace pandora::hdbscan
