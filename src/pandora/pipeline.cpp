#include "pandora/pipeline.hpp"

#include "pandora/common/timer.hpp"
#include "pandora/dendrogram/union_find_dendrogram.hpp"
#include "pandora/hdbscan/core_distance.hpp"
#include "pandora/spatial/emst.hpp"

namespace pandora {

dendrogram::SortedEdges Pipeline::sort_edges(const graph::EdgeList& mst,
                                             index_t num_vertices) const {
  return cancellable(
      [&] { return dendrogram::sort_edges(*executor_, mst, num_vertices, validate_input_); });
}

dendrogram::Dendrogram Pipeline::build_dendrogram(const graph::EdgeList& mst,
                                                  index_t num_vertices) const {
  return cancellable([&] {
    if (options_.dendrogram_algorithm == hdbscan::DendrogramAlgorithm::union_find)
      return dendrogram::union_find_dendrogram(*executor_, mst, num_vertices, validate_input_);
    return dendrogram::pandora_dendrogram(*executor_, mst, num_vertices, pandora_options());
  });
}

void Pipeline::build_dendrogram_into(const graph::EdgeList& mst, index_t num_vertices,
                                     dendrogram::Dendrogram& out) const {
  cancellable([&] {
    if (options_.dendrogram_algorithm == hdbscan::DendrogramAlgorithm::union_find) {
      out = dendrogram::union_find_dendrogram(*executor_, mst, num_vertices, validate_input_);
      return;
    }
    dendrogram::pandora_dendrogram_into(*executor_, mst, num_vertices, pandora_options(), out);
  });
}

dendrogram::Dendrogram Pipeline::build_dendrogram(const dendrogram::SortedEdges& sorted) const {
  return cancellable([&] {
    if (options_.dendrogram_algorithm == hdbscan::DendrogramAlgorithm::union_find)
      return dendrogram::union_find_dendrogram(*executor_, sorted);
    return dendrogram::pandora_dendrogram(*executor_, sorted, pandora_options());
  });
}

std::vector<double> Pipeline::core_distances(const spatial::PointSet& points,
                                             const spatial::KdTree& tree) const {
  return cancellable(
      [&] { return hdbscan::core_distances(*executor_, points, tree, options_.min_pts); });
}

graph::EdgeList Pipeline::build_mst(const spatial::PointSet& points,
                                    const spatial::KdTree& tree) const {
  return cancellable([&] {
    if (options_.min_pts <= 1) return spatial::euclidean_mst(*executor_, points, tree);
    spatial::NeighborLists seeds;
    const std::vector<double> core =
        hdbscan::core_distances(*executor_, points, tree, options_.min_pts, &seeds);
    return spatial::mutual_reachability_mst(*executor_, points, tree, core, &seeds);
  });
}

hdbscan::HdbscanResult Pipeline::run_hdbscan(const spatial::PointSet& points) const {
  if (validate_input_) spatial::validate_points(points, "run_hdbscan");
  return cancellable([&] { return hdbscan::hdbscan(*executor_, points, options_); });
}

hdbscan::MinClusterSizeSweep Pipeline::sweep_min_cluster_size(
    const spatial::PointSet& points, std::span<const index_t> min_cluster_sizes) const {
  if (validate_input_) spatial::validate_points(points, "sweep_min_cluster_size");
  return cancellable([&] {
    return hdbscan::hdbscan_sweep_min_cluster_size(*executor_, points, min_cluster_sizes,
                                                   options_);
  });
}

std::vector<hdbscan::HdbscanResult> Pipeline::sweep_min_pts(
    const spatial::PointSet& points, std::span<const int> min_pts_values) const {
  if (validate_input_) spatial::validate_points(points, "sweep_min_pts");
  return cancellable(
      [&] { return hdbscan::hdbscan_sweep_min_pts(*executor_, points, min_pts_values, options_); });
}

}  // namespace pandora
