#pragma once

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "pandora/common/rng.hpp"
#include "pandora/data/point_generators.hpp"
#include "pandora/data/tree_generators.hpp"
#include "pandora/exec/backend.hpp"
#include "pandora/graph/edge.hpp"
#include "pandora/spatial/kdtree.hpp"
#include "pandora/spatial/point_set.hpp"

namespace pandora::testing {

/// The tree topologies the property suites sweep over; they cover the
/// skewness spectrum from a single chain (star) to balanced.
enum class Topology {
  star,
  path,
  caterpillar,
  broom,
  balanced,
  random_attach,
  preferential,
};

inline const char* topology_name(Topology t) {
  switch (t) {
    case Topology::star: return "star";
    case Topology::path: return "path";
    case Topology::caterpillar: return "caterpillar";
    case Topology::broom: return "broom";
    case Topology::balanced: return "balanced";
    case Topology::random_attach: return "random_attach";
    case Topology::preferential: return "preferential";
  }
  return "?";
}

inline std::vector<Topology> all_topologies() {
  return {Topology::star,     Topology::path,          Topology::caterpillar,
          Topology::broom,    Topology::balanced,      Topology::random_attach,
          Topology::preferential};
}

/// Builds a weighted tree: `distinct_weights == 0` draws continuous weights,
/// positive values quantise them to stress tie handling.
inline graph::EdgeList make_tree(Topology topology, index_t num_vertices, std::uint64_t seed,
                                 int distinct_weights = 0) {
  Rng rng(seed);
  graph::EdgeList edges;
  switch (topology) {
    case Topology::star: edges = data::star_tree(num_vertices); break;
    case Topology::path: edges = data::path_tree(num_vertices); break;
    case Topology::caterpillar: edges = data::caterpillar_tree(num_vertices); break;
    case Topology::broom: edges = data::broom_tree(num_vertices); break;
    case Topology::balanced: edges = data::balanced_tree(num_vertices); break;
    case Topology::random_attach: edges = data::random_attachment_tree(num_vertices, rng); break;
    case Topology::preferential:
      edges = data::preferential_attachment_tree(num_vertices, rng);
      break;
  }
  data::assign_random_weights(edges, rng, distinct_weights);
  return edges;
}

/// A 24x24 integer grid with every fifth point duplicated: the densest case
/// for equal distances and equal core distances, i.e. for candidates that
/// tie a Borůvka query's radius or a kNN seed's fence.
inline spatial::PointSet tie_heavy_grid() {
  constexpr index_t kSide = 24;
  constexpr index_t kBase = kSide * kSide;
  constexpr index_t kDuplicates = kBase / 5;
  spatial::PointSet points(2, kBase + kDuplicates);
  for (index_t i = 0; i < kBase; ++i) {
    points.at(i, 0) = static_cast<double>(i / kSide);
    points.at(i, 1) = static_cast<double>(i % kSide);
  }
  for (index_t j = 0; j < kDuplicates; ++j)
    for (int d = 0; d < 2; ++d) points.at(kBase + j, d) = points.at(5 * j, d);
  return points;
}

/// A point set with its ids shuffled: row `new_id[i]` of `points` is row i
/// of the input, so ids carry no spatial order (as in `gaussian_blobs`
/// output, where every id picks its blob at random).
struct ShuffledPoints {
  spatial::PointSet points;
  std::vector<index_t> new_id;
};

inline ShuffledPoints shuffle_ids(const spatial::PointSet& input, std::uint64_t seed) {
  const index_t n = input.size();
  std::vector<index_t> new_id(static_cast<std::size_t>(n));
  for (index_t i = 0; i < n; ++i) new_id[static_cast<std::size_t>(i)] = i;
  Rng rng(seed);
  for (index_t i = n - 1; i > 0; --i)
    std::swap(new_id[static_cast<std::size_t>(i)],
              new_id[rng.next_below(static_cast<std::uint64_t>(i) + 1)]);
  spatial::PointSet points(input.dim(), n);
  for (index_t i = 0; i < n; ++i)
    for (int d = 0; d < input.dim(); ++d)
      points.at(new_id[static_cast<std::size_t>(i)], d) = input.at(i, d);
  return {std::move(points), std::move(new_id)};
}

/// One kd-tree build to compare across backends: its input and leaf size.
struct KdTreeBuildCase {
  std::string name;
  spatial::PointSet points;
  int leaf_size = 32;
};

/// Inputs around the leaf-size and subtree-split boundaries (n in {1, 31,
/// 32, 33, 65, 1000, 50000}, dims 1 and 8) plus an input where every point
/// is the same point, each at leaf sizes 1, 8 and 32.
inline std::vector<KdTreeBuildCase> kdtree_build_cases() {
  std::vector<KdTreeBuildCase> cases;
  for (const int leaf_size : {1, 8, 32}) {
    for (const index_t n : {1, 31, 32, 33, 65, 1000, 50000})
      for (const int dim : {1, 8})
        cases.push_back({"uniform n=" + std::to_string(n) + " dim=" + std::to_string(dim) +
                             " leaf=" + std::to_string(leaf_size),
                         data::uniform_points(n, dim, 40 + static_cast<std::uint64_t>(n + dim)),
                         leaf_size});
    spatial::PointSet same(3, 1000);
    std::fill(same.coords().begin(), same.coords().end(), 0.25);
    cases.push_back({"same point leaf=" + std::to_string(leaf_size), std::move(same), leaf_size});
  }
  return cases;
}

/// The inverse of `tree.tree_order()`: `rank_of(id)` is the rank of point
/// `id`, the index a kd-tree's indexed queries take.
class RankOf {
 public:
  explicit RankOf(const spatial::KdTree& tree) : rank_(static_cast<std::size_t>(tree.size())) {
    for (index_t r = 0; r < tree.size(); ++r)
      rank_[static_cast<std::size_t>(tree.tree_order()[static_cast<std::size_t>(r)])] = r;
  }
  index_t operator()(index_t id) const { return rank_[static_cast<std::size_t>(id)]; }

 private:
  std::vector<index_t> rank_;
};

/// `values`, indexed by point id, gathered into `tree`'s rank order: the
/// index space of every per-point array a kd-tree query reads.
template <class T>
std::vector<T> by_rank(const spatial::KdTree& tree, const std::vector<T>& values) {
  std::vector<T> out;
  out.reserve(values.size());
  for (const index_t id : tree.tree_order()) out.push_back(values[static_cast<std::size_t>(id)]);
  return out;
}

/// What a kd-tree answers, flattened for exact comparison: `tree_order()`,
/// then for a spread of ~64 query points their 7 nearest neighbours (by id
/// and by coordinates), the nearest point in another component (components
/// id mod 3) and the same under mutual reachability (synthetic squared core
/// distances, 1e-3 * (id mod 7)).  Two trees answering identically yield equal
/// sweeps.
inline std::vector<std::pair<double, index_t>> kdtree_query_sweep(const spatial::KdTree& tree) {
  const spatial::PointSet& points = tree.points();
  const index_t n = points.size();
  std::vector<std::pair<double, index_t>> sweep;
  for (const index_t id : tree.tree_order()) sweep.emplace_back(0.0, id);

  const exec::Executor& serial = exec::default_executor(exec::serial_backend());
  std::vector<index_t> component(static_cast<std::size_t>(n));
  std::vector<double> core_sq(static_cast<std::size_t>(n));
  for (index_t p = 0; p < n; ++p) {
    component[static_cast<std::size_t>(p)] = p % 3;
    core_sq[static_cast<std::size_t>(p)] = 1e-3 * static_cast<double>(p % 7);
  }
  const RankOf rank_of(tree);
  const std::vector<index_t> component_by_rank = by_rank(tree, component);
  const std::vector<double> core_sq_by_rank = by_rank(tree, core_sq);
  spatial::KdTreeAnnotations notes;
  tree.annotate_components(serial, component_by_rank, notes);
  tree.annotate_min_core(serial, core_sq_by_rank, notes);

  const auto record = [&](const spatial::Neighbor& nb) {
    sweep.emplace_back(nb.squared_distance, nb.index);
  };
  std::vector<spatial::Neighbor> found;
  for (index_t q = 0; q < n; q += std::max<index_t>(1, n / 64)) {
    const index_t rank = rank_of(q);
    tree.knn(rank, 7, found);
    std::for_each(found.begin(), found.end(), record);
    tree.knn(points.point(q), 7, found);
    std::for_each(found.begin(), found.end(), record);
    const index_t mine = component[static_cast<std::size_t>(q)];
    record(tree.nearest_other_component(rank, mine, component_by_rank, notes));
    record(tree.nearest_other_component_mreach(rank, mine, component_by_rank, core_sq_by_rank,
                                               notes));
  }
  return sweep;
}

}  // namespace pandora::testing
