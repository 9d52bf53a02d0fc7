#pragma once

#include <string>
#include <vector>

#include "pandora/common/rng.hpp"
#include "pandora/data/tree_generators.hpp"
#include "pandora/graph/edge.hpp"
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

}  // namespace pandora::testing
