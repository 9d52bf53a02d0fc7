#include "pandora/hdbscan/condensed_tree.hpp"

#include <algorithm>
#include <limits>
#include <vector>

#include "pandora/common/expect.hpp"
#include "pandora/dendrogram/analysis.hpp"

namespace pandora::hdbscan {

namespace {

using dendrogram::Dendrogram;

/// 1/distance with a floor so zero-weight edges stay finite.
double to_lambda(double weight) { return 1.0 / std::max(weight, 1e-300); }

/// Per-edge child slots: up to two edge children and two vertex children.
struct Children {
  std::vector<index_t> edge_a, edge_b;      // edge children (kNone if absent)
  std::vector<index_t> vertex_a, vertex_b;  // vertex children (kNone if absent)
};

Children collect_children(const Dendrogram& d) {
  Children ch;
  const auto n = static_cast<std::size_t>(d.num_edges);
  ch.edge_a.assign(n, kNone);
  ch.edge_b.assign(n, kNone);
  ch.vertex_a.assign(n, kNone);
  ch.vertex_b.assign(n, kNone);
  for (index_t e = 1; e < d.num_edges; ++e) {
    const auto p = static_cast<std::size_t>(d.parent[static_cast<std::size_t>(e)]);
    (ch.edge_a[p] == kNone ? ch.edge_a[p] : ch.edge_b[p]) = e;
  }
  for (index_t v = 0; v < d.num_vertices; ++v) {
    const index_t pe = d.parent[static_cast<std::size_t>(d.vertex_node(v))];
    if (pe == kNone) continue;
    const auto p = static_cast<std::size_t>(pe);
    (ch.vertex_a[p] == kNone ? ch.vertex_a[p] : ch.vertex_b[p]) = v;
  }
  return ch;
}

}  // namespace

CondensedTree build_condensed_tree(const Dendrogram& d, index_t min_cluster_size) {
  PANDORA_EXPECT(min_cluster_size >= 1, "min_cluster_size must be positive");
  const index_t n = d.num_edges;
  const index_t nv = d.num_vertices;

  CondensedTree tree;
  tree.point_cluster.assign(static_cast<std::size_t>(nv), 0);
  tree.point_lambda.assign(static_cast<std::size_t>(nv), 0.0);
  tree.clusters.push_back({kNone, 0.0, 0.0, nv, 0.0, kNone, kNone});
  if (n == 0) return tree;  // all points in the root cluster

  const std::vector<index_t> size = dendrogram::subtree_point_counts(d);

  const Children ch = collect_children(d);

  // Assigns every point in the subtree under `edge` to `cluster` at `lambda`.
  auto assign_subtree = [&](index_t edge, index_t cluster, double lambda,
                            std::vector<index_t>& stack) {
    stack.clear();
    stack.push_back(edge);
    while (!stack.empty()) {
      const auto e = static_cast<std::size_t>(stack.back());
      stack.pop_back();
      for (const index_t v : {ch.vertex_a[e], ch.vertex_b[e]}) {
        if (v == kNone) continue;
        tree.point_cluster[static_cast<std::size_t>(v)] = cluster;
        tree.point_lambda[static_cast<std::size_t>(v)] = lambda;
      }
      for (const index_t f : {ch.edge_a[e], ch.edge_b[e]})
        if (f != kNone) stack.push_back(f);
    }
  };

  struct Item {
    index_t edge;
    index_t cluster;
  };
  std::vector<Item> work{{0, 0}};
  std::vector<index_t> scratch;

  auto shed = [&](index_t cluster, index_t count, double lambda) {
    tree.clusters[static_cast<std::size_t>(cluster)].stability +=
        static_cast<double>(count) *
        (lambda - tree.clusters[static_cast<std::size_t>(cluster)].birth_lambda);
  };

  while (!work.empty()) {
    const auto [e, c] = work.back();
    work.pop_back();
    const double lambda = to_lambda(d.weight[static_cast<std::size_t>(e)]);
    const auto ei = static_cast<std::size_t>(e);

    // The two sides of the split at edge e: (child node, point count).
    struct Side {
      index_t edge = kNone;    // edge child, or
      index_t vertex = kNone;  // vertex child
      index_t count = 0;
    };
    Side sides[2];
    int s = 0;
    for (const index_t f : {ch.edge_a[ei], ch.edge_b[ei]})
      if (f != kNone) sides[s++] = {f, kNone, size[static_cast<std::size_t>(f)]};
    for (const index_t v : {ch.vertex_a[ei], ch.vertex_b[ei]})
      if (v != kNone) sides[s++] = {kNone, v, 1};
    PANDORA_EXPECT(s == 2, "dendrogram edge without exactly two children");

    const bool big0 = sides[0].count >= min_cluster_size;
    const bool big1 = sides[1].count >= min_cluster_size;

    if (big0 && big1) {
      // True split: cluster c dies here; both sides become new clusters.
      auto& cluster = tree.clusters[static_cast<std::size_t>(c)];
      cluster.death_lambda = lambda;
      shed(c, sides[0].count + sides[1].count, lambda);
      index_t child_ids[2];
      for (int k = 0; k < 2; ++k) {
        const auto id = static_cast<index_t>(tree.clusters.size());
        child_ids[k] = id;
        tree.clusters.push_back({c, lambda, lambda, sides[k].count, 0.0, kNone, kNone});
        if (sides[k].edge != kNone) {
          work.push_back({sides[k].edge, id});
        } else {
          // A singleton true-split side (only possible with mcs == 1):
          // a leaf cluster with zero lifetime.
          tree.point_cluster[static_cast<std::size_t>(sides[k].vertex)] = id;
          tree.point_lambda[static_cast<std::size_t>(sides[k].vertex)] = lambda;
        }
      }
      tree.clusters[static_cast<std::size_t>(c)].child_a = child_ids[0];
      tree.clusters[static_cast<std::size_t>(c)].child_b = child_ids[1];
    } else if (!big0 && !big1) {
      // Both sides too small: the cluster dissolves; everything below e
      // leaves at this lambda.
      tree.clusters[static_cast<std::size_t>(c)].death_lambda = lambda;
      shed(c, sides[0].count + sides[1].count, lambda);
      for (const Side& side : sides) {
        if (side.edge != kNone) {
          assign_subtree(side.edge, c, lambda, scratch);
        } else {
          tree.point_cluster[static_cast<std::size_t>(side.vertex)] = c;
          tree.point_lambda[static_cast<std::size_t>(side.vertex)] = lambda;
        }
      }
    } else {
      // One side sheds; the cluster continues through the big side.
      const Side& small = big0 ? sides[1] : sides[0];
      const Side& big = big0 ? sides[0] : sides[1];
      shed(c, small.count, lambda);
      if (small.edge != kNone) {
        assign_subtree(small.edge, c, lambda, scratch);
      } else {
        tree.point_cluster[static_cast<std::size_t>(small.vertex)] = c;
        tree.point_lambda[static_cast<std::size_t>(small.vertex)] = lambda;
      }
      // A big vertex side can only occur with mcs == 1, which the true-split
      // branch already covers; here big.edge is an edge.
      work.push_back({big.edge, c});
    }
  }
  return tree;
}

FlatClustering extract_clusters(const CondensedTree& tree, const ExtractOptions& options) {
  const auto nc = static_cast<index_t>(tree.clusters.size());
  const bool allow_single_cluster = options.allow_single_cluster;
  std::vector<char> selected(static_cast<std::size_t>(nc), 0);

  if (options.method == ClusterSelectionMethod::leaf) {
    for (index_t c = 0; c < nc; ++c)
      if (tree.clusters[static_cast<std::size_t>(c)].child_a == kNone)
        selected[static_cast<std::size_t>(c)] = 1;
  } else {
    // Children have larger ids than parents (DFS creation order), so a
    // reverse sweep sees children first — the excess-of-mass recursion.
    std::vector<double> subtree_stability(static_cast<std::size_t>(nc), 0.0);
    for (index_t c = nc - 1; c >= 0; --c) {
      const auto& cluster = tree.clusters[static_cast<std::size_t>(c)];
      if (cluster.child_a == kNone) {
        selected[static_cast<std::size_t>(c)] = 1;
        subtree_stability[static_cast<std::size_t>(c)] = cluster.stability;
        continue;
      }
      const double child_sum = subtree_stability[static_cast<std::size_t>(cluster.child_a)] +
                               subtree_stability[static_cast<std::size_t>(cluster.child_b)];
      if (cluster.stability > child_sum && (c != 0 || allow_single_cluster)) {
        selected[static_cast<std::size_t>(c)] = 1;
        subtree_stability[static_cast<std::size_t>(c)] = cluster.stability;
      } else {
        subtree_stability[static_cast<std::size_t>(c)] = child_sum;
      }
    }
  }
  if (!allow_single_cluster) selected[0] = 0;

  if (options.selection_epsilon > 0.0) {
    // Epsilon filter: lift clusters born below the distance threshold to
    // their deepest ancestor-or-self born at distance >= epsilon (the root,
    // born at lambda 0, always qualifies); when that is the root and a
    // single cluster is not allowed, to the topmost non-root cluster on the
    // path instead.  birth distance = 1 / birth_lambda.  Clusters are stored
    // parents-first, so one top-down pass resolves both targets for every
    // cluster.
    auto birth_distance = [&](index_t c) {
      const double lambda = tree.clusters[static_cast<std::size_t>(c)].birth_lambda;
      return lambda > 0 ? 1.0 / lambda : std::numeric_limits<double>::infinity();
    };
    std::vector<index_t> eligible(static_cast<std::size_t>(nc), 0);
    std::vector<index_t> top(static_cast<std::size_t>(nc), 0);
    std::vector<char> lifted(static_cast<std::size_t>(nc), 0);
    for (index_t c = 0; c < nc; ++c) {
      const index_t parent = tree.clusters[static_cast<std::size_t>(c)].parent;
      const auto ci = static_cast<std::size_t>(c);
      if (parent != kNone) {
        eligible[ci] = birth_distance(c) >= options.selection_epsilon
                           ? c
                           : eligible[static_cast<std::size_t>(parent)];
        top[ci] = parent == 0 ? c : top[static_cast<std::size_t>(parent)];
      }
      if (!selected[ci]) continue;
      const index_t target = eligible[ci] == 0 && !allow_single_cluster ? top[ci] : eligible[ci];
      lifted[static_cast<std::size_t>(target)] = 1;
    }
    selected.swap(lifted);
    if (!allow_single_cluster) selected[0] = 0;
  }

  // A cluster is finally selected iff selected and no selected proper
  // ancestor; top-down sweep.
  std::vector<char> blocked(static_cast<std::size_t>(nc), 0);
  FlatClustering flat;
  std::vector<index_t> dense(static_cast<std::size_t>(nc), kNone);
  for (index_t c = 0; c < nc; ++c) {
    const auto& cluster = tree.clusters[static_cast<std::size_t>(c)];
    if (cluster.parent != kNone) {
      blocked[static_cast<std::size_t>(c)] =
          blocked[static_cast<std::size_t>(cluster.parent)] |
          selected[static_cast<std::size_t>(cluster.parent)];
    }
    if (selected[static_cast<std::size_t>(c)] && !blocked[static_cast<std::size_t>(c)]) {
      dense[static_cast<std::size_t>(c)] = flat.num_clusters++;
      flat.selected_clusters.push_back(c);
    }
  }

  // A point's label is that of its cluster's nearest finally-selected
  // ancestor-or-self: a second top-down pass hands each unselected cluster
  // its parent's (already resolved) label, so every point is O(1).
  for (index_t c = 1; c < nc; ++c) {
    index_t& label = dense[static_cast<std::size_t>(c)];
    if (label == kNone)
      label = dense[static_cast<std::size_t>(tree.clusters[static_cast<std::size_t>(c)].parent)];
  }
  flat.labels.resize(tree.point_cluster.size());
  for (std::size_t p = 0; p < tree.point_cluster.size(); ++p) {
    const index_t c = tree.point_cluster[p];
    flat.labels[p] = c == kNone ? kNone : dense[static_cast<std::size_t>(c)];
  }
  return flat;
}

FlatClustering extract_clusters(const CondensedTree& tree, bool allow_single_cluster) {
  ExtractOptions options;
  options.allow_single_cluster = allow_single_cluster;
  return extract_clusters(tree, options);
}

CondensedTree build_condensed_tree(const exec::Executor& exec,
                                   const dendrogram::Dendrogram& dendrogram,
                                   index_t min_cluster_size) {
  const exec::ScopedPhase phase(exec, "condense");
  return build_condensed_tree(dendrogram, min_cluster_size);
}

}  // namespace pandora::hdbscan
