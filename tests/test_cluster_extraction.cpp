// Flat-cluster extraction variants: excess-of-mass vs leaf selection and the
// cluster-selection-epsilon filter.

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <set>
#include <vector>

#include "pandora/data/point_generators.hpp"
#include "pandora/hdbscan/hdbscan.hpp"

namespace {

using namespace pandora;
using hdbscan::ClusterSelectionMethod;
using hdbscan::HdbscanOptions;
using spatial::PointSet;

/// Blobs-of-blobs: four coarse groups, each made of three fine subclusters —
/// a two-scale structure where leaf/EOM/epsilon genuinely differ.
PointSet two_scale_data(index_t n) {
  PointSet points(2, n);
  Rng rng(37);
  const double coarse[4][2] = {{0, 0}, {8, 0}, {0, 8}, {8, 8}};
  for (index_t i = 0; i < n; ++i) {
    const auto g = static_cast<std::size_t>(rng.next_below(4));
    const auto s = static_cast<double>(rng.next_below(3));
    points.at(i, 0) = coarse[g][0] + 0.6 * s + 0.02 * rng.normal();
    points.at(i, 1) = coarse[g][1] + 0.02 * rng.normal();
  }
  return points;
}

TEST(Extraction, LeafSelectsAtLeastAsManyClustersAsEom) {
  const PointSet points = two_scale_data(2400);
  HdbscanOptions eom;
  eom.min_pts = 4;
  eom.min_cluster_size = 30;
  HdbscanOptions leaf = eom;
  leaf.cluster_selection_method = ClusterSelectionMethod::leaf;
  const auto r_eom = hdbscan::hdbscan(exec::default_executor(), points, eom);
  const auto r_leaf = hdbscan::hdbscan(exec::default_executor(), points, leaf);
  EXPECT_GE(r_leaf.num_clusters, r_eom.num_clusters);
  // The fine scale has 12 subclusters; leaf selection should find them.
  EXPECT_GE(r_leaf.num_clusters, 10);
}

TEST(Extraction, LeafLabelsRefineEomLabels) {
  // Every leaf cluster sits below some EOM cluster, so any two points sharing
  // a leaf label must share an EOM label (when both are clustered).
  const PointSet points = two_scale_data(1800);
  HdbscanOptions eom;
  eom.min_pts = 4;
  eom.min_cluster_size = 25;
  HdbscanOptions leaf = eom;
  leaf.cluster_selection_method = ClusterSelectionMethod::leaf;
  const auto r_eom = hdbscan::hdbscan(exec::default_executor(), points, eom);
  const auto r_leaf = hdbscan::hdbscan(exec::default_executor(), points, leaf);
  std::map<index_t, index_t> leaf_to_eom;
  for (index_t p = 0; p < points.size(); ++p) {
    const index_t l = r_leaf.labels[static_cast<std::size_t>(p)];
    const index_t e = r_eom.labels[static_cast<std::size_t>(p)];
    if (l == kNone || e == kNone) continue;
    auto [it, fresh] = leaf_to_eom.try_emplace(l, e);
    EXPECT_EQ(it->second, e) << "leaf cluster " << l << " straddles EOM clusters";
  }
}

TEST(Extraction, EpsilonMergesFineClusters) {
  const PointSet points = two_scale_data(2400);
  HdbscanOptions fine;
  fine.min_pts = 4;
  fine.min_cluster_size = 30;
  fine.cluster_selection_method = ClusterSelectionMethod::leaf;
  HdbscanOptions merged = fine;
  merged.cluster_selection_epsilon = 2.0;  // above the fine gap (~0.6), below the coarse (~8)
  const auto r_fine = hdbscan::hdbscan(exec::default_executor(), points, fine);
  const auto r_merged = hdbscan::hdbscan(exec::default_executor(), points, merged);
  EXPECT_GT(r_fine.num_clusters, r_merged.num_clusters);
  EXPECT_GE(r_merged.num_clusters, 2);
  EXPECT_LE(r_merged.num_clusters, 6);  // the four coarse groups (some slack)
}

TEST(Extraction, EpsilonZeroIsIdentity) {
  const PointSet points = two_scale_data(1200);
  HdbscanOptions base;
  base.min_pts = 4;
  base.min_cluster_size = 20;
  HdbscanOptions with_zero = base;
  with_zero.cluster_selection_epsilon = 0.0;
  const auto a = hdbscan::hdbscan(exec::default_executor(), points, base);
  const auto b = hdbscan::hdbscan(exec::default_executor(), points, with_zero);
  EXPECT_EQ(a.labels, b.labels);
}

TEST(Extraction, SelectedClustersAreAnAntichain) {
  // No selected cluster may have a selected ancestor, whatever the options.
  const PointSet points = two_scale_data(1500);
  for (const auto method :
       {ClusterSelectionMethod::excess_of_mass, ClusterSelectionMethod::leaf}) {
    for (const double eps : {0.0, 1.0, 3.0}) {
      HdbscanOptions options;
      options.min_pts = 4;
      options.min_cluster_size = 20;
      options.cluster_selection_method = method;
      options.cluster_selection_epsilon = eps;
      const auto result = hdbscan::hdbscan(exec::default_executor(), points, options);
      // Recompute the selected set through the public API.
      hdbscan::ExtractOptions extract;
      extract.method = method;
      extract.selection_epsilon = eps;
      const auto flat = hdbscan::extract_clusters(result.condensed_tree, extract);
      std::set<index_t> sel(flat.selected_clusters.begin(), flat.selected_clusters.end());
      for (const index_t c : sel) {
        index_t cur = result.condensed_tree.clusters[static_cast<std::size_t>(c)].parent;
        while (cur != kNone) {
          EXPECT_FALSE(sel.contains(cur)) << "cluster " << c << " under selected " << cur;
          cur = result.condensed_tree.clusters[static_cast<std::size_t>(cur)].parent;
        }
      }
    }
  }
}

/// Parent-walk reference for extract_clusters: per selected cluster, the
/// epsilon lift walks up to its target; per point, the label walks up to the
/// nearest finally-selected ancestor.  O(points x depth), so only usable on
/// test-sized trees.
hdbscan::FlatClustering reference_extract(const hdbscan::CondensedTree& tree,
                                          const hdbscan::ExtractOptions& options) {
  const auto& clusters = tree.clusters;
  const auto nc = static_cast<index_t>(clusters.size());
  auto at = [](auto& v, index_t i) -> auto& { return v[static_cast<std::size_t>(i)]; };
  std::vector<char> selected(clusters.size(), 0);
  std::vector<double> subtree(clusters.size(), 0.0);
  for (index_t c = nc - 1; c >= 0; --c) {
    const auto& cl = at(clusters, c);
    const bool leaf = cl.child_a == kNone;
    if (options.method == ClusterSelectionMethod::leaf) {
      at(selected, c) = leaf;
      continue;
    }
    const double children = leaf ? 0.0 : at(subtree, cl.child_a) + at(subtree, cl.child_b);
    at(selected, c) = leaf || (cl.stability > children && (c != 0 || options.allow_single_cluster));
    at(subtree, c) = at(selected, c) ? cl.stability : children;
  }
  if (!options.allow_single_cluster) selected[0] = 0;
  if (options.selection_epsilon > 0.0) {
    auto birth_distance = [&](index_t c) {
      const double lambda = at(clusters, c).birth_lambda;
      return lambda > 0 ? 1.0 / lambda : std::numeric_limits<double>::infinity();
    };
    std::vector<char> lifted(clusters.size(), 0);
    for (index_t c = 0; c < nc; ++c) {
      if (!at(selected, c)) continue;
      index_t cur = c;
      index_t last_non_root = c;
      while (at(clusters, cur).parent != kNone && birth_distance(cur) < options.selection_epsilon) {
        last_non_root = cur;
        cur = at(clusters, cur).parent;
      }
      if (cur == 0 && !options.allow_single_cluster) cur = last_non_root;
      at(lifted, cur) = 1;
    }
    selected.swap(lifted);
    if (!options.allow_single_cluster) selected[0] = 0;
  }
  hdbscan::FlatClustering flat;
  std::vector<index_t> dense(clusters.size(), kNone);
  std::vector<char> blocked(clusters.size(), 0);
  for (index_t c = 0; c < nc; ++c) {
    const index_t parent = at(clusters, c).parent;
    if (parent != kNone) at(blocked, c) = at(blocked, parent) || at(selected, parent);
    if (!at(selected, c) || at(blocked, c)) continue;
    at(dense, c) = flat.num_clusters++;
    flat.selected_clusters.push_back(c);
  }
  for (const index_t pc : tree.point_cluster) {
    index_t c = pc;
    while (c != kNone && at(dense, c) == kNone) c = at(clusters, c).parent;
    flat.labels.push_back(c == kNone ? kNone : at(dense, c));
  }
  return flat;
}

/// A caterpillar condensed tree 10^4 clusters deep: chain cluster k splits
/// into chain cluster k+1 and a leaf, one point sheds from every cluster,
/// and stabilities are random so excess-of-mass selects at many depths.
hdbscan::CondensedTree deep_caterpillar(index_t depth) {
  hdbscan::CondensedTree tree;
  Rng rng(91);
  tree.clusters.push_back({kNone, 0.0, 1.0, 2 * depth + 1, rng.next_double(), kNone, kNone});
  index_t chain = 0;
  for (index_t k = 1; k <= depth; ++k) {
    const double lambda = static_cast<double>(k);
    const auto next = static_cast<index_t>(tree.clusters.size());
    auto& parent = tree.clusters[static_cast<std::size_t>(chain)];
    parent.child_a = next;
    parent.child_b = next + 1;
    parent.death_lambda = lambda;
    tree.clusters.push_back({chain, lambda, lambda + 1, 2 * (depth - k) + 1, rng.next_double(),
                             kNone, kNone});
    tree.clusters.push_back({chain, lambda, lambda + 1, 1, 3 * rng.next_double(), kNone, kNone});
    chain = next;
  }
  for (index_t c = 0; c < tree.num_clusters(); ++c) {
    tree.point_cluster.push_back(c);
    tree.point_lambda.push_back(tree.clusters[static_cast<std::size_t>(c)].death_lambda);
  }
  return tree;
}

TEST(Extraction, DeepCondensedTreeMatchesParentWalkReference) {
  const hdbscan::CondensedTree tree = deep_caterpillar(10000);
  // Birth distance is 1/k at chain depth k: 1/5000 lifts every cluster born
  // below depth 5000 to its depth-5000 ancestor; 2 lifts everything to the
  // root, i.e. to the root's child on the path unless a single cluster is
  // allowed (the last_non_root rule).
  for (const auto method : {ClusterSelectionMethod::excess_of_mass, ClusterSelectionMethod::leaf}) {
    for (const double eps : {0.0, 1.0 / 5000, 2.0}) {
      for (const bool single : {false, true}) {
        hdbscan::ExtractOptions options;
        options.method = method;
        options.selection_epsilon = eps;
        options.allow_single_cluster = single;
        const auto expected = reference_extract(tree, options);
        const auto got = hdbscan::extract_clusters(tree, options);
        EXPECT_GE(expected.num_clusters, 1);
        EXPECT_EQ(got.num_clusters, expected.num_clusters);
        EXPECT_EQ(got.selected_clusters, expected.selected_clusters);
        EXPECT_EQ(got.labels, expected.labels)
            << "method " << static_cast<int>(method) << " eps " << eps << " single " << single;
      }
    }
  }
}

}  // namespace
