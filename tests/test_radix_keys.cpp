// The order-preserving key transforms behind the key-packed radix edge sort
// (Section 3.1.1), and the radix edge sort against the canonical
// descending-(weight, id) comparator on adversarial weight patterns: negative
// weights, ±0.0, infinities, denormals, duplicates with id tie-breaks, and
// weights colliding in the packed 32-bit key prefix (the run fix-up path and
// the exact two-pass fallback).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "pandora/common/rng.hpp"
#include "pandora/dendrogram/pandora.hpp"
#include "pandora/dendrogram/sorted_edges.hpp"
#include "pandora/exec/sort.hpp"
#include "test_helpers.hpp"

namespace {

using namespace pandora;
using dendrogram::SortedEdges;
using pandora::testing::Topology;
using pandora::testing::all_topologies;
using pandora::testing::make_tree;
using pandora::testing::topology_name;

std::vector<double> adversarial_doubles() {
  const double inf = std::numeric_limits<double>::infinity();
  const double denorm = std::numeric_limits<double>::denorm_min();
  const double tiny = std::numeric_limits<double>::min();
  const double huge = std::numeric_limits<double>::max();
  return {-inf,   -huge,  -1.5,       -1.0,       -tiny, -denorm, -0.0, 0.0,
          denorm, 2 * denorm, tiny,   1.0,        1.0 + 1e-15, 1.5, huge, inf,
          0.1,    0.2,    0.1 + 0.2,  0.30000000000000004, 1e-300, -1e-300};
}

std::vector<float> adversarial_floats() {
  const float inf = std::numeric_limits<float>::infinity();
  const float denorm = std::numeric_limits<float>::denorm_min();
  return {-inf, -3.5f, -0.0f, 0.0f, denorm, 2 * denorm, 1.0f, 1.0000001f, 3.5f, inf};
}

TEST(OrderPreservingKeys, Key64MatchesDoubleOrderOnAdversarialValues) {
  const std::vector<double> values = adversarial_doubles();
  for (const double a : values)
    for (const double b : values) {
      EXPECT_EQ(a < b, exec::order_preserving_key64(a) < exec::order_preserving_key64(b))
          << a << " vs " << b;
      EXPECT_EQ(a == b, exec::order_preserving_key64(a) == exec::order_preserving_key64(b))
          << a << " vs " << b << " (±0.0 must map to one key)";
      // The descending key reverses the order exactly.
      EXPECT_EQ(a > b, exec::descending_weight_key(a) < exec::descending_weight_key(b));
    }
}

TEST(OrderPreservingKeys, Key32MatchesFloatOrderOnAdversarialValues) {
  const std::vector<float> values = adversarial_floats();
  for (const float a : values)
    for (const float b : values) {
      EXPECT_EQ(a < b, exec::order_preserving_key32(a) < exec::order_preserving_key32(b))
          << a << " vs " << b;
      EXPECT_EQ(a == b, exec::order_preserving_key32(a) == exec::order_preserving_key32(b));
    }
}

TEST(OrderPreservingKeys, Key64MatchesDoubleOrderOnRandomValues) {
  Rng rng(17);
  for (int i = 0; i < 20000; ++i) {
    const double a = (rng.next_double() - 0.5) *
                     std::pow(10.0, static_cast<double>(rng.next_below(600)) - 300.0);
    const double b = (rng.next_double() - 0.5) *
                     std::pow(10.0, static_cast<double>(rng.next_below(600)) - 300.0);
    ASSERT_EQ(a < b, exec::order_preserving_key64(a) < exec::order_preserving_key64(b))
        << a << " vs " << b;
  }
}

TEST(OrderPreservingKeys, PackKeepsKeyPrefixAndId) {
  const std::uint64_t key = exec::descending_weight_key(2.75);
  const std::uint64_t packed = exec::pack_key_and_id(key, 12345);
  EXPECT_EQ(packed >> 32, key >> 32);
  EXPECT_EQ(packed & 0xffffffffu, 12345u);
}

/// Reference sort: the explicit comparator the library's canonical order is
/// defined by.
std::vector<index_t> reference_order(const graph::EdgeList& edges) {
  std::vector<index_t> order(edges.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = static_cast<index_t>(i);
  std::stable_sort(order.begin(), order.end(), [&](index_t a, index_t b) {
    return edges[static_cast<std::size_t>(a)].weight > edges[static_cast<std::size_t>(b)].weight;
  });
  return order;
}

/// Sorts `tree` on every backend: the order must equal the reference, the
/// gathered endpoints and weights must follow it, and the dendrograms built
/// on top must be bit-identical across backends.
void expect_sort_matches_reference(const graph::EdgeList& tree, index_t nv, const char* what) {
  const std::vector<index_t> reference = reference_order(tree);
  std::vector<index_t> first_parent, first_edge_order;
  for (const auto& space : exec::registered_backends()) {
    const exec::Executor executor(space, 4);
    executor.set_artifact_caching(false);
    const SortedEdges sorted = dendrogram::sort_edges(executor, tree, nv);

    ASSERT_EQ(sorted.order, reference) << what << " " << executor.name();
    for (std::size_t i = 0; i < reference.size(); ++i) {
      const graph::WeightedEdge& e = tree[static_cast<std::size_t>(reference[i])];
      ASSERT_EQ(sorted.u[i], e.u) << what;
      ASSERT_EQ(sorted.v[i], e.v) << what;
      ASSERT_EQ(sorted.weight[i], e.weight) << what;
    }

    const auto d = dendrogram::pandora_dendrogram(executor, sorted);
    if (first_parent.empty()) {
      first_parent = d.parent;
      first_edge_order = d.edge_order;
    }
    ASSERT_EQ(d.parent, first_parent) << what << " " << executor.name();
    ASSERT_EQ(d.edge_order, first_edge_order) << what << " " << executor.name();
  }
}

TEST(RadixEdgeSort, MatchesReferenceOnRandomTrees) {
  for (const Topology topo : all_topologies()) {
    const graph::EdgeList tree = make_tree(topo, 4000, 23, /*distinct=*/0);
    expect_sort_matches_reference(tree, 4000, topology_name(topo));
  }
}

TEST(RadixEdgeSort, MatchesReferenceOnHeavyTies) {
  for (const int distinct : {1, 2, 5}) {
    const graph::EdgeList tree = make_tree(Topology::caterpillar, 6000, 3, distinct);
    expect_sort_matches_reference(tree, 6000, "ties");
  }
}

TEST(RadixEdgeSort, MatchesReferenceOnAdversarialWeights) {
  // Negative weights, ±0.0, denormals and infinities cycled over a random
  // tree.  (The library's validated inputs are finite and non-negative, but
  // the canonical sort order must hold for any NaN-free weights.)
  graph::EdgeList tree = make_tree(Topology::random_attach, 3000, 7, 0);
  const std::vector<double> specials = adversarial_doubles();
  for (std::size_t i = 0; i < tree.size(); ++i)
    tree[i].weight = specials[i % specials.size()];
  expect_sort_matches_reference(tree, 3000, "specials");
}

TEST(RadixEdgeSort, MatchesReferenceWhenKeyPrefixesCollide) {
  // Weights that agree in every key bit above the packed id (13 bits for
  // 4999 edges) but differ below: 1.0 + k * 2^-52 for k < 2^13 all share the
  // prefix.  With EVERY weight colliding the radix path detects the
  // degenerate repair and falls back to the exact two-pass radix argsort.
  graph::EdgeList tree = make_tree(Topology::path, 5000, 9, 0);
  Rng rng(41);
  for (auto& e : tree) {
    const double offset =
        static_cast<double>(rng.next_below(1 << 13)) * std::pow(2.0, -52);
    e.weight = 1.0 + offset;
  }
  expect_sort_matches_reference(tree, 5000, "all prefixes collide (fallback)");

  // A few exact duplicates inside the colliding range exercise the stable
  // id tie-break too.
  for (std::size_t i = 0; i + 10 < tree.size(); i += 10) tree[i + 5].weight = tree[i].weight;
  expect_sort_matches_reference(tree, 5000, "collisions + duplicates");

  // Three prefix groups (1.0, 2.0, 3.0 plus sub-prefix offsets), each one
  // collision run: the fallback's second pass must order the groups.
  for (std::size_t i = 0; i < tree.size(); ++i)
    tree[i].weight = static_cast<double>(1 + i % 3) +
                     static_cast<double>(rng.next_below(1 << 13)) * std::pow(2.0, -52);
  expect_sort_matches_reference(tree, 5000, "three colliding prefix groups (fallback)");
}

TEST(RadixEdgeSort, MatchesReferenceWithSparsePrefixCollisions) {
  // ~10% of edges form sub-prefix collision runs among otherwise well-spread
  // weights: the repair pass itself (not the fallback) fixes these runs.
  graph::EdgeList tree = make_tree(Topology::random_attach, 8000, 21, 0);
  Rng rng(43);
  for (std::size_t i = 0; i < tree.size(); i += 10) {
    // A cluster of three distinct weights sharing the 32-bit key prefix
    // (2^-30 steps: above ulp at these magnitudes, below the ~2^-20-relative
    // prefix resolution).
    const double base = 1.0 + static_cast<double>(i);
    tree[i].weight = base + 3 * std::pow(2.0, -30);
    if (i + 1 < tree.size()) tree[i + 1].weight = base + 1 * std::pow(2.0, -30);
    if (i + 2 < tree.size()) tree[i + 2].weight = base + 2 * std::pow(2.0, -30);
  }
  expect_sort_matches_reference(tree, 8000, "sparse prefix collisions");
}

TEST(RadixEdgeSort, MixedZerosKeepIdTieBreak) {
  // +0.0 and -0.0 compare equal, so every zero-weight edge belongs to one
  // tie run ordered by original id — regardless of zero sign.
  graph::EdgeList tree = make_tree(Topology::broom, 2000, 13, 0);
  for (std::size_t i = 0; i < tree.size(); ++i)
    tree[i].weight = (i % 3 == 0) ? -0.0 : 0.0;
  expect_sort_matches_reference(tree, 2000, "signed zeros");

  const exec::Executor executor(exec::serial_backend());
  const SortedEdges sorted = dendrogram::sort_edges(executor, tree, 2000);
  for (index_t i = 1; i < sorted.num_edges(); ++i)
    ASSERT_LT(sorted.order[static_cast<std::size_t>(i - 1)],
              sorted.order[static_cast<std::size_t>(i)]);
}

}  // namespace
