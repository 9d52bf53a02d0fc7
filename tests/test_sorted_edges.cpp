#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <numeric>
#include <string>

#include "pandora/common/rng.hpp"
#include "pandora/dendrogram/sorted_edges.hpp"
#include "test_helpers.hpp"

namespace {

using namespace pandora;
using dendrogram::SortedEdges;
using pandora::testing::Topology;
using pandora::testing::make_tree;

TEST(SortedEdges, DescendingWeightsWithStableTieBreak) {
  const graph::EdgeList tree = make_tree(Topology::random_attach, 500, 7, /*distinct=*/3);
  for (const auto& space : exec::registered_backends()) {
    const SortedEdges sorted = dendrogram::sort_edges(exec::default_executor(space), tree, 500);
    ASSERT_EQ(sorted.num_edges(), 499);
    for (index_t i = 1; i < sorted.num_edges(); ++i) {
      const double prev = sorted.weight[static_cast<std::size_t>(i - 1)];
      const double cur = sorted.weight[static_cast<std::size_t>(i)];
      ASSERT_GE(prev, cur);
      if (prev == cur) {
        ASSERT_LT(sorted.order[static_cast<std::size_t>(i - 1)],
                  sorted.order[static_cast<std::size_t>(i)])
            << "ties must keep original edge order";
      }
    }
  }
}

TEST(SortedEdges, OrderIsAPermutationCarryingEndpoints) {
  const graph::EdgeList tree = make_tree(Topology::preferential, 300, 3, 0);
  const SortedEdges sorted = dendrogram::sort_edges(exec::default_executor(), tree, 300);
  std::vector<bool> seen(tree.size(), false);
  for (index_t i = 0; i < sorted.num_edges(); ++i) {
    const index_t original = sorted.order[static_cast<std::size_t>(i)];
    ASSERT_GE(original, 0);
    ASSERT_LT(original, static_cast<index_t>(tree.size()));
    ASSERT_FALSE(seen[static_cast<std::size_t>(original)]);
    seen[static_cast<std::size_t>(original)] = true;
    const auto& e = tree[static_cast<std::size_t>(original)];
    EXPECT_EQ(sorted.u[static_cast<std::size_t>(i)], e.u);
    EXPECT_EQ(sorted.v[static_cast<std::size_t>(i)], e.v);
    EXPECT_EQ(sorted.weight[static_cast<std::size_t>(i)], e.weight);
  }
}

TEST(SortedEdges, SerialAndParallelAgreeExactly) {
  const graph::EdgeList tree = make_tree(Topology::caterpillar, 20000, 11, /*distinct=*/2);
  const SortedEdges a = dendrogram::sort_edges(exec::default_executor(exec::serial_backend()), tree, 20000);
  const SortedEdges b = dendrogram::sort_edges(exec::default_executor(), tree, 20000);
  EXPECT_EQ(a.order, b.order);
  EXPECT_EQ(a.u, b.u);
  EXPECT_EQ(a.v, b.v);
}

TEST(SortedEdges, DeltaMergeIsBitIdenticalToAFullSort) {
  // Drop a pseudo-random subset of a sorted run, append new edges (with
  // deliberate exact weight ties against survivors), optionally remap
  // vertices — the linear delta merge must equal sort_edges over the
  // materialised updated list, order array included.
  const exec::Executor& executor = exec::default_executor();
  const graph::EdgeList tree = make_tree(Topology::random_attach, 2000, 13, /*distinct=*/4);
  const SortedEdges base = dendrogram::sort_edges(executor, tree, 2000);

  std::vector<char> keep(tree.size(), 1);
  for (std::size_t i = 0; i < tree.size(); i += 7) keep[i] = 0;

  graph::EdgeList added;
  for (index_t j = 0; j < 40; ++j) {
    // Half the additions duplicate surviving weights exactly (tie stress).
    const auto src = static_cast<std::size_t>(j * 11 + 1);
    const double weight = j % 2 == 0 ? tree[src].weight : 0.123 + j;
    added.push_back({j, 1999 - j, weight});
  }

  // Identity remap exercised as both an empty span and an explicit one.
  std::vector<index_t> identity(2000);
  for (index_t v = 0; v < 2000; ++v) identity[static_cast<std::size_t>(v)] = v;

  graph::EdgeList updated;
  for (std::size_t i = 0; i < tree.size(); ++i)
    if (keep[i] != 0) updated.push_back(tree[i]);
  updated.insert(updated.end(), added.begin(), added.end());
  const SortedEdges expected = dendrogram::sort_edges(executor, updated, 2000);

  for (const bool explicit_remap : {false, true}) {
    SortedEdges merged;
    dendrogram::merge_sorted_edges_delta(
        executor, base, keep, added,
        explicit_remap ? std::span<const index_t>(identity) : std::span<const index_t>{},
        2000, merged);
    EXPECT_EQ(merged.u, expected.u);
    EXPECT_EQ(merged.v, expected.v);
    EXPECT_EQ(merged.weight, expected.weight);
    EXPECT_EQ(merged.order, expected.order);
    EXPECT_EQ(merged.num_vertices, expected.num_vertices);
  }

  // Degenerate deltas: drop everything / add nothing.
  SortedEdges all_dropped;
  const std::vector<char> none(tree.size(), 0);
  dendrogram::merge_sorted_edges_delta(executor, base, none, added, {}, 2000, all_dropped);
  const SortedEdges only_added = dendrogram::sort_edges(executor, added, 2000);
  EXPECT_EQ(all_dropped.weight, only_added.weight);
  EXPECT_EQ(all_dropped.order, only_added.order);

  SortedEdges unchanged;
  dendrogram::merge_sorted_edges_delta(executor, base, std::vector<char>(tree.size(), 1), {},
                                       {}, 2000, unchanged);
  EXPECT_EQ(unchanged.u, base.u);
  EXPECT_EQ(unchanged.order, base.order);
}

/// The canonical order by its definition: descending weight, ties by id.
std::vector<index_t> stable_sort_reference(const graph::EdgeList& edges) {
  std::vector<index_t> order(edges.size());
  std::iota(order.begin(), order.end(), index_t{0});
  std::stable_sort(order.begin(), order.end(), [&](index_t a, index_t b) {
    return edges[static_cast<std::size_t>(a)].weight > edges[static_cast<std::size_t>(b)].weight;
  });
  return order;
}

TEST(SortedEdges, PackedSortMatchesStableSortAtEveryIdWidth) {
  // The packed sort gives ids bit_width(m - 1) bits under the weight key, so
  // the prefix length changes with m: each pair straddles a width step.
  // Weight families: spread; equal in the top 32 key bits but not the top
  // 44 (what a 32-bit prefix had to repair); few distinct values (exact
  // ties); sparse clusters a few ulps apart (the repair path); and one
  // input whose every weight shares the key prefix (the exact fallback).
  const std::array<exec::Executor, 4> executors{
      exec::Executor(exec::serial_backend()), exec::Executor(exec::openmp_backend(), 2),
      exec::Executor(exec::openmp_backend(), 3), exec::Executor(exec::openmp_backend(), 4)};
  for (const index_t m : {1, 2, 256, 257, 65536, 65537}) {
    const int id_bits = m > 1 ? std::bit_width(static_cast<std::uint32_t>(m - 1)) : 0;
    Rng rng(static_cast<std::uint64_t>(m));
    std::vector<std::pair<std::string, graph::EdgeList>> inputs;
    const auto family = [&](const std::string& name, auto weight_of) {
      graph::EdgeList edges;
      for (index_t i = 0; i < m; ++i) edges.push_back({i, i + 1, weight_of(i)});
      inputs.emplace_back(name, std::move(edges));
    };
    family("spread", [&](index_t) { return rng.next_double() * 100.0; });
    // 1 + k * 2^-32 moves mantissa bits 20..31 only: inside the top 44 key
    // bits, below the top 32.
    family("top-32 collisions", [&](index_t i) {
      return static_cast<double>(1 + i % 4) +
             static_cast<double>(rng.next_below(1 << 12)) * std::pow(2.0, -32);
    });
    family("exact ties", [&](index_t) { return static_cast<double>(rng.next_below(3)); });
    family("sparse ulp clusters", [&](index_t i) {
      const double base = 1.0 + static_cast<double>(i / 8) / 1024.0;
      return i % 8 < 3 ? base + static_cast<double>(rng.next_below(4)) * std::pow(2.0, -52)
                       : base + std::pow(2.0, -20) * (1 + i % 8);
    });
    if (m == 65537) {
      // Every weight shares every key bit above the id bits, so one repair
      // run covers the input and the sort takes the exact fallback.
      family("degenerate prefix", [&](index_t) {
        return 1.0 + static_cast<double>(rng.next_below(std::uint64_t{1} << id_bits)) *
                         std::pow(2.0, -52);
      });
    }
    for (const auto& [name, edges] : inputs) {
      const std::vector<index_t> reference = stable_sort_reference(edges);
      for (const exec::Executor& executor : executors) {
        const SortedEdges sorted = dendrogram::sort_edges(executor, edges, m + 1);
        ASSERT_EQ(sorted.order, reference)
            << name << ", m = " << m << " on " << executor.backend().name() << "/"
            << executor.num_threads();
      }
    }
  }
}

TEST(SortedEdges, ValidationRejectsNonTrees) {
  graph::EdgeList cycle{{0, 1, 1.0}, {1, 2, 1.0}, {2, 0, 1.0}};
  EXPECT_THROW((void)dendrogram::sort_edges(exec::default_executor(exec::serial_backend()), cycle, 3, true),
               std::invalid_argument);
  graph::EdgeList nan_weight{{0, 1, std::numeric_limits<double>::quiet_NaN()}};
  EXPECT_THROW((void)dendrogram::sort_edges(exec::default_executor(exec::serial_backend()), nan_weight, 2, true),
               std::invalid_argument);
}

}  // namespace
