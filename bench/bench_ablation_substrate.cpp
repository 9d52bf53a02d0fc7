// Ablation B (DESIGN.md): substrate micro-benchmarks via google-benchmark —
// the primitives whose scaling drives Figures 12/13: radix vs comparison
// sorting, parallel vs serial scans, and concurrent vs sequential union-find
// on the contraction's union workload.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <numeric>

#include "pandora/common/rng.hpp"
#include "pandora/data/tree_generators.hpp"
#include "pandora/exec/parallel.hpp"
#include "pandora/exec/scan.hpp"
#include "pandora/exec/sort.hpp"
#include "pandora/graph/union_find.hpp"

using namespace pandora;

namespace {

std::vector<std::uint64_t> random_keys(std::int64_t n) {
  Rng rng(42);
  std::vector<std::uint64_t> keys(static_cast<std::size_t>(n));
  for (auto& k : keys) k = rng.next_u64() >> 20;  // ~44-bit keys, as in expansion
  return keys;
}

void BM_RadixSort(benchmark::State& state) {
  const exec::Executor executor(state.range(1) ? exec::default_backend() : exec::serial_backend());
  const auto base = random_keys(state.range(0));
  for (auto _ : state) {
    auto keys = base;
    exec::radix_sort_u64(executor, keys);
    benchmark::DoNotOptimize(keys.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}

void BM_StdSort(benchmark::State& state) {
  const auto base = random_keys(state.range(0));
  for (auto _ : state) {
    auto keys = base;
    std::sort(keys.begin(), keys.end());
    benchmark::DoNotOptimize(keys.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}

void BM_ExclusiveScan(benchmark::State& state) {
  const exec::Executor executor(state.range(1) ? exec::default_backend() : exec::serial_backend());
  std::vector<index_t> in(static_cast<std::size_t>(state.range(0)), 1);
  std::vector<index_t> out(in.size());
  for (auto _ : state) {
    benchmark::DoNotOptimize(exec::exclusive_scan<index_t>(executor, in, out));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}

/// The contraction workload: union the endpoints of every non-alpha edge of a
/// skewed tree.
void BM_UnionFindContraction(benchmark::State& state) {
  const auto n = static_cast<index_t>(state.range(0));
  const bool concurrent = state.range(1) != 0;
  Rng rng(7);
  graph::EdgeList tree = data::preferential_attachment_tree(n, rng);
  for (auto _ : state) {
    if (concurrent) {
      static const exec::Executor parallel_executor(exec::default_backend());
      graph::ConcurrentUnionFind uf(n);
      exec::parallel_for(parallel_executor, static_cast<size_type>(tree.size()),
                         [&](size_type i) {
                           uf.unite(tree[static_cast<std::size_t>(i)].u,
                                    tree[static_cast<std::size_t>(i)].v);
                         });
      benchmark::DoNotOptimize(uf.find(0));
    } else {
      graph::UnionFind uf(n);
      for (const auto& e : tree) uf.unite(e.u, e.v);
      benchmark::DoNotOptimize(uf.find(0));
    }
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}

}  // namespace

BENCHMARK(BM_RadixSort)->Args({1 << 20, 0})->Args({1 << 20, 1})->Unit(benchmark::kMillisecond);
BENCHMARK(BM_StdSort)->Args({1 << 20})->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ExclusiveScan)
    ->Args({1 << 22, 0})
    ->Args({1 << 22, 1})
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_UnionFindContraction)
    ->Args({1 << 20, 0})
    ->Args({1 << 20, 1})
    ->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();
