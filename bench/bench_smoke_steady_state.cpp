// CI smoke: steady-state allocation check on a small fig11-style workload.
//
// Builds a mutual-reachability MST for ~50k points, warms an Executor with
// two dendrogram constructions, then asserts that the third (identical) run
// performs ZERO heap allocations — the sorted-edges cache replays the sort,
// the contraction/expansion run out of the workspace arena, and the output
// Dendrogram reuses its capacity.  Exits non-zero on any allocation, so the
// Release CI job fails if a regression reintroduces per-call allocations.

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>

namespace {
std::atomic<std::size_t> g_allocation_count{0};
}  // namespace

// Replaceable global allocation functions (see tests/alloc_counter.hpp for
// the test-suite twin of this counter).
void* operator new(std::size_t size) {
  g_allocation_count.fetch_add(1, std::memory_order_relaxed);
  if (size == 0) size = 1;
  while (true) {
    if (void* p = std::malloc(size)) return p;
    if (std::new_handler handler = std::get_new_handler()) {
      handler();
    } else {
      throw std::bad_alloc{};
    }
  }
}

void* operator new(std::size_t size, std::align_val_t alignment) {
  g_allocation_count.fetch_add(1, std::memory_order_relaxed);
  if (size == 0) size = 1;
  const auto align = static_cast<std::size_t>(alignment);
  const std::size_t rounded = (size + align - 1) / align * align;
  while (true) {
    if (void* p = std::aligned_alloc(align, rounded)) return p;
    if (std::new_handler handler = std::get_new_handler()) {
      handler();
    } else {
      throw std::bad_alloc{};
    }
  }
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

#include "bench_common.hpp"
#include "pandora/pipeline.hpp"

using namespace pandora;

int main() {
  const index_t n = bench::scaled(50000);
  bench::print_header("Steady-state allocation smoke (fig11-style workload)",
                      "CI gate: zero heap allocations after warm-up");

  const spatial::PointSet points = data::make_dataset("HaccProxy", n, 2024);
  const exec::Executor executor(exec::default_backend());
  spatial::KdTree tree(executor, points);
  const graph::EdgeList mst = spatial::mutual_reachability_mst(
      executor, points, tree, hdbscan::core_distances(executor, points, tree, 2));

  dendrogram::Dendrogram out;
  // Warm-up: the first run sizes the arena, the second settles OpenMP team
  // state.
  dendrogram::pandora_dendrogram_into(executor, mst, n, {}, out);
  dendrogram::pandora_dendrogram_into(executor, mst, n, {}, out);

  executor.workspace().reset_stats();
  const std::size_t before = g_allocation_count.load();
  Timer timer;
  dendrogram::pandora_dendrogram_into(executor, mst, n, {}, out);
  const double seconds = timer.seconds();
  const std::size_t allocations = g_allocation_count.load() - before;
  const std::size_t misses = executor.workspace().stats().misses;

  std::printf("n=%d  steady-state run: %.1f ms, %zu heap allocations, %zu arena misses\n",
              n, 1e3 * seconds, allocations, misses);
  if (out.num_edges != n - 1 || out.parent[0] != kNone) {
    std::printf("FAIL: dendrogram shape is wrong\n");
    return 1;
  }
  if (allocations != 0 || misses != 0) {
    std::printf("FAIL: steady-state dendrogram construction must not allocate\n");
    return 1;
  }
  std::printf("PASS\n");
  return 0;
}
