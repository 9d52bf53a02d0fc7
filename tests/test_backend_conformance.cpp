// Backend conformance: every registered execution backend — and a
// test-local backend that runs each launch on freshly spawned threads, so
// chunks really run concurrently even on a 1-core host or under
// ThreadSanitizer — must produce BIT-IDENTICAL results for the primitive set
// the subsystems consume (radix sort, scan, deterministic left-to-right
// reduce, parallel_for) and for the full dendrogram / HDBSCAN* / dyn::
// pipelines, and the registered backends must uphold the warm-executor
// zero-steady-state-allocation guarantee.  This is the contract that makes
// "add a device backend" an implementation of one interface instead of a
// rewrite.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "alloc_counter.hpp"
#include "pandora/common/rng.hpp"
#include "pandora/data/point_generators.hpp"
#include "pandora/dendrogram/contraction.hpp"
#include "pandora/dendrogram/pandora.hpp"
#include "pandora/dendrogram/union_find_dendrogram.hpp"
#include "pandora/dyn/dynamic_clustering.hpp"
#include "pandora/exec/parallel.hpp"
#include "pandora/exec/scan.hpp"
#include "pandora/exec/sort.hpp"
#include "pandora/hdbscan/core_distance.hpp"
#include "pandora/hdbscan/hdbscan.hpp"
#include "pandora/pipeline.hpp"
#include "pandora/spatial/emst.hpp"
#include "test_helpers.hpp"

namespace {

using namespace pandora;
using pandora::testing::AllocationCounterScope;
using pandora::testing::Topology;
using pandora::testing::make_tree;

/// Runs every launch on freshly spawned threads (plus the caller) pulling
/// chunks from a shared atomic cursor.  libgomp's team is invisible to
/// ThreadSanitizer, so this is how a TSan build sees chunk bodies race.
/// Spawning allocates, so it stays out of the zero-allocation test.
class SpawningBackend final : public exec::Backend {
 public:
  [[nodiscard]] const char* name() const noexcept override { return "spawning"; }
  [[nodiscard]] int concurrency() const noexcept override { return 4; }
  void run_chunks(int num_chunks, int max_workers, exec::ChunkBody body) const override {
    std::atomic<int> cursor{0};
    auto work = [&] {
      for (int c = cursor.fetch_add(1); c < num_chunks; c = cursor.fetch_add(1)) body(c);
    };
    std::vector<std::thread> threads;
    for (int t = 1; t < std::min(num_chunks, max_workers); ++t) threads.emplace_back(work);
    work();
    for (std::thread& thread : threads) thread.join();
  }
};

/// Every backend under conformance test: the registered singletons plus
/// the thread-spawning backend.
std::vector<std::shared_ptr<const exec::Backend>> conformance_backends() {
  auto backends = exec::registered_backends();
  backends.push_back(std::make_shared<SpawningBackend>());
  return backends;
}

/// A 4-thread executor on `backend`: all parallel backends chunk identically
/// (the serial backend grants 1 and runs the sequential reference).
exec::Executor executor_on(const std::shared_ptr<const exec::Backend>& backend) {
  return exec::Executor(backend, 4);
}

TEST(BackendConformance, RegisteredBackendsAreDistinctAndNamed) {
  const auto backends = exec::registered_backends();
  ASSERT_EQ(backends.size(), 2u);
  EXPECT_STREQ(backends[0]->name(), "serial");
  EXPECT_STREQ(backends[1]->name(), "openmp");
  EXPECT_EQ(backends[0]->concurrency(), 1);
  for (const auto& backend : backends) EXPECT_GE(backend->concurrency(), 1);
}

TEST(BackendConformance, ParallelForCoversEveryIndexExactlyOnce) {
  const size_type n = 100000;
  for (const auto& backend : conformance_backends()) {
    const exec::Executor executor = executor_on(backend);
    std::vector<int> hits(static_cast<std::size_t>(n), 0);
    exec::parallel_for(executor, n,
                       [&](size_type i) { hits[static_cast<std::size_t>(i)]++; });
    EXPECT_EQ(std::count(hits.begin(), hits.end(), 1), n) << backend->name();
  }
}

TEST(BackendConformance, RadixSortBitIdentityIncludingByteRanges) {
  // Sizes around the parallel grain (2048) run one chunk below it and one
  // per thread above; every backend, the serial one included, runs the same
  // radix passes.
  for (const std::size_t n : {0, 1, 2, 2047, 2048, 2049, 100000}) {
    Rng rng(7 + n);
    std::vector<std::uint64_t> input(n);
    for (auto& k : input) k = rng.next_u64();
    // Some equal keys so stability matters.
    for (std::size_t i = 0; i < input.size(); i += 37) input[i] = input[0];

    for (const auto [first_byte, last_byte] :
         {std::array<int, 2>{0, 8}, std::array<int, 2>{4, 8}, std::array<int, 2>{2, 5}}) {
      const std::uint64_t hi = last_byte >= 8 ? ~std::uint64_t{0}
                                              : (std::uint64_t{1} << (8 * last_byte)) - 1;
      const std::uint64_t mask = hi & (~std::uint64_t{0} << (8 * first_byte));
      std::vector<std::uint64_t> reference = input;
      std::stable_sort(reference.begin(), reference.end(),
                       [mask](std::uint64_t a, std::uint64_t b) { return (a & mask) < (b & mask); });

      for (const auto& backend : conformance_backends()) {
        const exec::Executor executor = executor_on(backend);
        std::vector<std::uint64_t> keys = input;
        exec::radix_sort_u64(executor, keys, first_byte, last_byte);
        EXPECT_EQ(keys, reference) << backend->name() << " n=" << n << " bytes [" << first_byte
                                   << ", " << last_byte << ")";
      }
    }
  }
}

TEST(BackendConformance, ExclusiveAndInclusiveScanMatchSerialReference) {
  const size_type n = 50000;
  Rng rng(11);
  std::vector<index_t> in(static_cast<std::size_t>(n));
  for (auto& v : in) v = static_cast<index_t>(rng.next_u64() % 5);

  std::vector<index_t> reference(in.size());
  index_t running = 0;
  for (std::size_t i = 0; i < in.size(); ++i) {
    reference[i] = running;
    running += in[i];
  }

  for (const auto& backend : conformance_backends()) {
    const exec::Executor executor = executor_on(backend);
    std::vector<index_t> out(in.size());
    const index_t total = exec::exclusive_scan<index_t>(executor, in, out);
    EXPECT_EQ(total, running) << backend->name();
    EXPECT_EQ(out, reference) << backend->name();

    std::vector<index_t> inc(in.size());
    exec::inclusive_scan<index_t>(executor, in, inc);
    for (std::size_t i = 0; i < in.size(); ++i)
      ASSERT_EQ(inc[i], reference[i] + in[i]) << backend->name() << " @" << i;
  }
}

/// 2x2 integer matrices under multiplication: associative, NOT commutative.
/// The left-to-right combine contract means every backend must reproduce the
/// serial fold exactly, and repeated runs must agree bit-for-bit no matter
/// which pool worker ran which chunk.
struct Mat2 {
  std::int64_t a, b, c, d;
  friend bool operator==(const Mat2&, const Mat2&) = default;
};

Mat2 mat_mul(const Mat2& x, const Mat2& y) {
  // Entries stay bounded: inputs are small rotations/shears mod a prime.
  constexpr std::int64_t kMod = 1000003;
  return {(x.a * y.a + x.b * y.c) % kMod, (x.a * y.b + x.b * y.d) % kMod,
          (x.c * y.a + x.d * y.c) % kMod, (x.c * y.b + x.d * y.d) % kMod};
}

Mat2 element(size_type i) {
  const auto v = static_cast<std::int64_t>(i);
  return {1 + v % 3, v % 5, v % 7, 1 + v % 2};
}

TEST(BackendConformance, NonCommutativeReduceIsLeftToRightOnEveryBackend) {
  const size_type n = 200000;
  Mat2 reference{1, 0, 0, 1};
  for (size_type i = 0; i < n; ++i) reference = mat_mul(reference, element(i));

  for (const auto& backend : conformance_backends()) {
    const exec::Executor executor = executor_on(backend);
    const Mat2 identity{1, 0, 0, 1};
    const Mat2 result = exec::parallel_reduce(executor, n, identity, element, mat_mul);
    EXPECT_EQ(result, reference) << backend->name();

    // Determinism under scheduling jitter: chunks go to whichever worker
    // claims them first, which must never show in the result.
    for (int repeat = 0; repeat < 10; ++repeat) {
      ASSERT_EQ(exec::parallel_reduce(executor, n, identity, element, mat_mul), reference)
          << backend->name() << " repeat " << repeat;
    }
  }
}

TEST(BackendConformance, NestedLaunchesCompleteOnEveryBackend) {
  // A chunk body that launches again on the same backend must complete,
  // never deadlocking on the in-flight outer launch, and run every inner
  // chunk exactly once.
  for (const auto& backend : conformance_backends()) {
    std::array<std::atomic<int>, 4 * 8> hits{};
    auto outer = [&](int c) {
      auto inner = [&](int i) { hits[static_cast<std::size_t>(c * 8 + i)]++; };
      backend->run_chunks(8, 4, inner);
    };
    backend->run_chunks(4, 4, outer);
    for (const auto& hit : hits) EXPECT_EQ(hit.load(), 1) << backend->name();
  }
}

TEST(BackendConformance, FullDendrogramBitIdenticalAcrossBackends) {
  for (const auto topology : {Topology::caterpillar, Topology::preferential}) {
    const index_t nv = 20000;
    const graph::EdgeList tree = make_tree(topology, nv, 13, 4);
    const exec::Executor serial(exec::serial_backend());
    const dendrogram::Dendrogram reference = dendrogram::pandora_dendrogram(serial, tree, nv);

    for (const auto& backend : conformance_backends()) {
      const exec::Executor executor = executor_on(backend);
      const dendrogram::Dendrogram d = dendrogram::pandora_dendrogram(executor, tree, nv);
      EXPECT_EQ(d.parent, reference.parent) << backend->name();
      EXPECT_EQ(d.weight, reference.weight) << backend->name();
      EXPECT_EQ(d.edge_order, reference.edge_order) << backend->name();
    }
  }
}

/// Everything a contraction hierarchy holds, flattened for exact comparison:
/// per level its counts, sided parents and vertex map, then every global
/// edge's contraction level and supervertex.
std::vector<std::int64_t> flatten(const dendrogram::ContractionHierarchy& h) {
  std::vector<std::int64_t> flat;
  for (const dendrogram::ContractionLevel& level : h.levels) {
    flat.insert(flat.end(), {level.num_vertices, level.num_edges, level.num_alpha});
    flat.insert(flat.end(), level.sided_parent.begin(), level.sided_parent.end());
    flat.insert(flat.end(), level.vertex_map.begin(), level.vertex_map.end());
  }
  flat.insert(flat.end(), h.contraction_level.begin(), h.contraction_level.end());
  flat.insert(flat.end(), h.supervertex.begin(), h.supervertex.end());
  return flat;
}

TEST(BackendConformance, ContractionHierarchyBitIdenticalAcrossBackends) {
  // The find pass chases one pointer forest from concurrent chunks (the
  // TSan lane races it on the spawning backend); every level must come out
  // identical to the serial reference, and the parents equal union-find's.
  const index_t nv = 20000;
  std::vector<std::pair<std::string, graph::EdgeList>> trees;
  for (const Topology topology : pandora::testing::all_topologies())
    trees.emplace_back(pandora::testing::topology_name(topology), make_tree(topology, nv, 29));
  trees.emplace_back("increasing path", data::path_tree(nv));
  trees.emplace_back("increasing caterpillar", data::caterpillar_tree(nv));
  trees.emplace_back("increasing star", data::star_tree(nv));
  std::vector<index_t> perm(static_cast<std::size_t>(nv));
  std::iota(perm.begin(), perm.end(), index_t{0});
  Rng rng(31);
  for (index_t i = nv - 1; i > 0; --i)
    std::swap(perm[static_cast<std::size_t>(i)],
              perm[rng.next_below(static_cast<std::uint64_t>(i) + 1)]);
  graph::EdgeList permuted = data::path_tree(nv);
  for (graph::WeightedEdge& edge : permuted) {
    edge.u = perm[static_cast<std::size_t>(edge.u)];
    edge.v = perm[static_cast<std::size_t>(edge.v)];
  }
  trees.emplace_back("increasing permuted path", std::move(permuted));
  for (std::size_t t = pandora::testing::all_topologies().size(); t < trees.size(); ++t)
    data::assign_increasing_weights(trees[t].second);

  // 3 threads split the owner passes' vertex and chain-slot ranges unevenly.
  const std::array<exec::Executor, 5> executors{
      exec::Executor(exec::serial_backend()), exec::Executor(exec::openmp_backend(), 2),
      exec::Executor(exec::openmp_backend(), 3), exec::Executor(exec::openmp_backend(), 4),
      exec::Executor(std::make_shared<SpawningBackend>(), 4)};
  for (const auto& [name, tree] : trees) {
    const dendrogram::SortedEdges sorted = dendrogram::sort_edges(executors[0], tree, nv);
    const auto hierarchy_on = [&](const exec::Executor& executor) {
      return flatten(
          dendrogram::build_hierarchy(executor, sorted.u, sorted.v, {}, nv, sorted.num_edges()));
    };
    const std::vector<std::int64_t> reference = hierarchy_on(executors[0]);
    const dendrogram::Dendrogram baseline =
        dendrogram::union_find_dendrogram(executors[0], tree, nv);
    for (const exec::Executor& executor : executors) {
      const std::string label =
          name + " on " + executor.backend().name() + "/" + std::to_string(executor.num_threads());
      EXPECT_TRUE(hierarchy_on(executor) == reference) << label;
      EXPECT_EQ(dendrogram::pandora_dendrogram(executor, tree, nv).parent, baseline.parent)
          << label;
    }
  }
}

TEST(BackendConformance, OwnerComputesPassKeepsTheLastStorePerSlot) {
  // Every slot must end up holding the largest input that targets it, and
  // every input's store must land, whatever the chunk count: uneven ranges
  // (3 chunks), and more chunks than slots (empty ranges that skip the
  // stream), on the spawning backend too so the TSan lane races the chunks.
  const size_type n = 50000;
  for (const size_type num_slots : {size_type{1}, size_type{3}, size_type{1000}}) {
    std::vector<index_t> target(static_cast<std::size_t>(n));
    for (size_type i = 0; i < n; ++i)
      target[static_cast<std::size_t>(i)] =
          static_cast<index_t>((i * 2654435761u) % static_cast<std::uint64_t>(num_slots));
    std::vector<index_t> expected(static_cast<std::size_t>(num_slots), kNone);
    for (size_type i = 0; i < n; ++i)
      expected[static_cast<std::size_t>(target[static_cast<std::size_t>(i)])] =
          static_cast<index_t>(i);
    const std::array<exec::Executor, 5> executors{
        exec::Executor(exec::serial_backend()), exec::Executor(exec::openmp_backend(), 2),
        exec::Executor(exec::openmp_backend(), 3), exec::Executor(exec::openmp_backend(), 4),
        exec::Executor(std::make_shared<SpawningBackend>(), 4)};
    for (const exec::Executor& executor : executors) {
      std::vector<index_t> last(static_cast<std::size_t>(num_slots), kNone);
      std::vector<index_t> masked(static_cast<std::size_t>(num_slots), kNone);
      exec::parallel_for_owned(executor, num_slots, n,
                               [&](size_type i, const exec::OwnedRange& owned) {
                                 const index_t t = target[static_cast<std::size_t>(i)];
                                 index_t sink;
                                 *owned.select(std::span<index_t>(masked), t, &sink) =
                                     static_cast<index_t>(i);
                                 if (owned.contains(t))
                                   last[static_cast<std::size_t>(t)] = static_cast<index_t>(i);
                               });
      const std::string label = std::to_string(num_slots) + " slots on " +
                                executor.backend().name() + "/" +
                                std::to_string(executor.num_threads());
      EXPECT_EQ(last, expected) << label;
      EXPECT_EQ(masked, expected) << label;
    }
  }
}

TEST(BackendConformance, KdTreeBuildBitIdenticalAcrossBackends) {
  // The parallel build writes disjoint node, box, permutation and leaf
  // block ranges from concurrent chunks (the TSan lane races them on the
  // spawning backend); the tree must answer exactly as the executor-less
  // build does.
  for (const pandora::testing::KdTreeBuildCase& c : pandora::testing::kdtree_build_cases()) {
    const auto expected =
        pandora::testing::kdtree_query_sweep(spatial::KdTree(c.points, c.leaf_size));
    for (const auto& backend : conformance_backends()) {
      const exec::Executor executor = executor_on(backend);
      EXPECT_EQ(pandora::testing::kdtree_query_sweep(
                    spatial::KdTree(executor, c.points, c.leaf_size)),
                expected)
          << c.name << " on " << backend->name();
    }
  }
}

TEST(BackendConformance, HdbscanBitIdenticalAcrossBackends) {
  // Several mpts values and a tie-heavy grid with duplicates, so the kNN
  // seeding of Borůvka's first round and the per-point lower bounds run on
  // the spawning backend's concurrent chunks (the TSan lane races them).
  const std::array<spatial::PointSet, 2> inputs = {
      data::gaussian_blobs(3000, 2, 4, 0.04, 0.06, 5), pandora::testing::tie_heavy_grid()};
  for (const spatial::PointSet& points : inputs) {
    for (const int min_pts : {2, 4, 9}) {
      hdbscan::HdbscanOptions options;
      options.min_pts = min_pts;
      options.min_cluster_size = 20;

      const exec::Executor serial(exec::serial_backend());
      const auto reference = hdbscan::hdbscan(serial, points, options);

      for (const auto& backend : conformance_backends()) {
        const exec::Executor executor = executor_on(backend);
        const auto result = hdbscan::hdbscan(executor, points, options);
        const std::string where =
            std::string(backend->name()) + " n=" + std::to_string(points.size()) +
            " mpts=" + std::to_string(min_pts);
        EXPECT_EQ(result.labels, reference.labels) << where;
        EXPECT_EQ(result.num_clusters, reference.num_clusters) << where;
        EXPECT_EQ(result.dendrogram.parent, reference.dendrogram.parent) << where;
        EXPECT_EQ(result.core_distances, reference.core_distances) << where;
        ASSERT_EQ(result.mst.size(), reference.mst.size()) << where;
        for (std::size_t i = 0; i < result.mst.size(); ++i)
          ASSERT_EQ(result.mst[i], reference.mst[i]) << where << " edge " << i;
      }
    }
  }
}

TEST(BackendConformance, SpatialRankPassesBitIdenticalAcrossBackends) {
  // The spatial layer keeps its per-point state in kd-tree rank order: the
  // tree's coordinate columns (written by the build's chunks), the kNN
  // pass's rank-indexed lists and id-scattered core distances, the MST's
  // rank gather of core² and its rank-ordered Borůvka rounds.  On 20k points whose ids are
  // shuffled (so ranks and ids disagree everywhere) every output must be
  // identical on the serial backend, on openmp at 2, 3 and 4 threads, and
  // on the spawning backend, whose concurrent chunks the TSan lane races.
  const spatial::PointSet points =
      pandora::testing::shuffle_ids(data::gaussian_blobs(20000, 3, 8, 0.03, 0.1, 41), 9).points;
  struct Outputs {
    std::vector<index_t> tree_order;
    std::vector<double> core;
    spatial::NeighborLists lists;
    graph::EdgeList mst;
  };
  const auto run = [&](const exec::Executor& executor, int min_pts) {
    Outputs out;
    const spatial::KdTree tree(executor, points);
    out.tree_order.assign(tree.tree_order().begin(), tree.tree_order().end());
    out.core = hdbscan::core_distances(executor, points, tree, min_pts, &out.lists);
    out.mst = spatial::mutual_reachability_mst(executor, points, tree, out.core, &out.lists);
    return out;
  };
  std::vector<std::pair<std::string, std::unique_ptr<exec::Executor>>> executors;
  for (const int threads : {2, 3, 4})
    executors.emplace_back("openmp threads=" + std::to_string(threads),
                           std::make_unique<exec::Executor>(exec::openmp_backend(), threads));
  executors.emplace_back("spawning",
                         std::make_unique<exec::Executor>(std::make_shared<SpawningBackend>(), 4));
  const exec::Executor serial(exec::serial_backend());
  for (const int min_pts : {2, 7}) {
    const Outputs reference = run(serial, min_pts);
    ASSERT_EQ(reference.mst.size(), static_cast<std::size_t>(points.size()) - 1);
    for (const auto& [name, executor] : executors) {
      const Outputs got = run(*executor, min_pts);
      const std::string where = name + " mpts=" + std::to_string(min_pts);
      EXPECT_EQ(got.tree_order, reference.tree_order) << where;
      EXPECT_EQ(got.core, reference.core) << where;
      EXPECT_EQ(got.lists.length, reference.lists.length) << where;
      EXPECT_EQ(got.lists.ranks, reference.lists.ranks) << where;
      EXPECT_EQ(got.lists.fence_sq, reference.lists.fence_sq) << where;
      ASSERT_EQ(got.mst.size(), reference.mst.size()) << where;
      for (std::size_t i = 0; i < got.mst.size(); ++i)
        ASSERT_EQ(got.mst[i], reference.mst[i]) << where << " edge " << i;
    }
  }
}

TEST(BackendConformance, DynamicClusteringBitIdenticalAcrossBackends) {
  // Enough points that the kernels behind bulk load, batch insert repair and
  // erase take their parallel paths.
  const spatial::PointSet all = data::gaussian_blobs(6400, 2, 5, 0.03, 0.08, 19);
  const auto run_stream = [&](const exec::Executor& executor) {
    dyn::DynamicClustering stream(executor);
    spatial::PointSet bulk(2, 6000);
    spatial::PointSet batch(2, 400);
    for (index_t i = 0; i < all.size(); ++i)
      for (int d = 0; d < 2; ++d)
        (i < 6000 ? bulk.at(i, d) : batch.at(i - 6000, d)) = all.at(i, d);
    const std::vector<index_t> ids = stream.insert(bulk);
    stream.insert(batch);
    std::vector<index_t> victims;
    for (std::size_t i = 0; i < ids.size(); i += 23) victims.push_back(ids[i]);
    stream.erase(victims);
    return std::pair{stream.emst(), stream.dendrogram().parent};
  };

  const exec::Executor serial(exec::serial_backend());
  const auto [reference_edges, reference_parent] = run_stream(serial);
  for (const auto& backend : conformance_backends()) {
    const exec::Executor executor = executor_on(backend);
    const auto [edges, parent] = run_stream(executor);
    EXPECT_EQ(edges, reference_edges) << backend->name();
    EXPECT_EQ(parent, reference_parent) << backend->name();
  }
}

TEST(BackendConformance, WarmExecutorSteadyStateAllocatesNothingOnEveryBackend) {
  const index_t nv = 30000;
  const graph::EdgeList tree = make_tree(Topology::preferential, nv, 3, 0);
  for (const auto& backend : exec::registered_backends()) {
    const exec::Executor executor = executor_on(backend);
    dendrogram::Dendrogram out;
    // Warm-up: the first run sizes the arena, the second settles runtime/pool
    // state.
    dendrogram::pandora_dendrogram_into(executor, tree, nv, {}, out);
    dendrogram::pandora_dendrogram_into(executor, tree, nv, {}, out);
    const dendrogram::Dendrogram reference = out;

    executor.workspace().reset_stats();
    const AllocationCounterScope scope;
    dendrogram::pandora_dendrogram_into(executor, tree, nv, {}, out);
    EXPECT_EQ(scope.count(), 0u)
        << backend->name() << ": the steady-state pipeline must not touch the heap";
    EXPECT_EQ(executor.workspace().stats().misses, 0u) << backend->name();
    EXPECT_EQ(out.parent, reference.parent) << backend->name();
  }
}

/// The Workspace arena allocates through the backend's MemoryResource hook —
/// the seam a device backend substitutes device buffers through.  A counting
/// resource must observe every arena miss and every arena release.
class CountingResource final : public exec::MemoryResource {
 public:
  void* allocate(std::size_t bytes, std::size_t alignment) override {
    ++allocations;
    return exec::host_memory_resource().allocate(bytes, alignment);
  }
  void deallocate(void* block, std::size_t bytes, std::size_t alignment) noexcept override {
    ++deallocations;
    exec::host_memory_resource().deallocate(block, bytes, alignment);
  }
  int allocations = 0;
  int deallocations = 0;
};

TEST(BackendConformance, WorkspaceAllocatesThroughTheMemoryResourceHook) {
  CountingResource resource;
  {
    exec::Workspace workspace(&resource);
    {
      auto lease = workspace.take_uninit<std::uint64_t>(1000);
      EXPECT_EQ(resource.allocations, 1);
      lease[0] = 42;  // the block is writable host memory
    }
    {
      // Recycled: same size class, no new allocation through the resource.
      auto lease = workspace.take_uninit<std::uint64_t>(900);
      EXPECT_EQ(resource.allocations, 1);
      (void)lease;
    }
  }
  EXPECT_EQ(resource.deallocations, resource.allocations);
}

}  // namespace
