// The Executor execution context: workspace arena semantics (lease recycling,
// allocation stats, determinism of reuse), thread budget resolution, and the
// PhaseTimes sink every exec::ScopedPhase adds to.

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "pandora/data/tree_generators.hpp"
#include "pandora/dendrogram/pandora.hpp"
#include "pandora/exec/executor.hpp"
#include "pandora/exec/parallel.hpp"
#include "test_helpers.hpp"

namespace {

using namespace pandora;
using pandora::testing::Topology;
using pandora::testing::make_tree;

TEST(Workspace, TakeFillsAndSizes) {
  exec::Workspace workspace;
  auto lease = workspace.take<index_t>(100, kNone);
  EXPECT_EQ(lease.size(), 100u);
  for (const index_t v : lease) EXPECT_EQ(v, kNone);
  auto uninit = workspace.take_uninit<double>(7);
  EXPECT_EQ(uninit.size(), 7u);
  auto empty = workspace.take_uninit<index_t>(0);
  EXPECT_TRUE(empty.empty());
  EXPECT_EQ(empty.data(), nullptr);
}

TEST(Workspace, ReleasedBlocksAreRecycled) {
  exec::Workspace workspace;
  const index_t* first_data = nullptr;
  {
    auto lease = workspace.take<index_t>(5000, 0);
    first_data = lease.data();
  }  // lease returns the block to its size class
  EXPECT_EQ(workspace.stats().takes, 1u);
  EXPECT_EQ(workspace.stats().misses, 1u);
  {
    auto lease = workspace.take<index_t>(5000, 0);
    // Same-size re-acquisition reuses the identical block (LIFO free list).
    EXPECT_EQ(lease.data(), first_data);
  }
  EXPECT_EQ(workspace.stats().takes, 2u);
  EXPECT_EQ(workspace.stats().hits, 1u);
  EXPECT_EQ(workspace.stats().misses, 1u);
}

TEST(Workspace, BlocksAreSharedAcrossElementTypes) {
  // The arena hands out raw byte blocks: scratch taken as index_t on one call
  // serves a double request of the same byte footprint on the next — the
  // size-class design that keeps retained memory low on mixed workloads.
  exec::Workspace workspace;
  const void* block = nullptr;
  {
    auto lease = workspace.take<index_t>(1024, 0);  // 4 KiB class
    block = lease.data();
  }
  {
    auto lease = workspace.take_uninit<double>(512);  // 4 KiB class too
    EXPECT_EQ(static_cast<const void*>(lease.data()), block);
  }
  EXPECT_EQ(workspace.stats().hits, 1u);
  EXPECT_EQ(workspace.stats().misses, 1u);
}

TEST(Workspace, SmallerRequestReusesALargerFreeBlock) {
  exec::Workspace workspace;
  { auto lease = workspace.take<index_t>(1000, 0); }  // 4 KiB class
  workspace.reset_stats();
  { auto lease = workspace.take<index_t>(500, 0); }  // 2 KiB class: larger block serves
  EXPECT_EQ(workspace.stats().hits, 1u);
  { auto lease = workspace.take<index_t>(2000, 0); }  // 8 KiB class: must allocate
  EXPECT_EQ(workspace.stats().misses, 1u);
}

TEST(Workspace, ConcurrentLeasesGetDistinctBuffers) {
  exec::Workspace workspace;
  auto a = workspace.take<index_t>(64, 1);
  auto b = workspace.take<index_t>(64, 2);
  EXPECT_NE(a.data(), b.data());
  EXPECT_EQ(a[0], 1);
  EXPECT_EQ(b[0], 2);
}

TEST(Workspace, ClearDropsCachedBuffers) {
  exec::Workspace workspace;
  { auto lease = workspace.take<index_t>(4096, 0); }
  EXPECT_GT(workspace.retained_bytes(), 0u);
  workspace.clear();
  EXPECT_EQ(workspace.retained_bytes(), 0u);
  workspace.reset_stats();
  { auto lease = workspace.take<index_t>(4096, 0); }
  EXPECT_EQ(workspace.stats().misses, 1u);
}

TEST(Workspace, ClearWithOutstandingLeaseIsSafe) {
  // clear() drops only the *free* blocks; a live lease keeps its block and
  // simply returns it afterwards.
  exec::Workspace workspace;
  auto lease = workspace.take<index_t>(256, 7);
  workspace.clear();
  EXPECT_EQ(lease[0], 7);                     // the leased block is untouched
  lease = exec::Workspace::Lease<index_t>{};  // release into the cleared arena
  workspace.reset_stats();
  { auto again = workspace.take<index_t>(256, 0); }
  EXPECT_EQ(workspace.stats().hits, 1u) << "the returned block is reusable";
}

TEST(Workspace, IdenticalCallSequencesAcquireIdenticalBlocks) {
  // LIFO free lists make reuse deterministic: the same take/release sequence
  // sees the same addresses, run after run.
  exec::Workspace workspace;
  std::vector<const void*> first, second;
  for (int round = 0; round < 2; ++round) {
    auto& log = round == 0 ? first : second;
    auto a = workspace.take_uninit<std::uint64_t>(1000);
    auto b = workspace.take_uninit<index_t>(3000);
    log.push_back(a.data());
    log.push_back(b.data());
    auto c = workspace.take_uninit<double>(500);
    log.push_back(c.data());
  }
  EXPECT_EQ(first, second);
}

TEST(Executor, ThreadBudgetResolution) {
  // The budget is answered by the backend, never by global runtime state:
  // the serial backend grants 1 regardless of the request, and OpenMP grants
  // explicit requests verbatim (its runtime oversubscribes).
  EXPECT_EQ(exec::Executor(exec::serial_backend()).num_threads(), 1);
  EXPECT_EQ(exec::Executor(exec::serial_backend(), 8).num_threads(), 1);
  EXPECT_EQ(exec::Executor(exec::openmp_backend(), 3).num_threads(), 3);
  EXPECT_GE(exec::Executor(exec::openmp_backend()).num_threads(), 1);
  EXPECT_GE(exec::Executor(exec::default_backend()).num_threads(), 1);
  EXPECT_STREQ(exec::Executor(exec::serial_backend()).name(), "serial");
  EXPECT_STREQ(exec::Executor(exec::openmp_backend()).name(), "openmp");
}

TEST(Executor, NestedExecutorsReportTruthfulBudgets) {
  // A batch serving slot is an executor on the serial backend: whatever the
  // global machine state, it must answer 1 — its kernels never fork.
  const exec::Executor parent(exec::openmp_backend(), 4);
  const exec::Executor slot(exec::serial_backend());
  EXPECT_EQ(parent.num_threads(), 4);
  EXPECT_EQ(parent.requested_threads(), 4);
  EXPECT_EQ(slot.num_threads(), 1);
  EXPECT_FALSE(slot.parallelize(1 << 20));
}

TEST(Executor, ParallelizeRespectsGrainBackendAndBudget) {
  const exec::Executor serial(exec::serial_backend());
  EXPECT_FALSE(serial.parallelize(1 << 20));
  const exec::Executor budget_one(exec::openmp_backend(), 1);
  EXPECT_FALSE(budget_one.parallelize(1 << 20));
  const exec::Executor parallel(exec::openmp_backend(), 4);
  EXPECT_FALSE(parallel.parallelize(exec::kParallelForGrain - 1));
  EXPECT_TRUE(parallel.parallelize(exec::kParallelForGrain));
}

TEST(Executor, ScopedPhaseAddsToTheInstalledSink) {
  const exec::Executor executor(exec::serial_backend());
  EXPECT_EQ(executor.phase_times(), nullptr);
  { const exec::ScopedPhase phase(executor, "sort"); }  // no sink: must not crash
  PhaseTimes times;
  executor.set_phase_times(&times);
  { const exec::ScopedPhase phase(executor, "sort"); }
  { const exec::ScopedPhase phase(executor, "sort"); }
  { const exec::ScopedPhase phase(executor, "expansion"); }
  executor.set_phase_times(nullptr);
  EXPECT_EQ(times.all().size(), 2u);
  EXPECT_GE(times.get("sort"), 0.0);
  EXPECT_EQ(times.all().count("expansion"), 1u);
}

TEST(Executor, ScopedPhaseRejectsUnknownPhaseNames) {
  const exec::Executor executor(exec::serial_backend());
  EXPECT_THROW(exec::ScopedPhase(executor, "alpha"), std::invalid_argument);
}

TEST(Executor, PhaseSinkSeesThePandoraPhases) {
  // The retired pandora_dendrogram(mst, n, options, &times) out-param maps to
  // a sink installed on the executor; the phases arrive as it delivered them.
  const graph::EdgeList tree = make_tree(Topology::random_attach, 8000, 7, 0);
  const exec::Executor executor;
  PhaseTimes times;
  executor.set_phase_times(&times);
  const dendrogram::Dendrogram d = dendrogram::pandora_dendrogram(executor, tree, 8000);
  executor.set_phase_times(nullptr);
  EXPECT_GT(times.get("sort"), 0.0);
  EXPECT_GT(times.get("contraction"), 0.0);
  EXPECT_GT(times.get("expansion"), 0.0);
  EXPECT_EQ(d.num_edges, 7999);
}

TEST(Executor, RepeatedDendrogramsAllocateNothingAfterWarmup) {
  // The acceptance property of the workspace arena: on same-sized inputs,
  // the second and later pipeline runs are served entirely from recycled
  // buffers.
  const graph::EdgeList tree = make_tree(Topology::preferential, 20000, 3, 0);
  const exec::Executor executor(exec::default_backend());
  (void)dendrogram::pandora_dendrogram(executor, tree, 20000);  // warm-up
  executor.workspace().reset_stats();
  (void)dendrogram::pandora_dendrogram(executor, tree, 20000);
  EXPECT_GT(executor.workspace().stats().takes, 0u);
  EXPECT_EQ(executor.workspace().stats().misses, 0u)
      << "steady-state dendrogram construction must reuse every scratch buffer";
}

TEST(Executor, DefaultExecutorsAreDistinctPerBackend) {
  const exec::Executor& serial = exec::default_executor(exec::serial_backend());
  const exec::Executor& openmp = exec::default_executor(exec::openmp_backend());
  EXPECT_NE(&serial, &openmp);
  EXPECT_EQ(&serial.backend(), exec::serial_backend().get());
  EXPECT_EQ(&openmp.backend(), exec::openmp_backend().get());
  // The no-argument form resolves to the default (openmp) backend.
  EXPECT_EQ(&exec::default_executor().backend(), exec::default_backend().get());
  // Stable addresses: repeated lookups return the same context (that is what
  // lets executor-less callers amortise allocations too).
  EXPECT_EQ(&serial, &exec::default_executor(exec::serial_backend()));
  EXPECT_EQ(&exec::default_executor(), &exec::default_executor());
}

}  // namespace
