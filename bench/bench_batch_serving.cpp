// Batched multi-query serving: N independent dendrogram queries on one
// Executor, batched through serve::BatchExecutor versus a sequential loop on
// the same executor.  The serving scenario of the ROADMAP north star: the
// paper's throughput claim (Figs. 11/14) amortised across a query stream
// rather than within one call.
//
// Scenarios:
//  * small-uniform: N same-sized small queries — the batch packs one query
//    per slot thread, so the speedup approaches min(N, threads) minus
//    scheduling overhead.  The CI regression gate checks the N=8 speedup.
//    This scenario runs on the OpenMP backend at a FIXED size (not
//    PANDORA_BENCH_SCALE-scaled, so the kernels stay above the parallel grain
//    on CI).
//  * mixed: small queries plus large ones that keep intra-query parallelism.
// A single-threaded host cannot overlap queries; the gates only apply where
// threads > 1 (the CI host).

#include <atomic>
#include <cstdio>
#include <mutex>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "pandora/data/point_generators.hpp"
#include "pandora/data/tree_generators.hpp"
#include "pandora/dendrogram/pandora.hpp"
#include "pandora/exec/backend.hpp"
#include "pandora/serve/batch_executor.hpp"
#include "pandora/snapshot/published_clustering.hpp"

using namespace pandora;

namespace {

/// Delta of one obs:: registry counter over a scenario: snapshotted at
/// construction, read back as what happened since.  The rows used to
/// hand-plumb ArtifactCache::Stats / JobOutcome tallies per scenario; the
/// registry is now the single source and the row fields keep their names.
class CounterDelta {
 public:
  explicit CounterDelta(const char* name)
      : name_(name), start_(obs::registry().counter_value(name)) {}
  [[nodiscard]] std::int64_t value() const {
    return static_cast<std::int64_t>(obs::registry().counter_value(name_) - start_);
  }

 private:
  const char* name_;
  std::uint64_t start_;
};

std::vector<graph::EdgeList> make_query_trees(index_t num_vertices, std::size_t count,
                                              std::uint64_t seed_base) {
  std::vector<graph::EdgeList> trees;
  trees.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    Rng rng(seed_base + i);
    graph::EdgeList tree = data::random_attachment_tree(num_vertices, rng);
    data::assign_random_weights(tree, rng);
    trees.push_back(std::move(tree));
  }
  return trees;
}

void run_scenario(const char* name, const exec::Executor& executor,
                  const std::vector<graph::EdgeList>& trees,
                  const std::vector<index_t>& num_vertices, size_type small_threshold,
                  bench::JsonReport& json) {
  std::vector<serve::DendrogramQuery> queries;
  for (std::size_t i = 0; i < trees.size(); ++i)
    queries.push_back({&trees[i], num_vertices[i], {}});

  const CounterDelta cache_hits("pandora_cache_hits_total");
  const CounterDelta cache_misses("pandora_cache_misses_total");
  const CounterDelta cache_evictions("pandora_cache_evictions_total");

  // The threshold is pinned per scenario so the small/large classification —
  // the thing each scenario exists to measure — holds at every
  // PANDORA_BENCH_SCALE, not just the default.
  serve::BatchOptions options;
  options.small_query_threshold = small_threshold;

  // Distinct MSTs per query and caching off on the executor (and hence on
  // every slot): repeated passes redo every sort, so the ratio prices
  // batching, not where the artifact cache's entries happen to live.
  serve::BatchExecutor batch(executor, options);

  // Sequential same-executor loop (the status quo a server without the
  // batch layer runs): every query one at a time on the parent.
  std::vector<dendrogram::Dendrogram> sequential_out(queries.size());
  const auto sequential_pass = [&] {
    for (std::size_t i = 0; i < queries.size(); ++i)
      dendrogram::pandora_dendrogram_into(executor, *queries[i].mst, queries[i].num_vertices,
                                          queries[i].options, sequential_out[i]);
  };
  sequential_pass();  // warm the parent arena
  const bench::Measurement sequential = bench::measure(5, sequential_pass);

  std::vector<dendrogram::Dendrogram> batched_out(queries.size());
  batch.build_dendrograms_into(queries, batched_out);  // warm the slot arenas
  const bench::Measurement batched = bench::measure(5, [&] {
    batch.build_dendrograms_into(queries, batched_out);
  });

  size_type total_edges = 0;
  for (const auto& tree : trees) total_edges += static_cast<size_type>(tree.size());
  const double speedup = batched.median() > 0 ? sequential.median() / batched.median() : 0.0;

  std::printf("%-14s | %4zu queries %9lld edges | seq %8.2fms  batch %8.2fms | %5.2fx\n",
              name, queries.size(), static_cast<long long>(total_edges),
              1e3 * sequential.median(), 1e3 * batched.median(), speedup);

  // ArtifactCache traffic over this scenario (the parent's and every slot's
  // cache), read back from the obs:: registry as deltas alongside the
  // timings.  (The full cumulative registry snapshot also rides along in the
  // report's top-level "metrics" object.)
  json.field("scenario", std::string(name))
      .field("backend", std::string(executor.name()))
      .field("num_queries", static_cast<std::int64_t>(queries.size()))
      .field("total_edges", total_edges)
      .field("num_slots", static_cast<std::int64_t>(batch.num_slots()))
      .timing("sequential", sequential)
      .timing("batched", batched)
      .field("batched_speedup", speedup)
      .field("cache_hits", cache_hits.value())
      .field("cache_misses", cache_misses.value())
      .field("cache_evictions", cache_evictions.value());
  json.end_row();
}

/// Admission control under a QoS policy: the same dendrogram batch with one
/// oversized query (shed while batchmates are pending) and one query carrying
/// an already-expired deadline (cancelled at its first chunk boundary).  The
/// payload is the JobOutcome counters, not a timing gate: the JSON row lets
/// CI watch the shed/cancel plumbing end to end.  On a single hardware thread
/// the oversized query may be admitted after the small phase drained (no
/// pressure left), so jobs_shed is reported, not gated.
void run_qos(const exec::Executor& executor, bench::JsonReport& json) {
  const index_t n = 20000;
  constexpr std::size_t kQueries = 8;
  const std::vector<graph::EdgeList> trees = make_query_trees(n, kQueries, 400);

  serve::BatchOptions options;
  options.small_query_threshold = static_cast<size_type>(n);
  options.qos.shed_above = static_cast<size_type>(n);
  options.qos.pressure_threshold = 0;
  serve::BatchExecutor batch(executor, options);

  std::vector<dendrogram::Dendrogram> out(kQueries);
  std::vector<serve::BatchExecutor::Job> jobs;
  for (std::size_t i = 0; i < kQueries; ++i) {
    jobs.push_back(serve::BatchExecutor::Job{
        .run =
            [&, i](const exec::Executor& exec) {
              dendrogram::pandora_dendrogram_into(exec, trees[i], n, {}, out[i]);
            },
        .size_hint = static_cast<size_type>(trees[i].size()),
    });
  }
  jobs[kQueries - 2].size_hint = 4 * static_cast<size_type>(n);  // above shed_above
  jobs[kQueries - 1].deadline = std::chrono::nanoseconds(1);     // expired on arrival

  (void)batch.run_jobs(jobs);  // warm the slot arenas

  // Outcome tallies come back from the obs:: registry, not from the returned
  // JobResult vector — the row doubles as an end-to-end check that the
  // serve-layer instrumentation counts what actually happened.  Deltas start
  // after the warm pass so the warm batch's outcomes don't pollute the row.
  const CounterDelta ok("pandora_serve_jobs_total{outcome=\"ok\"}");
  const CounterDelta shed("pandora_serve_jobs_total{outcome=\"shed\"}");
  const CounterDelta cancelled("pandora_serve_jobs_total{outcome=\"cancelled\"}");
  const CounterDelta failed("pandora_serve_jobs_total{outcome=\"failed\"}");

  Timer timer;
  (void)batch.run_jobs(jobs);
  const double seconds = timer.seconds();

  std::printf("%-14s | %4zu queries %9s | ok %lld shed %lld cancelled %lld failed %lld | %6.2fms\n",
              "qos", kQueries, "", static_cast<long long>(ok.value()),
              static_cast<long long>(shed.value()), static_cast<long long>(cancelled.value()),
              static_cast<long long>(failed.value()), 1e3 * seconds);

  json.field("scenario", std::string("qos"))
      .field("num_queries", static_cast<std::int64_t>(kQueries))
      .field("n", n)
      .field("batch_seconds", seconds)
      .field("jobs_ok", ok.value())
      .field("jobs_shed", shed.value())
      .field("jobs_cancelled", cancelled.value())
      .field("jobs_failed", failed.value());
  json.end_row();
}

/// The snapshot serving tier under a read/write mix: 8 reader threads (each
/// with its own serial executor, as the snapshot contract prescribes) running
/// HDBSCAN* against pinned snapshots of one PublishedClustering — first with
/// the writer idle, then with it churning insert/erase batches and publishing
/// after every mutation.  Per-query reader latencies feed p50/p90 with and
/// without the writer; the ratio (`reader_p90_degradation`) is the
/// writers-never-block-readers claim as a number, gated by
/// check_regression.py, which needs a run with >= 4 threads.
///
/// Snapshot queries consult no artifact cache: every query computes
/// everything after the snapshot's kd-tree, the copy of the writer's kd
/// index that the epoch's readers share (no reader builds one).
void run_mixed_rw(bench::JsonReport& json) {
  constexpr int kReaders = 8;
  constexpr int kQueriesPerReader = 6;
  const index_t n = bench::scaled(4000);

  const exec::Executor writer_exec(exec::serial_backend());
  snapshot::PublishedClustering published(writer_exec);
  published.insert(data::gaussian_blobs(n, 2, 4, 0.03, 0.1, 42));

  hdbscan::HdbscanOptions options;
  options.min_pts = 4;
  options.min_cluster_size = 16;

  const auto reader_phase = [&](bool with_writer) {
    bench::Measurement latencies;
    std::mutex collect;
    std::atomic<bool> stop{false};
    std::thread writer;
    if (with_writer) {
      writer = std::thread([&] {
        // Insert a batch, erase the same batch: n stays stable across the
        // phase (latencies compare like with like) while every round
        // publishes two successor snapshots.
        std::uint64_t round = 0;
        while (!stop.load(std::memory_order_acquire)) {
          const std::vector<index_t> ids =
              published.insert(data::gaussian_blobs(50, 2, 4, 0.03, 0.1, 1000 + round++));
          published.erase(ids);
        }
      });
    }
    std::vector<std::thread> readers;
    readers.reserve(kReaders);
    for (int r = 0; r < kReaders; ++r) {
      readers.emplace_back([&] {
        const exec::Executor reader(exec::serial_backend());
        std::vector<double> local;
        local.reserve(kQueriesPerReader);
        for (int q = 0; q < kQueriesPerReader; ++q) {
          const snapshot::SnapshotPtr snap = published.acquire();
          Timer timer;
          (void)snap->hdbscan(reader, options);
          local.push_back(timer.seconds());
        }
        const std::lock_guard<std::mutex> lock(collect);
        latencies.samples.insert(latencies.samples.end(), local.begin(), local.end());
      });
    }
    for (std::thread& t : readers) t.join();
    stop.store(true, std::memory_order_release);
    if (writer.joinable()) writer.join();
    return latencies;
  };

  reader_phase(false);  // warm: arenas, the first epoch's kd-tree
  const bench::Measurement read_only = reader_phase(false);
  const bench::Measurement read_write = reader_phase(true);
  const double degradation =
      read_only.p90() > 0 ? read_write.p90() / read_only.p90() : 0.0;

  std::printf("%-14s | %4d readers %8lld points | ro p90 %6.2fms  rw p90 %8.2fms | %5.2fx\n",
              "mixed_rw", kReaders, static_cast<long long>(n), 1e3 * read_only.p90(),
              1e3 * read_write.p90(), degradation);
  json.field("scenario", std::string("mixed_rw"))
      .field("num_readers", static_cast<std::int64_t>(kReaders))
      .field("queries_per_reader", static_cast<std::int64_t>(kQueriesPerReader))
      .field("n", n)
      .timing("reader_ro", read_only)
      .timing("reader_rw", read_write)
      .field("reader_p90_degradation", degradation);
  json.end_row();
}

}  // namespace

int main() {
  bench::print_header("Batched multi-query serving vs sequential same-executor loop",
                      "ROADMAP north star (serving); amortises Figs. 11/14 across a stream");
  exec::Executor executor(exec::default_backend());
  executor.set_artifact_caching(false);
  bench::JsonReport json("batch_serving");

  std::printf("%-14s | %4s %18s | %28s | %6s\n", "scenario", "N", "work", "median wall",
              "speedup");

  // The acceptance scenario — N=8 small queries, one machine — at a fixed
  // (unscaled) size so the sequential loop's kernels stay above the parallel
  // grain on CI.  It feeds the batched>=1.3x gate.
  {
    const index_t fixed_n = 20000;
    const std::vector<graph::EdgeList> trees = make_query_trees(fixed_n, 8, 1);
    const exec::Executor uniform_executor(exec::openmp_backend());
    uniform_executor.set_artifact_caching(false);
    run_scenario("small-uniform", uniform_executor, trees, std::vector<index_t>(8, fixed_n),
                 static_cast<size_type>(fixed_n), json);
  }

  const index_t small_n = bench::scaled(20000);
  const auto small_threshold = static_cast<size_type>(small_n);

  // A wider batch of the same shape (queue depth beyond the slot count).
  {
    const std::vector<graph::EdgeList> trees = make_query_trees(small_n, 32, 100);
    run_scenario("small-deep", executor, trees, std::vector<index_t>(32, small_n),
                 small_threshold, json);
  }

  // Mixed: six small queries packed per-thread + two large ones that keep
  // intra-query parallelism.
  {
    const index_t large_n = bench::scaled(200000);
    std::vector<graph::EdgeList> trees = make_query_trees(small_n, 6, 200);
    std::vector<index_t> sizes(6, small_n);
    for (std::uint64_t i = 0; i < 2; ++i) {
      Rng rng(300 + i);
      graph::EdgeList tree = data::random_attachment_tree(large_n, rng);
      data::assign_random_weights(tree, rng);
      trees.push_back(std::move(tree));
      sizes.push_back(large_n);
    }
    run_scenario("mixed", executor, trees, sizes, small_threshold, json);
  }

  // Admission control: JobOutcome counters under a QoS policy.
  run_qos(executor, json);

  // Read/write mix on the snapshot serving tier (epoch publication).
  run_mixed_rw(json);

  std::printf(
      "\nExpected shape: batched >= 1.3x sequential for small-uniform N=8 on a\n"
      "multi-core host (query-level parallelism without per-query fork/join);\n"
      "~1x on a single hardware thread, where queries cannot overlap.\n"
      "mixed_rw: reader p90 with a churning writer <= 1.5x the writer-idle p90\n"
      "(the CI gate where threads >= 4) — writers publish snapshots, they never\n"
      "block readers.\n");
  return 0;
}
