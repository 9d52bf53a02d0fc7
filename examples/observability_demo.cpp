// Observability tour: the obs:: telemetry the serving stack emits while it
// works — metrics registry (Prometheus text exposition + JSON snapshot) and
// trace spans (Chrome trace_event JSON, load into Perfetto / chrome://tracing).
//
//   $ ./observability_demo [output-dir]        (default /tmp)
//
// Runs a mixed workload: a batched dendrogram-serving phase under an adaptive
// QoS policy (some jobs deliberately shed), then a snapshot read/write phase
// (writer churning inserts/erases and publishing epochs while readers run
// HDBSCAN* against pinned snapshots, then one cold HDBSCAN* over the last
// epoch's points, which builds its own kd-tree).  Everything the stack counted and timed
// along the way is then printed as a Prometheus exposition and the recorded
// spans are written as <output-dir>/trace.json; the exposition is also saved
// as <output-dir>/metrics.txt.

#include <atomic>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "pandora/data/point_generators.hpp"
#include "pandora/data/tree_generators.hpp"
#include "pandora/dendrogram/pandora.hpp"
#include "pandora/exec/backend.hpp"
#include "pandora/hdbscan/hdbscan.hpp"
#include "pandora/obs/metrics.hpp"
#include "pandora/obs/trace.hpp"
#include "pandora/serve/batch_executor.hpp"
#include "pandora/snapshot/published_clustering.hpp"

using namespace pandora;

namespace {

/// Batched dendrogram serving with tracing on and an adaptive QoS policy:
/// a warm-up batch teaches the latency model, then a flood that mixes small
/// queries with oversized ones the model predicts will blow the tail.
void serve_phase(const exec::Executor& executor) {
  const index_t n = 4000;
  constexpr std::size_t kQueries = 12;

  std::vector<graph::EdgeList> trees;
  trees.reserve(kQueries);
  for (std::size_t i = 0; i < kQueries; ++i) {
    Rng rng(100 + i);
    graph::EdgeList tree = data::random_attachment_tree(n, rng);
    data::assign_random_weights(tree, rng);
    trees.push_back(std::move(tree));
  }

  serve::BatchOptions options;
  options.small_query_threshold = static_cast<size_type>(n);
  options.qos.adaptive = true;
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

  // Two passes teach the adaptive model what "normal" looks like; the third
  // adds outliers claiming 100x the size — candidates for predictive
  // shedding once the queue is under pressure.
  (void)batch.run_jobs(jobs);
  (void)batch.run_jobs(jobs);
  std::vector<serve::BatchExecutor::Job> flood = jobs;
  for (std::size_t i = 0; i < flood.size(); i += 3)
    flood[i].size_hint = 100 * static_cast<size_type>(n);
  (void)batch.run_jobs(flood);

  obs::Registry& reg = obs::registry();
  std::printf("serve phase : %llu jobs ok, %llu shed (adaptive QoS)\n",
              static_cast<unsigned long long>(
                  reg.counter_value("pandora_serve_jobs_total{outcome=\"ok\"}")),
              static_cast<unsigned long long>(
                  reg.counter_value("pandora_serve_jobs_total{outcome=\"shed\"}")));
}

/// Snapshot serving under churn: a writer inserting/erasing batches and
/// publishing after every mutation, readers running HDBSCAN* against
/// whatever epoch they acquire.  Each reader gets its own serial executor
/// (the snapshot contract) sharing one trace recorder — its spans land in a
/// per-thread ring and show up as separate trace rows.
void snapshot_phase(obs::TraceRecorder& recorder) {
  constexpr int kReaders = 3;
  constexpr int kQueriesPerReader = 2;
  const index_t n = 2000;

  const exec::Executor writer_exec(exec::serial_backend());
  const exec::ScopedTrace writer_trace(writer_exec, &recorder);
  snapshot::PublishedClustering published(writer_exec);
  published.insert(data::gaussian_blobs(n, 2, 4, 0.03, 0.1, 42));

  hdbscan::HdbscanOptions options;
  options.min_pts = 4;
  options.min_cluster_size = 16;

  std::atomic<bool> stop{false};
  std::thread writer([&] {
    std::uint64_t round = 0;
    while (!stop.load(std::memory_order_acquire)) {
      const std::vector<index_t> ids =
          published.insert(data::gaussian_blobs(40, 2, 4, 0.03, 0.1, 1000 + round++));
      published.erase(ids);
    }
  });

  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      const exec::Executor reader(exec::serial_backend());
      const exec::ScopedTrace trace(reader, &recorder);
      for (int q = 0; q < kQueriesPerReader; ++q) {
        const exec::ScopedSpan span(reader, "query");
        const snapshot::SnapshotPtr snap = published.acquire();
        (void)snap->hdbscan(reader, options);
      }
    });
  }
  for (std::thread& t : readers) t.join();
  stop.store(true, std::memory_order_release);
  writer.join();

  // Snapshot reads query the kd index each epoch carries, so they build no
  // tree; one cold HDBSCAN* over the last epoch's points builds its own and
  // puts the "tree_build" phase in the trace beside the seven the reads time.
  {
    const exec::Executor cold(exec::serial_backend());
    const exec::ScopedTrace trace(cold, &recorder);
    const exec::ScopedSpan span(cold, "cold query");
    const snapshot::SnapshotPtr snap = published.acquire();
    (void)hdbscan::hdbscan(cold, snap->points(), options);
  }

  obs::Registry& reg = obs::registry();
  std::printf("snap phase  : %llu epochs published, %llu reclaimed, %lld live\n",
              static_cast<unsigned long long>(
                  reg.counter_value("pandora_snapshot_publishes_total")),
              static_cast<unsigned long long>(
                  reg.counter_value("pandora_snapshot_epochs_reclaimed_total")),
              static_cast<long long>(reg.gauge_value("pandora_snapshot_live_epochs")));
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_dir = argc > 1 ? argv[1] : "/tmp";

  obs::TraceRecorder recorder;
  {
    const exec::Executor executor(exec::default_backend());
    const exec::ScopedTrace trace(executor, &recorder);
    serve_phase(executor);
  }
  snapshot_phase(recorder);

  // --- exposition ------------------------------------------------------------
  const std::string exposition = obs::registry().prometheus_text();
  std::printf("\n--- Prometheus exposition (what /metrics would serve) ---\n%s",
              exposition.c_str());

  const std::string metrics_path = out_dir + "/metrics.txt";
  if (std::FILE* f = std::fopen(metrics_path.c_str(), "w")) {
    std::fwrite(exposition.data(), 1, exposition.size(), f);
    std::fclose(f);
    std::printf("\nwrote %s\n", metrics_path.c_str());
  } else {
    std::fprintf(stderr, "cannot write %s\n", metrics_path.c_str());
    return 1;
  }

  const std::string trace_path = out_dir + "/trace.json";
  if (!recorder.write_chrome_trace(trace_path)) {
    std::fprintf(stderr, "cannot write %s\n", trace_path.c_str());
    return 1;
  }
  std::printf("wrote %s (%llu spans, %llu dropped) — open in Perfetto or "
              "chrome://tracing\n",
              trace_path.c_str(),
              static_cast<unsigned long long>(recorder.events_recorded()),
              static_cast<unsigned long long>(recorder.events_dropped()));
  return 0;
}
