// Streaming updates vs from-scratch rebuilds: the dyn:: subsystem's reason
// to exist, measured.  Every row compares an update with the full cold
// pipeline a static deployment would run for the same change (kd-tree
// build, Borůvka EMST, edge sort, PANDORA):
//
//  * single-insert: a warm DynamicClustering at n=50k (scaled) absorbing one
//    point per sample — incremental EMST repair + delta merge + PANDORA
//    replay.  The CI gate requires update >= 3x faster (median,
//    self-relative, so it holds on any host).
//  * batch-insert-{0.1,1,5}pct and batch-erase-1pct: the stream at n takes
//    a batch of that fraction of n (drawn from its own distribution) and
//    then erases as many of its oldest points; the insert and the erase are
//    timed separately.  The rows are reported, not gated, with their
//    update/rebuild ratio in the JSON, so the crossover with the rebuild is
//    a recorded number.  At n=50k on a shared 4-vCPU host every row beats
//    the rebuild: the 1% insert runs at about 0.45–0.5x of the rebuild's
//    time at 4 threads (0.34–0.48x serial), the 1% erase at about 0.34x
//    (0.28–0.35x), and the 5% insert, the closest, at about 0.9x (0.6–0.7x).
//    The insert and erase rows also report how their timed updates kept the
//    kd index (patched or rebuilt); the --dynamic-json gate fails when every
//    1% insert, or every 1% erase, rebuilt it.
//  * batch-insert-far: the stream at n takes 6% of n (3,000 points at
//    n=50k) at (5, 5) + 0.1·U, far outside its blobs in the unit square.
//    Reported, not gated: the kd-index patch refuses the batch (it would
//    overfill the corner leaf), so every one of these inserts rebuilds it.
//
// Every insert row, one point or 3,000, runs the same repair: the batch
// joins the kd index, then a kd-tree over the batch, the per-edge
// certificate and bounded star queries.  At
// PANDORA_BENCH_SCALE=0.02 (n = 1000) the 1% insert (10 points) reads about
// 2.3–2.6x faster than the rebuild at 4 threads (3.7–3.9x serial).
//
// Every scenario leaves the stream a valid exact EMST (asserted once at the
// end against a reference build), so the numbers measure correct work.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "pandora/dendrogram/pandora.hpp"
#include "pandora/dendrogram/sorted_edges.hpp"
#include "pandora/dyn/dynamic_clustering.hpp"
#include "pandora/graph/tree.hpp"

using namespace pandora;

namespace {

/// The full cold pipeline for one changed point set: what a static server
/// re-runs per update.  A fresh executor per call keeps it honestly cold
/// (no artifact cache, no warm arena).
double rebuild_once(const spatial::PointSet& points) {
  Timer timer;
  const exec::Executor cold(exec::default_backend());
  spatial::KdTree tree(cold, points, 32);
  const graph::EdgeList mst = spatial::euclidean_mst(cold, points, tree);
  const dendrogram::Dendrogram dendrogram =
      dendrogram::pandora_dendrogram(cold, mst, points.size());
  (void)dendrogram;
  return timer.seconds();
}

/// How a scenario's timed updates of one kind kept the kd index: patched
/// or rebuilt.
struct IndexCounts {
  const char* kind = "";  ///< "inserts" or "erases": the JSON key and label
  std::int64_t updates = 0, patches = 0, rebuilds = 0;

  void count(const dyn::UpdateStats& before, const dyn::UpdateStats& after) {
    ++updates;
    patches += static_cast<std::int64_t>(after.index_patches - before.index_patches);
    rebuilds += static_cast<std::int64_t>(after.index_rebuilds - before.index_rebuilds);
  }
};

void report(const char* scenario, index_t n, const bench::Measurement& update,
            const bench::Measurement& rebuild, bench::JsonReport& json,
            const IndexCounts* index = nullptr) {
  const double speedup = update.median() > 0 ? rebuild.median() / update.median() : 0.0;
  std::printf("%-19s | n %7lld | update %9.3fms  rebuild %9.3fms | %6.2fx\n", scenario,
              static_cast<long long>(n), 1e3 * update.median(), 1e3 * rebuild.median(),
              speedup);
  // Cumulative ArtifactCache counters from the obs:: registry: how much the
  // incremental path replayed vs recomputed across the scenario so far (the
  // cold rebuilds run on fresh cacheless executors, so this is all stream
  // traffic).
  obs::Registry& reg = obs::registry();
  json.field("scenario", std::string(scenario))
      .field("n", n)
      .timing("update", update)
      .timing("rebuild", rebuild)
      .field("update_speedup", speedup)
      .field("update_rebuild_ratio",
             rebuild.median() > 0 ? update.median() / rebuild.median() : 0.0)
      .field("cache_hits",
             static_cast<std::int64_t>(reg.counter_value("pandora_cache_hits_total")))
      .field("cache_misses",
             static_cast<std::int64_t>(reg.counter_value("pandora_cache_misses_total")))
      .field("cache_evictions",
             static_cast<std::int64_t>(reg.counter_value("pandora_cache_evictions_total")));
  if (index != nullptr) {
    std::printf("%-19s   %lld %s: %lld index patches, %lld rebuilds\n", "",
                static_cast<long long>(index->updates), index->kind,
                static_cast<long long>(index->patches), static_cast<long long>(index->rebuilds));
    json.field(index->kind, index->updates)
        .field("index_patches", index->patches)
        .field("index_rebuilds", index->rebuilds);
  }
  json.end_row();
}

void check_exact(const dyn::DynamicClustering& stream) {
  const exec::Executor reference(exec::default_backend());
  spatial::KdTree tree(reference, stream.points(), 32);
  const graph::EdgeList rebuilt = spatial::euclidean_mst(reference, stream.points(), tree);
  if (!graph::is_spanning_tree(stream.emst(), stream.size()) ||
      std::abs(graph::total_weight(stream.emst()) - graph::total_weight(rebuilt)) >
          1e-9 * std::max(1.0, graph::total_weight(rebuilt))) {
    std::fprintf(stderr, "FATAL: maintained EMST diverged from the reference rebuild\n");
    std::exit(1);
  }
}

/// One batch scenario's samples: inserts, erases and cold rebuilds at the
/// stream's steady size `n`.
struct BatchTimes {
  index_t n = 0;
  bench::Measurement insert, erase, rebuild;
  IndexCounts insert_index{"inserts"}, erase_index{"erases"};  ///< over the timed updates
};

/// A warm stream at n = 50k (scaled) absorbing batches of `fraction` x n
/// points drawn from its own distribution (the points arrive in slices of
/// one generated pool, as a streaming corpus would) and erasing as many of
/// its oldest points after each, so every insert and every erase starts
/// from n points.  Each sample times one insert and one erase.
BatchTimes run_batches(const exec::Executor& executor, double fraction, int samples) {
  const index_t n = bench::scaled(50000);
  const index_t batch =
      std::max<index_t>(static_cast<index_t>(static_cast<double>(n) * fraction), 1);
  const spatial::PointSet pool =
      data::gaussian_blobs(n + batch * (samples + 1), 2, 16, 0.03, 0.1, 4048);
  const auto slice = [&](index_t begin, index_t count) {
    spatial::PointSet out(2, count);
    std::copy_n(pool.coords().begin() + 2 * static_cast<std::ptrdiff_t>(begin), 2 * count,
                out.coords().begin());
    return out;
  };
  dyn::DynamicClustering stream(executor);
  std::vector<index_t> live = stream.insert(slice(0, n));
  index_t cursor = n;
  BatchTimes times;
  const auto step = [&](bool timed) {
    const dyn::UpdateStats before_insert = stream.stats();
    Timer insert_timer;
    const std::vector<index_t> fresh = stream.insert(slice(cursor, batch));
    const double insert_seconds = insert_timer.seconds();
    cursor += batch;
    live.insert(live.end(), fresh.begin(), fresh.end());
    const std::vector<index_t> victims(live.begin(), live.begin() + batch);
    live.erase(live.begin(), live.begin() + batch);
    const dyn::UpdateStats before_erase = stream.stats();
    Timer erase_timer;
    stream.erase(victims);
    const double erase_seconds = erase_timer.seconds();
    if (timed) {
      times.insert.samples.push_back(insert_seconds);
      times.erase.samples.push_back(erase_seconds);
      times.insert_index.count(before_insert, before_erase);
      times.erase_index.count(before_erase, stream.stats());
    }
  };
  step(false);  // warm: arena blocks, kd index, replay buffers
  for (int s = 0; s < samples; ++s) step(true);
  times.n = stream.size();
  times.rebuild = bench::measure(samples, [&] { (void)rebuild_once(stream.points()); });
  check_exact(stream);
  return times;
}

/// A warm stream of n = 50k (scaled) blobs in the unit square taking a
/// batch of 6% of n (3,000 points at n = 50k) at (5, 5) + 0.1·U, far from
/// every point it holds.  Each sample erases the previous far batch
/// (untimed) and times the insert of the next, so every timed insert starts
/// from the n blobs.
BatchTimes run_far_inserts(const exec::Executor& executor, int samples) {
  const index_t n = bench::scaled(50000);
  const index_t batch = std::max<index_t>(n * 3 / 50, 1);
  spatial::PointSet far = data::uniform_points(batch * (samples + 1), 2, 5050);
  for (double& x : far.coords()) x = 5.0 + 0.1 * x;
  dyn::DynamicClustering stream(executor);
  (void)stream.insert(data::gaussian_blobs(n, 2, 16, 0.03, 0.1, 4048));
  const auto slice = [&](index_t begin) {
    spatial::PointSet out(2, batch);
    std::copy_n(far.coords().begin() + 2 * static_cast<std::ptrdiff_t>(begin), 2 * batch,
                out.coords().begin());
    return out;
  };
  BatchTimes times;
  std::vector<index_t> previous = stream.insert(slice(0));  // warm
  for (int s = 1; s <= samples; ++s) {
    stream.erase(previous);
    const dyn::UpdateStats before = stream.stats();
    Timer timer;
    previous = stream.insert(slice(s * batch));
    times.insert.samples.push_back(timer.seconds());
    times.insert_index.count(before, stream.stats());
  }
  times.n = stream.size();
  times.rebuild = bench::measure(samples, [&] { (void)rebuild_once(stream.points()); });
  check_exact(stream);
  return times;
}

}  // namespace

int main() {
  bench::print_header("Dynamic updates: incremental repair vs from-scratch rebuild",
                      "ROADMAP north star (streaming corpora); De Man et al. 2025 workload");
  bench::JsonReport json("dynamic_updates");
  const exec::Executor executor(exec::default_backend());

  std::printf("%-19s | %9s | %42s | %7s\n", "scenario", "points", "median wall", "speedup");

  constexpr int kSamples = 7;

  // --- single-insert steady state ----------------------------------------
  {
    const index_t n = bench::scaled(50000);
    dyn::DynamicClustering stream(executor);
    stream.insert(data::gaussian_blobs(n, 2, 16, 0.03, 0.1, 2024));
    const spatial::PointSet extra = data::uniform_points(kSamples + 2, 2, 77);
    index_t cursor = 0;
    // Warm: arena blocks, kd index, replay buffers.
    for (; cursor < 2; ++cursor) {
      const auto row = extra.point(cursor);
      stream.insert(std::span<const double>(row.data(), row.size()));
    }
    const bench::Measurement update = bench::measure(kSamples, [&] {
      const auto row = extra.point(cursor++);
      stream.insert(std::span<const double>(row.data(), row.size()));
    });
    const bench::Measurement rebuild =
        bench::measure(kSamples, [&] { (void)rebuild_once(stream.points()); });
    check_exact(stream);
    report("single-insert", stream.size(), update, rebuild, json);
  }

  // --- batch inserts and erases -------------------------------------------
  // Per batch size: the fraction of n, its insert row, and its erase row
  // (nullptr: not reported).
  const struct {
    double fraction;
    const char* insert_row;
    const char* erase_row;
  } batches[] = {{0.001, "batch-insert-0.1pct", nullptr},
                 {0.01, "batch-insert-1pct", "batch-erase-1pct"},
                 {0.05, "batch-insert-5pct", nullptr}};
  for (const auto& row : batches) {
    const BatchTimes times = run_batches(executor, row.fraction, kSamples);
    if (row.insert_row != nullptr)
      report(row.insert_row, times.n, times.insert, times.rebuild, json, &times.insert_index);
    if (row.erase_row != nullptr)
      report(row.erase_row, times.n, times.erase, times.rebuild, json, &times.erase_index);
  }
  {
    const BatchTimes times = run_far_inserts(executor, kSamples);
    report("batch-insert-far", times.n, times.insert, times.rebuild, json, &times.insert_index);
  }

  std::printf(
      "\nExpected shape: single-insert update >= 3x faster than the cold rebuild\n"
      "(the CI self-relative gate).  Batch rows are reported, not gated: inserts\n"
      "repair only the edges a path through the batch could displace, so the\n"
      "0.1%% and 1%% inserts and the 1%% erase (kd-index patch plus a\n"
      "component-restricted join) read well above 1x, and the 5%% insert reads\n"
      "closest to it.  The 1%% inserts and erases patch the kd index and rebuild\n"
      "it only when the drift budget runs out (the --dynamic-json gate checks the\n"
      "counts); the far batch is refused by the patch and rebuilds it.\n");
  return 0;
}
