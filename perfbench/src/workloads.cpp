// The three benchmark workloads.  Each drives the library only through its
// public entry points; the traced runs additionally call each layer's public
// function in turn (mirroring hdbscan() / pandora_dendrogram()) inside
// LayerTracer spans, which is where the per-layer numbers come from.

#include <array>
#include <atomic>
#include <deque>
#include <exception>
#include <limits>
#include <memory>
#include <optional>
#include <thread>

#include "bench.hpp"
#include "pandora/data/point_generators.hpp"
#include "pandora/dendrogram/analysis.hpp"
#include "pandora/dendrogram/contraction.hpp"
#include "pandora/dendrogram/expansion.hpp"
#include "pandora/dendrogram/pandora.hpp"
#include "pandora/dendrogram/sorted_edges.hpp"
#include "pandora/dendrogram/union_find_dendrogram.hpp"
#include "pandora/exec/backend.hpp"
#include "pandora/exec/parallel.hpp"
#include "pandora/hdbscan/condensed_tree.hpp"
#include "pandora/hdbscan/core_distance.hpp"
#include "pandora/hdbscan/hdbscan.hpp"
#include "pandora/serve/batch_executor.hpp"
#include "pandora/snapshot/published_clustering.hpp"
#include "pandora/spatial/emst.hpp"
#include "pandora/spatial/kdtree.hpp"

namespace perfbench {

namespace {

namespace data = pandora::data;
namespace dendrogram = pandora::dendrogram;
namespace graph = pandora::graph;
namespace hdbscan = pandora::hdbscan;
namespace serve = pandora::serve;
namespace snapshot = pandora::snapshot;
namespace spatial = pandora::spatial;
using pandora::index_t;
using pandora::kNone;
using pandora::size_type;

/// Set-up runs this many times per run; setup_s is the median.
constexpr int kSetupReps = 3;

/// Repeats per dendrogram_normal2d sample (see run_dendrogram_normal2d).
constexpr int kBestOf = 3;

/// The layer spans of a traced pipeline pass, in pipeline order.  Metric
/// `<layer>_s` is the median self time at full host threads, `<layer>_1t_s`
/// the same on the serial backend.
constexpr std::array<const char*, 8> kLayers = {
    "spatial.kdtree_build",  "hdbscan.core_distance",   "spatial.mr_mst",
    "dendrogram.sort",       "dendrogram.contraction",  "dendrogram.expansion",
    "hdbscan.condense",      "hdbscan.extract"};

/// Every per-layer metric a traced run emits, with its unit.  A workload
/// whose timed path never reaches a layer reports it as 0 with 0 samples.
const std::vector<std::pair<std::string, std::string>>& per_layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> metrics = [] {
    std::vector<std::pair<std::string, std::string>> m;
    for (const char* layer : kLayers) {
      m.emplace_back(std::string(layer) + "_s", "s");
      m.emplace_back(std::string(layer) + "_1t_s", "s");
    }
    for (const char* name : {"serve.query_p90_ms", "snapshot.update_p90_ms", "snapshot.update_ms",
                             "dyn.insert_ms", "dyn.erase_ms", "snapshot.publish_ms",
                             "serve.queue_wait_ms", "serve.run_ms", "loadgen.writer_late_ms"})
      m.emplace_back(name, "ms");
    m.emplace_back("snapshot.acquire_us", "us");
    m.emplace_back("exec.cache_hit_ratio", "ratio");
    for (const char* name :
         {"exec.cache_lookups", "exec.run_chunks", "exec.arena_misses", "spatial.mst_edges",
          "dendrogram.levels", "dendrogram.height", "hdbscan.condensed_clusters",
          "hdbscan.condensed_depth", "hdbscan.clusters", "serve.jobs_ok", "serve.jobs_shed",
          "serve.jobs_cancelled", "serve.jobs_failed"})
      m.emplace_back(name, "count");
    m.emplace_back("trace.overhead_ratio", "ratio");
    m.emplace_back("trace.layer_coverage", "ratio");
    return m;
  }();
  return metrics;
}

index_t scaled(double n, double scale) {
  return std::max<index_t>(64, static_cast<index_t>(std::llround(n * scale)));
}

/// The end-to-end metrics every workload emits (untraced run).  Each
/// workload has a main request stream and a side stream; see README.md for
/// what they are per workload.  Tail percentiles stay out: on a host whose
/// vCPUs other tenants preempt, a full-thread call's p90 spreads over 40%
/// between runs.
void emit_end_to_end(Report& report, const std::vector<double>& main_s,
                     const std::vector<double>& side_s, const std::vector<double>& setup_s) {
  report.median_of("main_p50_ms", main_s, "ms");
  report.median_of("side_p50_ms", side_s, "ms");
  report.median_of("setup_s", setup_s, "s");
  report.series("main", main_s);
  report.series("side", side_s);
  report.series("setup", setup_s);
  report.metric("peak_rss_mb", peak_rss_mb(), "MiB");
}

/// Deterministic per-input counts of one pipeline pass.
struct Counts {
  double mst_edges = 0, levels = 0, height = 0, condensed_clusters = 0, condensed_depth = 0,
         clusters = 0;
};

void emit_counts(Report& report, const Counts& c) {
  report.metric("spatial.mst_edges", c.mst_edges, "count");
  report.metric("dendrogram.levels", c.levels, "count");
  report.metric("dendrogram.height", c.height, "count");
  report.metric("hdbscan.condensed_clusters", c.condensed_clusters, "count");
  report.metric("hdbscan.condensed_depth", c.condensed_depth, "count");
  report.metric("hdbscan.clusters", c.clusters, "count");
}

/// Longest parent chain of the condensed tree (root = 1).
index_t condensed_depth(const hdbscan::CondensedTree& tree) {
  std::vector<index_t> depth(tree.clusters.size(), 0);
  std::vector<index_t> chain;
  index_t deepest = 0;
  for (std::size_t c = 0; c < tree.clusters.size(); ++c) {
    index_t x = static_cast<index_t>(c);
    while (x != kNone && depth[static_cast<std::size_t>(x)] == 0) {
      chain.push_back(x);
      x = tree.clusters[static_cast<std::size_t>(x)].parent;
    }
    index_t d = x == kNone ? 0 : depth[static_cast<std::size_t>(x)];
    while (!chain.empty()) {
      depth[static_cast<std::size_t>(chain.back())] = ++d;
      chain.pop_back();
    }
    deepest = std::max(deepest, depth[c]);
  }
  return deepest;
}

/// pandora_dendrogram() decomposed: sort -> contraction -> expansion (plus
/// the vertex-parent pass), one span per layer call.
dendrogram::Dendrogram traced_dendrogram(const exec::Executor& e, const graph::EdgeList& mst,
                                         index_t num_vertices, LayerTracer& tracer,
                                         Counts& counts) {
  dendrogram::SortedEdges sorted;
  {
    const LayerTracer::Span span(tracer, e, "dendrogram.sort");
    sorted = dendrogram::sort_edges(e, mst, num_vertices);
  }
  const index_t n = sorted.num_edges();
  dendrogram::Dendrogram out;
  out.num_edges = n;
  out.num_vertices = num_vertices;
  out.weight = sorted.weight;
  out.edge_order = sorted.order;
  out.parent.assign(static_cast<std::size_t>(n) + static_cast<std::size_t>(num_vertices), kNone);
  if (n == 0) return out;
  std::optional<dendrogram::ContractionHierarchy> hierarchy;
  {
    const LayerTracer::Span span(tracer, e, "dendrogram.contraction");
    hierarchy.emplace(dendrogram::build_hierarchy(e, sorted.u, sorted.v, {}, num_vertices, n));
  }
  {
    const LayerTracer::Span span(tracer, e, "dendrogram.expansion");
    const std::span<index_t> edge_parent(out.parent.data(), static_cast<std::size_t>(n));
    dendrogram::expand_multilevel(e, *hierarchy, edge_parent);
    const std::span<const std::int64_t> sided0 = hierarchy->levels[0].sided_parent;
    exec::parallel_for(e, num_vertices, [&](size_type x) {
      out.parent[static_cast<std::size_t>(n + x)] =
          static_cast<index_t>(sided0[static_cast<std::size_t>(x)] >> 1);
    });
  }
  counts.levels = hierarchy->num_levels();
  return out;
}

/// Condensed tree + flat clusters of `d`, one span per layer call.
std::vector<index_t> traced_condense_extract(const exec::Executor& e,
                                             const dendrogram::Dendrogram& d,
                                             const hdbscan::HdbscanOptions& options,
                                             LayerTracer& tracer, Counts& counts) {
  hdbscan::CondensedTree condensed;
  {
    const LayerTracer::Span span(tracer, e, "hdbscan.condense");
    condensed = hdbscan::build_condensed_tree(e, d, options.min_cluster_size);
  }
  hdbscan::FlatClustering flat;
  {
    const LayerTracer::Span span(tracer, e, "hdbscan.extract");
    hdbscan::ExtractOptions extract;
    extract.method = options.cluster_selection_method;
    extract.allow_single_cluster = options.allow_single_cluster;
    extract.selection_epsilon = options.cluster_selection_epsilon;
    flat = hdbscan::extract_clusters(condensed, extract);
  }
  counts.height = dendrogram::height(d);
  counts.condensed_clusters = condensed.num_clusters();
  counts.condensed_depth = condensed_depth(condensed);
  counts.clusters = flat.num_clusters;
  return std::move(flat.labels);
}

/// Points -> mutual-reachability MST, one span per layer call.
graph::EdgeList traced_mst(const exec::Executor& e, const spatial::PointSet& points, int min_pts,
                           LayerTracer& tracer) {
  std::optional<spatial::KdTree> tree;
  {
    const LayerTracer::Span span(tracer, e, "spatial.kdtree_build");
    tree.emplace(points, 32);
  }
  std::vector<double> core;
  {
    const LayerTracer::Span span(tracer, e, "hdbscan.core_distance");
    core = hdbscan::core_distances(e, points, *tree, min_pts);
  }
  const LayerTracer::Span span(tracer, e, "spatial.mr_mst");
  return spatial::mutual_reachability_mst(e, points, *tree, core);
}

/// hdbscan() decomposed into its layer calls under one "query" span.
std::vector<index_t> traced_hdbscan(const exec::Executor& e, const spatial::PointSet& points,
                                    const hdbscan::HdbscanOptions& options, LayerTracer& tracer,
                                    Counts& counts) {
  const LayerTracer::Span query(tracer, e, "query");
  const graph::EdgeList mst = traced_mst(e, points, options.min_pts, tracer);
  counts.mst_edges = static_cast<double>(mst.size());
  const dendrogram::Dendrogram d = traced_dendrogram(e, mst, points.size(), tracer, counts);
  return traced_condense_extract(e, d, options, tracer, counts);
}

/// Per-layer self-time medians of the full-thread and serial tracers, the
/// tracing overhead against untraced reference calls of the same work, and
/// how much of the untraced time the layer spans account for.
void emit_layers(Report& report, const LayerTracer& full, const LayerTracer& one,
                 const std::vector<double>& untraced_s) {
  const auto self_full = full.self_seconds();
  const auto self_one = one.self_seconds();
  for (const char* layer : kLayers) {
    const auto find = [&](const auto& self) {
      const auto it = self.find(layer);
      return it == self.end() ? std::vector<double>{} : it->second;
    };
    report.median_of(std::string(layer) + "_s", find(self_full), "s");
    report.median_of(std::string(layer) + "_1t_s", find(self_one), "s");
  }
  // Coverage: the part of each traced "query" span its layer spans account
  // for, against the untraced call doing the same work.
  const std::vector<double> traced = full.total_seconds("query");
  const auto query_self = self_full.find("query");
  if (!untraced_s.empty() && !traced.empty() && query_self != self_full.end()) {
    report.metric("trace.overhead_ratio", median(traced) / median(untraced_s), "ratio",
                  traced.size());
    report.metric("trace.layer_coverage",
                  (median(traced) - median(query_self->second)) / median(untraced_s), "ratio",
                  untraced_s.size());
  }
}

/// Per-call exec-layer registry deltas of untraced reference calls.
struct ExecDeltas {
  std::vector<double> run_chunks, arena_misses;
  double hits = 0, misses = 0;

  void add(const ExecCounters& c, double calls = 1.0) {
    run_chunks.push_back(static_cast<double>(c.run_chunks.delta()) / calls);
    arena_misses.push_back(static_cast<double>(c.arena_misses.delta()) / calls);
    hits += static_cast<double>(c.hits.delta());
    misses += static_cast<double>(c.misses.delta());
  }
  void emit(Report& report) const {
    const double lookups = hits + misses;
    report.metric("exec.cache_hit_ratio", lookups > 0 ? hits / lookups : 0.0, "ratio");
    report.metric("exec.cache_lookups", lookups, "count");
    report.median_of("exec.run_chunks", run_chunks, "count");
    report.median_of("exec.arena_misses", arena_misses, "count");
  }
};

/// Fills every per-layer metric this workload did not reach with 0.
void finish_per_layer(Report& report) {
  for (const auto& [name, unit] : per_layer_metrics()) report.fallback(name, 0.0, unit);
}

/// Starts `body` while less than `seconds` have passed, and at least
/// `min_iterations` times.
template <class Body>
void repeat_for(double seconds, Body&& body, int min_iterations = 1) {
  const auto start = Clock::now();
  for (int i = 0; i < min_iterations || seconds_since(start) < seconds; ++i) body();
}

template <class F>
double timed(F&& f) {
  const auto t0 = Clock::now();
  f();
  return seconds_since(t0);
}

}  // namespace

// --- hdbscan_hacc: batch points -> labels ------------------------------------

void run_hdbscan_hacc(const Config& config, Report& report, obs::TraceRecorder* recorder) {
  // 50k points: ~20 inputs per stream in a 20 s run.  At 200k a run sees
  // four inputs, and its medians spread 10% across seeds.
  const index_t n = scaled(50000, config.scale);
  hdbscan::HdbscanOptions options;
  options.min_pts = 2;
  options.min_cluster_size = 5;
  std::uint64_t next_input = 0;
  const auto input = [&] {
    return data::make_dataset("HaccProxy", n, derive_seed(config.seed, next_input++));
  };

  // Set-up: fresh executors (default config, artifact cache on), an input,
  // and one warm-up call on each, so timed calls run on warm arenas.
  std::vector<double> setup;
  std::unique_ptr<exec::Executor> full, one;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    setup.push_back(timed([&] {
      full.reset();
      one.reset();
      full = std::make_unique<exec::Executor>(exec::openmp_backend());
      one = std::make_unique<exec::Executor>(exec::serial_backend(), 1);
      const spatial::PointSet warm = input();
      (void)hdbscan::hdbscan(*full, warm, options);
      (void)hdbscan::hdbscan(*one, warm, options);
    }));
  }

  // Each timed call gets a fresh point set, generated outside the timed
  // region, so the artifact cache cannot replay.
  const auto fresh = [](const ExecCounters& c) {
    return c.hits.delta() == 0 && c.misses.delta() >= 4;
  };
  if (!config.trace) {
    std::vector<double> t_full, t_one;
    repeat_for(config.seconds, [&] {
      const spatial::PointSet points = input();
      hdbscan::HdbscanResult a, b;
      const ExecCounters ca;
      t_full.push_back(timed([&] { a = hdbscan::hdbscan(*full, points, options); }));
      report.check(fresh(ca), "hdbscan_hacc: full-thread call replayed cached artifacts");
      const ExecCounters cb;
      t_one.push_back(timed([&] { b = hdbscan::hdbscan(*one, points, options); }));
      if (config.corrupt && t_one.size() == 1) b.labels[0] += 1;
      report.check(fresh(cb) && a.labels == b.labels,
                   "hdbscan_hacc: serial call replayed the cache or its labels differ");
    });
    emit_end_to_end(report, t_full, t_one, setup);
    return;
  }

  LayerTracer tr_full, tr_one;
  std::vector<double> untraced;
  ExecDeltas deltas;
  Counts first;  // counts of the first timed input: they repeat per seed
  repeat_for(config.seconds, [&] {
    const spatial::PointSet points = input();
    Counts counts;
    hdbscan::HdbscanResult ref;
    const ExecCounters c;
    untraced.push_back(timed([&] { ref = hdbscan::hdbscan(*full, points, options); }));
    deltas.add(c);
    std::vector<index_t> a, b;
    {
      const exec::ScopedTrace trace(*full, recorder);
      a = traced_hdbscan(*full, points, options, tr_full, counts);
    }
    {
      const exec::ScopedTrace trace(*one, recorder);
      b = traced_hdbscan(*one, points, options, tr_one, counts);
    }
    if (untraced.size() == 1) first = counts;
    if (config.corrupt && untraced.size() == 1) b[0] += 1;
    report.check(a == ref.labels && b == ref.labels,
                 "hdbscan_hacc: decomposed path labels differ from hdbscan()");
  });
  emit_layers(report, tr_full, tr_one, untraced);
  deltas.emit(report);
  emit_counts(report, first);
  finish_per_layer(report);
}

// --- dendrogram_normal2d: MST -> dendrogram ----------------------------------

void run_dendrogram_normal2d(const Config& config, Report& report, obs::TraceRecorder* recorder) {
  const index_t n = scaled(1000000, config.scale);
  hdbscan::HdbscanOptions options;
  options.min_pts = 2;
  options.min_cluster_size = 5;

  // Set-up: the mutual-reachability MST of the input, built once per rep,
  // and one warm-up dendrogram on each executor (artifact caching off, so
  // every call sorts, contracts and expands).
  std::vector<double> setup;
  std::unique_ptr<exec::Executor> full, one;
  graph::EdgeList mst;
  dendrogram::Dendrogram reference;
  LayerTracer tr_full, tr_one;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    setup.push_back(timed([&] {
      full.reset();
      one.reset();
      full = std::make_unique<exec::Executor>(exec::openmp_backend());
      one = std::make_unique<exec::Executor>(exec::serial_backend(), 1);
      full->set_artifact_caching(false);
      one->set_artifact_caching(false);
      const spatial::PointSet points =
          data::make_dataset("Normal2D", n, derive_seed(config.seed, 0));
      if (config.trace && rep + 1 == kSetupReps) {
        const exec::ScopedTrace trace(*full, recorder);
        mst = traced_mst(*full, points, options.min_pts, tr_full);
      } else {
        const spatial::KdTree tree(points, 32);
        const std::vector<double> core =
            hdbscan::core_distances(*full, points, tree, options.min_pts);
        mst = spatial::mutual_reachability_mst(*full, points, tree, core);
      }
      reference = dendrogram::pandora_dendrogram(*full, mst, n);
      const dendrogram::Dendrogram warm = dendrogram::pandora_dendrogram(*one, mst, n);
      report.check(warm.parent == reference.parent,
                   "dendrogram_normal2d: serial warm-up parents differ");
    }));
  }

  if (!config.trace) {
    // One sample is the fastest of kBestOf back-to-back calls: a call that
    // other tenants' load preempted mid-way shows as a slower repeat, not as
    // a slower sample.
    std::vector<double> t_full, t_one;
    const auto sample = [&](const exec::Executor& e, const char* what) {
      double best = std::numeric_limits<double>::infinity();
      for (int k = 0; k < kBestOf; ++k) {
        dendrogram::Dendrogram d;
        best = std::min(best, timed([&] { d = dendrogram::pandora_dendrogram(e, mst, n); }));
        if (config.corrupt && &e == one.get() && t_one.empty() && k == 0) d.parent[0] += 1;
        report.check(d.parent == reference.parent, what);
      }
      return best;
    };
    repeat_for(config.seconds, [&] {
      t_full.push_back(sample(*full, "dendrogram_normal2d: full-thread parents differ"));
      t_one.push_back(sample(*one, "dendrogram_normal2d: serial parents differ"));
    });
    report.check(dendrogram::union_find_dendrogram(*full, mst, n).parent == reference.parent,
                 "dendrogram_normal2d: union-find parents differ");
    emit_end_to_end(report, t_full, t_one, setup);
    return;
  }

  std::vector<double> untraced;
  ExecDeltas deltas;
  Counts counts;
  counts.mst_edges = static_cast<double>(mst.size());
  repeat_for(config.seconds, [&] {
    const ExecCounters c;
    dendrogram::Dendrogram ref;
    untraced.push_back(timed([&] { ref = dendrogram::pandora_dendrogram(*full, mst, n); }));
    deltas.add(c);
    dendrogram::Dendrogram a, b;
    {
      const exec::ScopedTrace trace(*full, recorder);
      const LayerTracer::Span query(tr_full, *full, "query");
      a = traced_dendrogram(*full, mst, n, tr_full, counts);
    }
    {
      const exec::ScopedTrace trace(*one, recorder);
      const LayerTracer::Span query(tr_one, *one, "query");
      b = traced_dendrogram(*one, mst, n, tr_one, counts);
    }
    if (config.corrupt && untraced.size() == 1) b.parent[0] += 1;
    report.check(a.parent == reference.parent && b.parent == reference.parent &&
                     ref.parent == reference.parent,
                 "dendrogram_normal2d: decomposed path parents differ");
  });
  // Condense once per backend for the condensed-tree counts.  Extraction is
  // left out: its O(n * depth) walk takes ~15 s on this input.
  for (auto [e, tracer] : {std::pair{full.get(), &tr_full}, std::pair{one.get(), &tr_one}}) {
    const exec::ScopedTrace trace(*e, recorder);
    hdbscan::CondensedTree condensed;
    {
      const LayerTracer::Span span(*tracer, *e, "hdbscan.condense");
      condensed = hdbscan::build_condensed_tree(*e, reference, options.min_cluster_size);
    }
    counts.condensed_clusters = condensed.num_clusters();
    counts.condensed_depth = condensed_depth(condensed);
  }
  counts.height = dendrogram::height(reference);
  emit_layers(report, tr_full, tr_one, untraced);
  deltas.emit(report);
  emit_counts(report, counts);
  finish_per_layer(report);
}

// --- serve_churn: snapshot reads beside dyn:: writes -------------------------

namespace {

/// The serving tier of one set-up rep.  Member order is destruction order
/// in reverse: the batch executor and reader go before the published
/// clustering, which goes before its writer executor.
struct ServingStack {
  exec::Executor writer;
  snapshot::PublishedClustering published;
  exec::Executor reader;
  serve::BatchExecutor batch;

  ServingStack()
      : writer(exec::openmp_backend()),
        published(writer),
        reader(exec::openmp_backend()),
        batch(reader) {}
};

constexpr int kQueriesPerBatch = 8;
/// A traced run serves at least this many batches, so serve.query_p90_ms
/// has ten samples beyond it.
constexpr int kMinBatches = 13;
constexpr double kUpdatesPerSecond = 4.0;  // 2 insert + 2 erase

/// One reader query's timestamps and output.
struct QueryRecord {
  Clock::time_point start, acquired, end;
  snapshot::SnapshotPtr snapshot;
  std::vector<index_t> labels;
};

hdbscan::HdbscanOptions query_options(int job) {
  hdbscan::HdbscanOptions options;
  options.min_pts = 2 + job;  // distinct within the batch: 2..9
  options.min_cluster_size = 16;
  return options;
}

/// Histogram growth over a window: exact count and sum (its quantiles are
/// quantised to power-of-two bucket bounds, so the mean is what varies).
class HistogramDelta {
 public:
  explicit HistogramDelta(std::string_view name)
      : hist_(obs::registry().histogram(name)), count_(hist_.count()), sum_(hist_.sum_seconds()) {}
  [[nodiscard]] std::vector<double> mean() const {
    const std::uint64_t c = hist_.count() - count_;
    if (c == 0) return {};
    return {(hist_.sum_seconds() - sum_) / static_cast<double>(c)};
  }

 private:
  obs::Histogram& hist_;
  std::uint64_t count_;
  double sum_;
};

}  // namespace

void run_serve_churn(const Config& config, Report& report, obs::TraceRecorder* recorder) {
  const index_t n = scaled(50000, config.scale);
  const index_t m = scaled(500, config.scale);  // points per insert / erase
  // Inserts draw from the same blob field as the initial points: one pool,
  // prefix loaded at set-up, later slices inserted in order.
  const auto max_inserts = static_cast<index_t>(std::ceil(config.seconds * kUpdatesPerSecond / 2)) +
                           2 * kSetupReps + 4;
  const spatial::PointSet pool =
      data::gaussian_blobs(n + m * max_inserts, 2, 8, 0.03, 0.1, derive_seed(config.seed, 0));
  index_t pool_next = 0;
  const auto take = [&](index_t count) {  // wraps around a used-up pool
    spatial::PointSet slice(2, count);
    for (index_t i = 0; i < count; ++i, pool_next = (pool_next + 1) % pool.size())
      for (int d = 0; d < 2; ++d) slice.at(i, d) = pool.at(pool_next, d);
    return slice;
  };

  std::optional<ServingStack> stack;
  std::deque<index_t> live;  // erase order: oldest first
  const auto insert = [&](index_t count) {
    const std::vector<index_t> ids = stack->published.insert(take(count));
    live.insert(live.end(), ids.begin(), ids.end());
  };
  const auto erase = [&] {
    const std::vector<index_t> victims(live.begin(), live.begin() + m);
    live.erase(live.begin(), live.begin() + m);
    stack->published.erase(victims);
  };

  std::vector<QueryRecord> records(kQueriesPerBatch);
  std::vector<serve::BatchExecutor::Job> jobs(kQueriesPerBatch);
  for (int i = 0; i < kQueriesPerBatch; ++i) {
    jobs[static_cast<std::size_t>(i)].size_hint = n;
    jobs[static_cast<std::size_t>(i)].run = [&, i](const exec::Executor& e) {
      QueryRecord& r = records[static_cast<std::size_t>(i)];
      r.start = Clock::now();
      r.snapshot = stack->published.acquire();
      r.acquired = Clock::now();
      const exec::ScopedSpan span(e, "serve.query");
      r.labels = r.snapshot->hdbscan(e, query_options(i)).labels;
      r.end = Clock::now();
    };
  }

  // Set-up: the serving stack with the initial points published, plus one
  // warm-up batch and one warm-up insert/erase pair.
  std::vector<double> setup;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    setup.push_back(timed([&] {
      stack.reset();
      live.clear();
      pool_next = 0;
      stack.emplace();
      insert(n);
      (void)stack->batch.run_jobs(jobs);
      insert(m);
      erase();
    }));
  }
  const snapshot::SnapshotPtr initial = stack->published.acquire();

  // Readers: a closed loop of batches on this thread.  Writer: an open loop
  // on its own thread, one update due every 1/kUpdatesPerSecond seconds,
  // alternating insert and erase, each timed from when it was due.
  std::vector<double> query_s, wait_s, run_s, acquire_s, update_s, service_s, late_s;
  std::array<std::size_t, 4> outcomes{};  // ok, cancelled, shed, failed
  QueryRecord kept;  // the latest served query of job 0
  std::atomic<bool> stop{false};
  std::exception_ptr writer_error;
  std::optional<exec::ScopedTrace> trace_reader, trace_writer;
  if (config.trace) {
    trace_reader.emplace(stack->reader, recorder);
    trace_writer.emplace(stack->writer, recorder);
  }
  const ExecCounters counters;
  const HistogramDelta dyn_insert("pandora_dyn_insert_seconds");
  const HistogramDelta dyn_erase("pandora_dyn_erase_seconds");
  const HistogramDelta publish("pandora_snapshot_publish_seconds");
  const auto start = Clock::now();
  std::thread writer([&] {
    try {
      for (int k = 0;; ++k) {
        const auto due = start + std::chrono::duration_cast<Clock::duration>(
                                     std::chrono::duration<double>(k / kUpdatesPerSecond));
        while (!stop.load() && Clock::now() < due)
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        if (stop.load()) break;
        const auto began = Clock::now();
        late_s.push_back(std::chrono::duration<double>(began - due).count());
        if (k % 2 == 0) insert(m);
        else erase();
        const auto done = Clock::now();
        update_s.push_back(std::chrono::duration<double>(done - due).count());
        service_s.push_back(std::chrono::duration<double>(done - began).count());
      }
    } catch (...) {
      writer_error = std::current_exception();
    }
  });
  try {
    repeat_for(config.seconds, [&] {
      const auto submit = Clock::now();
      const std::vector<serve::JobResult> results = stack->batch.run_jobs(jobs);
      for (std::size_t i = 0; i < results.size(); ++i) {
        ++outcomes[static_cast<std::size_t>(results[i].outcome)];
        const bool ok = results[i].outcome == serve::JobOutcome::ok;
        report.check(ok, "serve_churn: a reader query did not complete ok");
        if (!ok) continue;
        const QueryRecord& r = records[i];
        query_s.push_back(std::chrono::duration<double>(r.end - submit).count());
        wait_s.push_back(std::chrono::duration<double>(r.start - submit).count());
        run_s.push_back(std::chrono::duration<double>(r.end - r.start).count());
        acquire_s.push_back(std::chrono::duration<double>(r.acquired - r.start).count());
      }
      if (results[0].outcome == serve::JobOutcome::ok) kept = std::move(records[0]);
    }, config.trace ? kMinBatches : 1);
  } catch (...) {
    stop = true;
    writer.join();
    throw;
  }
  stop = true;
  writer.join();
  trace_writer.reset();
  trace_reader.reset();
  report.check(writer_error == nullptr, "serve_churn: writer update threw");
  report.attempt(update_s.size());

  // One served query re-run cold on a fresh executor must match.
  if (kept.snapshot != nullptr) {
    exec::Executor cold(exec::openmp_backend());
    cold.set_artifact_caching(false);
    if (config.corrupt) kept.labels[0] += 1;
    report.check(hdbscan::hdbscan(cold, kept.snapshot->points(), query_options(0)).labels ==
                     kept.labels,
                 "serve_churn: served query differs from a cold re-run");
  } else {
    report.check(false, "serve_churn: no query completed");
  }

  if (!config.trace) {
    emit_end_to_end(report, query_s, update_s, setup);
    return;
  }

  report.metric("serve.query_p90_ms", 1e3 * quantile(query_s, 0.9), "ms", query_s.size());
  report.metric("snapshot.update_p90_ms", 1e3 * quantile(update_s, 0.9), "ms", update_s.size());
  report.median_of("serve.queue_wait_ms", wait_s, "ms");
  report.median_of("serve.run_ms", run_s, "ms");
  report.median_of("snapshot.acquire_us", acquire_s, "us");
  report.median_of("snapshot.update_ms", service_s, "ms");
  report.median_of("dyn.insert_ms", dyn_insert.mean(), "ms");
  report.median_of("dyn.erase_ms", dyn_erase.mean(), "ms");
  report.median_of("snapshot.publish_ms", publish.mean(), "ms");
  report.metric("loadgen.writer_late_ms",
                late_s.empty() ? 0.0 : 1e3 * *std::max_element(late_s.begin(), late_s.end()),
                "ms", late_s.size());
  ExecDeltas deltas;
  deltas.add(counters, std::max<double>(1.0, static_cast<double>(query_s.size())));
  deltas.emit(report);
  report.metric("serve.jobs_ok", static_cast<double>(outcomes[0]), "count");
  report.metric("serve.jobs_cancelled", static_cast<double>(outcomes[1]), "count");
  report.metric("serve.jobs_shed", static_cast<double>(outcomes[2]), "count");
  report.metric("serve.jobs_failed", static_cast<double>(outcomes[3]), "count");

  // Layer breakdown of one reader query (min_pts 2) against the snapshot
  // published at set-up, decomposed, beside an untraced cold reference:
  // three rounds after the serving window.
  exec::Executor full(exec::openmp_backend());
  exec::Executor one(exec::serial_backend(), 1);
  full.set_artifact_caching(false);
  LayerTracer tr_full, tr_one;
  std::vector<double> untraced;
  Counts counts;
  const hdbscan::HdbscanOptions options = query_options(0);
  for (int round = 0; round < 3; ++round) {
    hdbscan::HdbscanResult ref;
    untraced.push_back(timed([&] { ref = hdbscan::hdbscan(full, initial->points(), options); }));
    std::vector<index_t> a, b;
    {
      const exec::ScopedTrace trace(full, recorder);
      a = traced_hdbscan(full, initial->points(), options, tr_full, counts);
    }
    {
      const exec::ScopedTrace trace(one, recorder);
      b = traced_hdbscan(one, initial->points(), options, tr_one, counts);
    }
    report.check(a == ref.labels && b == ref.labels,
                 "serve_churn: decomposed path labels differ from hdbscan()");
  }
  emit_layers(report, tr_full, tr_one, untraced);
  emit_counts(report, counts);
  finish_per_layer(report);
}

}  // namespace perfbench
