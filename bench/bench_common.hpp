#pragma once

// Shared helpers for the figure/table reproduction binaries.
//
// Every binary prints a self-contained table mirroring one table or figure of
// the paper.  Sizes default to laptop scale and honour the environment
// variable PANDORA_BENCH_SCALE (a float multiplier on the point counts).

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "pandora/common/timer.hpp"
#include "pandora/common/types.hpp"
#include "pandora/data/point_generators.hpp"
#include "pandora/exec/executor.hpp"
#include "pandora/graph/edge.hpp"
#include "pandora/hdbscan/core_distance.hpp"
#include "pandora/obs/metrics.hpp"
#include "pandora/spatial/emst.hpp"
#include "pandora/spatial/kdtree.hpp"

namespace pandora::bench {

inline double bench_scale() {
  if (const char* env = std::getenv("PANDORA_BENCH_SCALE")) {
    const double s = std::atof(env);
    if (s > 0) return s;
  }
  return 1.0;
}

inline index_t scaled(index_t n) {
  const double s = bench_scale();
  return static_cast<index_t>(static_cast<double>(n) * s);
}

/// Millions of points processed per second — the paper's throughput metric.
inline double mpoints_per_sec(index_t n, double seconds) {
  return seconds > 0 ? 1e-6 * static_cast<double>(n) / seconds : 0.0;
}

/// A dataset prepared for dendrogram benchmarking: the mutual-reachability
/// MST is built once (timed) and shared across algorithms.  The points, the
/// kd-tree and the core distances are kept alive (behind stable addresses, so
/// the struct stays movable) for benches that re-measure spatial phases —
/// e.g. fig11's edge-sort-excluded EMST column.
struct PreparedDataset {
  std::string name;
  index_t n = 0;
  int dim = 0;
  std::shared_ptr<spatial::PointSet> points;
  std::unique_ptr<spatial::KdTree> tree;  ///< built over *points
  std::vector<double> core;               ///< core distances at min_pts
  graph::EdgeList mst;
  double tree_build_seconds = 0;
  double core_seconds = 0;
  double mst_seconds = 0;
};

inline PreparedDataset prepare_dataset(const std::string& name, index_t n, int min_pts,
                                       const exec::Executor& exec, std::uint64_t seed = 2024) {
  PreparedDataset prepared;
  prepared.name = name;
  prepared.points = std::make_shared<spatial::PointSet>(data::make_dataset(name, n, seed));
  prepared.n = prepared.points->size();
  prepared.dim = prepared.points->dim();

  Timer timer;
  prepared.tree = std::make_unique<spatial::KdTree>(exec, *prepared.points);
  prepared.tree_build_seconds = timer.seconds();

  timer.reset();
  prepared.core = hdbscan::core_distances(exec, *prepared.points, *prepared.tree, min_pts);
  prepared.core_seconds = timer.seconds();

  timer.reset();
  prepared.mst =
      spatial::mutual_reachability_mst(exec, *prepared.points, *prepared.tree, prepared.core);
  prepared.mst_seconds = timer.seconds();
  return prepared;
}

/// Minimum wall-clock over `repeats` runs of `f` (the usual bench practice).
template <class F>
double best_of(int repeats, F&& f) {
  double best = 1e300;
  for (int r = 0; r < repeats; ++r) {
    Timer timer;
    f();
    best = std::min(best, timer.seconds());
  }
  return best;
}

/// Wall-clock samples of repeated runs, with the order statistics the JSON
/// artifacts track across PRs (median for the headline, p90 for tail noise,
/// min for the classic best-of number).
struct Measurement {
  std::vector<double> samples;  ///< seconds, in run order

  [[nodiscard]] double quantile(double q) const {
    if (samples.empty()) return 0.0;
    std::vector<double> s = samples;
    std::sort(s.begin(), s.end());
    const double pos = q * static_cast<double>(s.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, s.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return s[lo] + (s[hi] - s[lo]) * frac;
  }
  [[nodiscard]] double median() const { return quantile(0.5); }
  [[nodiscard]] double p90() const { return quantile(0.9); }
  [[nodiscard]] double best() const {
    return samples.empty() ? 0.0 : *std::min_element(samples.begin(), samples.end());
  }
};

template <class F>
Measurement measure(int repeats, F&& f) {
  Measurement m;
  m.samples.reserve(static_cast<std::size_t>(repeats));
  for (int r = 0; r < repeats; ++r) {
    Timer timer;
    f();
    m.samples.push_back(timer.seconds());
  }
  return m;
}

/// Wall-clock samples plus each run's phase breakdown (see measure_phases).
struct PhaseMeasurement {
  Measurement wall;
  std::vector<PhaseTimes> runs;  ///< one sink per timed run, in run order

  /// Median over the runs of one phase's per-run total.
  [[nodiscard]] double median(const std::string& phase) const {
    Measurement m;
    for (const PhaseTimes& run : runs) m.samples.push_back(run.get(phase));
    return m.median();
  }
};

/// `measure` after one untimed warm-up call of `f`, with a fresh PhaseTimes
/// sink installed on `exec` for each timed run (the caller's sink, if any,
/// is restored afterwards).
template <class F>
PhaseMeasurement measure_phases(const exec::Executor& exec, int repeats, F&& f) {
  f();  // warm-up: arena blocks, thread teams, page faults
  PhaseMeasurement m;
  m.runs.resize(static_cast<std::size_t>(repeats));
  PhaseTimes* const saved = exec.phase_times();
  std::size_t run = 0;
  m.wall = measure(repeats, [&] {
    exec.set_phase_times(&m.runs[run++]);
    f();
  });
  exec.set_phase_times(saved);
  return m;
}

/// Machine-readable benchmark emitter.  When the environment variable
/// PANDORA_BENCH_JSON_DIR names a directory, the report writes
/// `<dir>/BENCH_<name>.json` on destruction:
///
///   {"bench": "fig11", "threads": 8, "scale": 1.0,
///    "metrics": {"counters": {...}, "gauges": {...}, "histograms": {...}},
///    "rows": [{"dataset": "HaccProxy", "n": 500000, ...}, ...]}
///
/// so the perf trajectory (median/p90 wall times, steady-state allocations)
/// can be diffed across PRs.  The `metrics` object is the process-wide
/// obs:: registry snapshot taken as the report is written — cache traffic,
/// QoS outcomes, publish latencies etc. ride along without per-bench
/// plumbing (check_regression.py validates its shape).  With the variable
/// unset the report is inert and the bench prints its usual table only.
class JsonReport {
 public:
  explicit JsonReport(std::string name) : name_(std::move(name)) {
    if (const char* dir = std::getenv("PANDORA_BENCH_JSON_DIR")) dir_ = dir;
  }
  JsonReport(const JsonReport&) = delete;
  JsonReport& operator=(const JsonReport&) = delete;
  ~JsonReport() { write(); }

  [[nodiscard]] bool enabled() const { return !dir_.empty(); }

  JsonReport& field(const char* key, const std::string& value) {
    append_key(key);
    row_ += '"';
    for (const char c : value) {
      if (c == '"' || c == '\\') row_ += '\\';
      row_ += c;
    }
    row_ += '"';
    return *this;
  }
  JsonReport& field(const char* key, double value) {
    append_key(key);
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.9g", value);
    row_ += buf;
    return *this;
  }
  JsonReport& field(const char* key, std::int64_t value) {
    append_key(key);
    row_ += std::to_string(value);
    return *this;
  }
  JsonReport& field(const char* key, index_t value) {
    return field(key, static_cast<std::int64_t>(value));
  }
  JsonReport& field(const char* key, std::size_t value) {
    return field(key, static_cast<std::int64_t>(value));
  }
  /// Emits `<key>_median`, `<key>_p90` and `<key>_best` seconds fields.
  JsonReport& timing(const char* key, const Measurement& m) {
    field((std::string(key) + "_median").c_str(), m.median());
    field((std::string(key) + "_p90").c_str(), m.p90());
    field((std::string(key) + "_best").c_str(), m.best());
    return *this;
  }

  void end_row() {
    if (!rows_.empty()) rows_ += ",\n    ";
    rows_ += '{' + row_ + '}';
    row_.clear();
  }

 private:
  void append_key(const char* key) {
    if (!row_.empty()) row_ += ", ";
    row_ += '"';
    row_ += key;
    row_ += "\": ";
  }

  void write() const {
    if (!enabled()) return;
    const std::string path = dir_ + "/BENCH_" + name_ + ".json";
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "JsonReport: cannot write %s\n", path.c_str());
      return;
    }
    // The top-level backend column records which Backend the bench ran on
    // by default (rows that sweep backends carry their own "backend" field).
    const char* backend = exec::default_backend()->name();
    const int threads = exec::default_backend()->concurrency();
    const std::string metrics = obs::registry().json();
    if (rows_.empty()) {
      // Keep the artifact parseable even if the bench exited before any row.
      std::fprintf(f,
                   "{\n  \"bench\": \"%s\",\n  \"backend\": \"%s\",\n"
                   "  \"threads\": %d,\n  \"scale\": %.6g,\n"
                   "  \"metrics\": %s,\n  \"rows\": []\n}\n",
                   name_.c_str(), backend, threads, bench_scale(), metrics.c_str());
    } else {
      std::fprintf(f,
                   "{\n  \"bench\": \"%s\",\n  \"backend\": \"%s\",\n"
                   "  \"threads\": %d,\n  \"scale\": %.6g,\n"
                   "  \"metrics\": %s,\n"
                   "  \"rows\": [\n    %s\n  ]\n}\n",
                   name_.c_str(), backend, threads, bench_scale(), metrics.c_str(),
                   rows_.c_str());
    }
    std::fclose(f);
  }

  std::string name_;
  std::string dir_;
  std::string row_;   ///< fields of the row being built
  std::string rows_;  ///< completed rows, comma-joined
};

inline void print_header(const char* title, const char* paper_ref) {
  std::printf("==============================================================================\n");
  std::printf("%s\n", title);
  std::printf("reproduces: %s\n", paper_ref);
  std::printf("scale: %.2fx (set PANDORA_BENCH_SCALE to change), threads: %d, backend: %s\n",
              bench_scale(), exec::default_backend()->concurrency(),
              exec::default_backend()->name());
  std::printf("==============================================================================\n");
}

}  // namespace pandora::bench
