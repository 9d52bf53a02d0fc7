#pragma once

// Shared plumbing of the benchmark binary: run configuration, sample
// statistics, the metric report, registry-counter deltas, and the layer
// tracer that times each call into a library layer from the benchmark's side.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "pandora/exec/executor.hpp"
#include "pandora/obs/metrics.hpp"
#include "pandora/obs/trace.hpp"

namespace perfbench {

namespace exec = pandora::exec;
namespace obs = pandora::obs;

struct Config {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  double scale = 1.0;         ///< input-size multiplier (self-test runs shrink it)
  bool corrupt = false;       ///< flip one output before checking (self-test)
  std::string trace_path;     ///< Chrome trace of the traced run ("" = none)
};

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Independent sub-seed for input stream `stream` of a workload seed
/// (splitmix64 finaliser), so every generated input derives from --seed.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream);

/// Linear-interpolated quantile (the same rule as numpy's default); NaN for
/// no samples.
double quantile(std::vector<double> values, double q);
inline double median(const std::vector<double>& values) { return quantile(values, 0.5); }

/// What one run reports: named metrics with units, sample counts, and the
/// attempted/failed operation tally that output checks feed.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit,
              std::size_t samples = 1);
  /// A metric from its samples (seconds for a time unit): the median, scaled
  /// to `unit`; 0 when there are none.
  void median_of(const std::string& name, const std::vector<double>& seconds,
                 const std::string& unit);
  /// Sets `name` to `value` (with 0 samples) unless it was already emitted.
  void fallback(const std::string& name, double value, const std::string& unit) {
    metrics_.try_emplace(name, Value{value, unit, 0});
  }
  /// Keeps the raw samples (seconds) behind a metric for the run record.
  void series(const std::string& name, const std::vector<double>& seconds) {
    series_[name] = seconds;
  }

  /// Counts one attempted operation; a false `ok` also counts it failed and
  /// records `what`.
  void check(bool ok, const std::string& what);
  void attempt(std::size_t n = 1) { attempted_ += n; }

  [[nodiscard]] std::size_t failed() const { return failures_.size(); }
  [[nodiscard]] std::string json(const Config& config) const;

 private:
  struct Value {
    double value;
    std::string unit;
    std::size_t samples;
  };
  std::map<std::string, Value> metrics_;
  std::map<std::string, std::vector<double>> series_;
  std::vector<std::string> failures_;
  std::size_t attempted_ = 0;
};

/// Reads a registry counter now; `delta()` is its growth since construction.
class CounterDelta {
 public:
  explicit CounterDelta(std::string_view name)
      : counter_(obs::registry().counter(name)), start_(counter_.value()) {}
  [[nodiscard]] std::uint64_t delta() const { return counter_.value() - start_; }

 private:
  obs::Counter& counter_;
  std::uint64_t start_;
};

/// The registry counters each call's per-layer exec metrics come from.
struct ExecCounters {
  CounterDelta hits{"pandora_cache_hits_total"};
  CounterDelta misses{"pandora_cache_misses_total"};
  CounterDelta run_chunks{"pandora_exec_run_chunks_total"};
  CounterDelta arena_misses{"pandora_workspace_arena_misses_total"};
};

/// Times the benchmark's calls into library layers.  Each `Span` records
/// one Chrome-trace event through the executor's installed recorder (via
/// exec::ScopedSpan) and keeps its own start/end so self times can be
/// derived without parsing the trace: a span's self time is its duration
/// minus that of its direct child spans.  Single-threaded use only.
class LayerTracer {
 public:
  class Span {
   public:
    /// `name` must outlive the tracer (pass a string literal).
    Span(LayerTracer& tracer, const exec::Executor& exec, const char* name);
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;
    ~Span();

   private:
    LayerTracer& tracer_;
    std::size_t index_;
    exec::ScopedSpan span_;
  };

  /// Self seconds of every finished span, grouped by span name.
  [[nodiscard]] std::map<std::string, std::vector<double>> self_seconds() const;
  /// Total seconds of every finished span named `name`.
  [[nodiscard]] std::vector<double> total_seconds(const std::string& name) const;

 private:
  struct Record {
    const char* name;
    Clock::time_point start;
    Clock::time_point end;
    std::ptrdiff_t parent;
    double child_seconds = 0.0;
  };
  std::vector<Record> records_;
  std::ptrdiff_t open_ = -1;
};

/// Peak resident set size of this process, in MiB.
double peak_rss_mb();

/// The workloads.  Each sets itself up, measures for `config.seconds`,
/// checks its outputs into `report`, and emits the end-to-end metrics
/// (untraced run) or the per-layer metrics (traced run, spans recorded into
/// `recorder`).
void run_hdbscan_hacc(const Config& config, Report& report, obs::TraceRecorder* recorder);
void run_dendrogram_normal2d(const Config& config, Report& report,
                             obs::TraceRecorder* recorder);
void run_serve_churn(const Config& config, Report& report, obs::TraceRecorder* recorder);

}  // namespace perfbench
