// pandora_perfbench: one run of one benchmark workload.
//
//   pandora_perfbench --workload hdbscan_hacc --seed 7 --seconds 20 --trace 0
//       [--scale 1] [--corrupt] [--trace-out trace.json]
//
// Prints one JSON object (metrics with units and sample counts, host shape,
// attempted/failed operations, failure reasons) on stdout.  perfbench/run.py
// builds this binary and turns that object into the benchmark's result line.

#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <sstream>
#include <string>

#include "bench.hpp"
#include "pandora/exec/backend.hpp"
#include "pandora/spatial/distance.hpp"

namespace perfbench {

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ull * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return std::nan("");
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (rank - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

void Report::metric(const std::string& name, double value, const std::string& unit,
                    std::size_t samples) {
  metrics_[name] = Value{value, unit, samples};
}

void Report::median_of(const std::string& name, const std::vector<double>& seconds,
                       const std::string& unit) {
  double scale = 1.0;
  if (unit == "ms") scale = 1e3;
  else if (unit == "us") scale = 1e6;
  // No samples means the layer did no work on this workload: report 0.
  metric(name, seconds.empty() ? 0.0 : scale * median(seconds), unit, seconds.size());
}

void Report::check(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) failures_.push_back(what);
}

namespace {

std::string escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out;
}

std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

std::string Report::json(const Config& config) const {
  const exec::Executor full(exec::openmp_backend());
  std::ostringstream out;
  out << "{\"workload\": \"" << escape(config.workload) << "\", \"seed\": " << config.seed
      << ", \"seconds\": " << number(config.seconds) << ", \"trace\": " << (config.trace ? 1 : 0)
      << ", \"scale\": " << number(config.scale) << ", \"host\": {\"threads\": "
      << full.num_threads() << ", \"backend\": \"" << full.name()
      << "\", \"serial_backend\": \"" << exec::serial_backend()->name()
      << "\", \"simd_width\": " << pandora::spatial::distance::simd_vector_width()
      << ", \"build_type\": \"" << PERFBENCH_BUILD_TYPE << "\"}, \"attempted\": " << attempted_
      << ", \"failed\": " << failures_.size() << ", \"failures\": [";
  for (std::size_t i = 0; i < failures_.size(); ++i)
    out << (i ? ", " : "") << '"' << escape(failures_[i]) << '"';
  out << "], \"metrics\": {";
  bool first = true;
  for (const auto& [name, v] : metrics_) {
    out << (first ? "" : ", ") << '"' << escape(name) << "\": {\"value\": " << number(v.value)
        << ", \"unit\": \"" << escape(v.unit) << "\", \"samples\": " << v.samples << '}';
    first = false;
  }
  out << "}, \"series\": {";
  first = true;
  for (const auto& [name, values] : series_) {
    out << (first ? "" : ", ") << '"' << escape(name) << "\": [";
    for (std::size_t i = 0; i < values.size(); ++i) out << (i ? ", " : "") << number(values[i]);
    out << ']';
    first = false;
  }
  out << "}}";
  return out.str();
}

LayerTracer::Span::Span(LayerTracer& tracer, const exec::Executor& exec, const char* name)
    : tracer_(tracer), index_(tracer.records_.size()), span_(exec, name) {
  tracer.records_.push_back(Record{name, Clock::now(), {}, tracer.open_});
  tracer.open_ = static_cast<std::ptrdiff_t>(index_);
}

LayerTracer::Span::~Span() {
  Record& record = tracer_.records_[index_];
  record.end = Clock::now();
  tracer_.open_ = record.parent;
  if (record.parent >= 0) {
    tracer_.records_[static_cast<std::size_t>(record.parent)].child_seconds +=
        std::chrono::duration<double>(record.end - record.start).count();
  }
}

std::map<std::string, std::vector<double>> LayerTracer::self_seconds() const {
  std::map<std::string, std::vector<double>> out;
  for (const Record& r : records_) {
    const double total = std::chrono::duration<double>(r.end - r.start).count();
    out[r.name].push_back(total - r.child_seconds);
  }
  return out;
}

std::vector<double> LayerTracer::total_seconds(const std::string& name) const {
  std::vector<double> out;
  for (const Record& r : records_)
    if (name == r.name) out.push_back(std::chrono::duration<double>(r.end - r.start).count());
  return out;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux reports KiB
}

}  // namespace perfbench

namespace {

[[noreturn]] void usage(const char* message) {
  std::fprintf(stderr,
               "pandora_perfbench: %s\nusage: pandora_perfbench --workload "
               "{hdbscan_hacc|dendrogram_normal2d|serve_churn} --seed N --seconds S --trace "
               "{0|1} [--scale F] [--corrupt] [--trace-out PATH]\n",
               message);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Config config;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
      return argv[++i];
    };
    if (arg == "--workload") config.workload = value();
    else if (arg == "--seed") config.seed = std::stoull(value());
    else if (arg == "--seconds") config.seconds = std::stod(value());
    else if (arg == "--trace") config.trace = value() != "0";
    else if (arg == "--scale") config.scale = std::stod(value());
    else if (arg == "--trace-out") config.trace_path = value();
    else if (arg == "--corrupt") config.corrupt = true;
    else usage(("unknown argument " + arg).c_str());
  }
  if (!(config.seconds > 0) || !(config.scale > 0)) usage("--seconds and --scale must be > 0");

  using Workload = void (*)(const perfbench::Config&, perfbench::Report&,
                            pandora::obs::TraceRecorder*);
  Workload workload = nullptr;
  if (config.workload == "hdbscan_hacc") workload = perfbench::run_hdbscan_hacc;
  else if (config.workload == "dendrogram_normal2d") workload = perfbench::run_dendrogram_normal2d;
  else if (config.workload == "serve_churn") workload = perfbench::run_serve_churn;
  else usage("unknown --workload");

  // Rings sized for every run_chunks span of a traced run; only threads that
  // record (the callers of traced executors) claim one.
  pandora::obs::TraceRecorder recorder(
      pandora::obs::TraceOptions{.events_per_thread = std::size_t{1} << 16, .max_threads = 16});
  perfbench::Report report;
  try {
    workload(config, report, config.trace ? &recorder : nullptr);
  } catch (const std::exception& e) {
    report.check(false, std::string("workload aborted: ") + e.what());
  }
  if (config.trace && !config.trace_path.empty() &&
      !recorder.write_chrome_trace(config.trace_path)) {
    report.check(false, "could not write " + config.trace_path);
  }
  std::printf("%s\n", report.json(config).c_str());
  return 0;
}
