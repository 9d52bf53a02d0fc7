// The obs:: telemetry contracts: exact log2 histogram buckets, quantiles
// quoted as bucket upper bounds, lossless concurrent recording (the gcc-tsan
// CI lane runs this suite as the telemetry race stress), per-thread trace
// rings with counted drops — and the load-bearing one, verified with a
// replaced global operator new: recording metrics and emitting spans on a
// warm serving path allocates NOTHING, so instrumentation never invalidates
// the zero-heap steady-state gates.

#include "alloc_counter.hpp"  // must precede everything that allocates

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "pandora/data/point_generators.hpp"
#include "pandora/dendrogram/pandora.hpp"
#include "pandora/hdbscan/hdbscan.hpp"
#include "pandora/obs/metrics.hpp"
#include "pandora/obs/trace.hpp"
#include "pandora/pipeline.hpp"
#include "test_helpers.hpp"

namespace {

using namespace pandora;
using pandora::testing::AllocationCounterScope;
using pandora::testing::Topology;
using pandora::testing::make_tree;

// --- histogram bucketing ----------------------------------------------------

TEST(Histogram, BucketBoundariesAreExactPowersOfTwo) {
  // bucket 0 <- the value 0; bucket b (b >= 1) <- bit_width b, [2^(b-1), 2^b).
  static_assert(obs::Histogram::bucket_index(0) == 0);
  static_assert(obs::Histogram::bucket_index(1) == 1);
  static_assert(obs::Histogram::bucket_index(2) == 2);
  static_assert(obs::Histogram::bucket_index(3) == 2);
  static_assert(obs::Histogram::bucket_index(4) == 3);
  static_assert(obs::Histogram::bucket_index(7) == 3);
  static_assert(obs::Histogram::bucket_index(8) == 4);

  for (int b = 1; b < obs::Histogram::kNumBuckets - 1; ++b) {
    const std::uint64_t lo = std::uint64_t{1} << (b - 1);
    const std::uint64_t hi = (std::uint64_t{1} << b) - 1;
    EXPECT_EQ(obs::Histogram::bucket_index(lo), b) << "lower edge of bucket " << b;
    EXPECT_EQ(obs::Histogram::bucket_index(hi), b) << "upper edge of bucket " << b;
    EXPECT_EQ(obs::Histogram::bucket_upper_ns(b), hi);
  }
  // The last bucket absorbs everything beyond 2^62 and quotes 2^63.
  EXPECT_EQ(obs::Histogram::bucket_index(~std::uint64_t{0}), obs::Histogram::kNumBuckets - 1);
  EXPECT_EQ(obs::Histogram::bucket_upper_ns(obs::Histogram::kNumBuckets - 1),
            std::uint64_t{1} << 63);
}

TEST(Histogram, BucketCountsAreExact) {
  obs::Histogram h;
  h.observe_ns(0);                          // bucket 0
  h.observe_ns(1);                          // bucket 1
  for (int i = 0; i < 5; ++i) h.observe_ns(100);  // bit_width(100) = 7
  h.observe_ns(127);                        // still bucket 7
  h.observe_ns(128);                        // bucket 8

  EXPECT_EQ(h.count(), 9u);
  EXPECT_EQ(h.bucket_count(0), 1u);
  EXPECT_EQ(h.bucket_count(1), 1u);
  EXPECT_EQ(h.bucket_count(7), 6u);
  EXPECT_EQ(h.bucket_count(8), 1u);
  EXPECT_DOUBLE_EQ(h.sum_seconds(), 1e-9 * (0 + 1 + 5 * 100 + 127 + 128));

  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.bucket_count(7), 0u);
}

TEST(Histogram, QuantilesQuoteContainingBucketUpperBound) {
  obs::Histogram h;
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);  // empty

  // 99 fast samples (bucket 7, upper bound 127ns) and one 1ms straggler
  // (bit_width(1'000'000) = 20, upper bound 2^20 - 1 ns).
  for (int i = 0; i < 99; ++i) h.observe_ns(100);
  h.observe_ns(1'000'000);

  EXPECT_DOUBLE_EQ(h.quantile(0.5), 127e-9);
  EXPECT_DOUBLE_EQ(h.quantile(0.9), 127e-9);
  EXPECT_DOUBLE_EQ(h.quantile(0.99), 127e-9);  // rank 99 is still a fast one
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 1e-9 * ((std::uint64_t{1} << 20) - 1));
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 127e-9);  // rank clamps to the 1st sample
}

TEST(Histogram, ObserveSecondsRoundsToNanoseconds) {
  obs::Histogram h;
  h.observe(-1.0);   // negative durations clamp to the zero bucket
  h.observe(1e-9);   // 1ns -> bucket 1
  h.observe(3e-9);   // 3ns -> bucket 2
  h.observe(1.0);    // 1e9 ns -> bit_width 30
  EXPECT_EQ(h.bucket_count(0), 1u);
  EXPECT_EQ(h.bucket_count(1), 1u);
  EXPECT_EQ(h.bucket_count(2), 1u);
  EXPECT_EQ(h.bucket_count(30), 1u);
}

// --- concurrent recording (the gcc-tsan lane's telemetry stress) ------------

TEST(Metrics, ConcurrentRecordingLosesNothing) {
  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 20000;
  obs::Registry reg;
  obs::Counter& counter = reg.counter("stress_total");
  obs::Gauge& gauge = reg.gauge("stress_level");
  obs::Histogram& hist = reg.histogram("stress_seconds");

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kOpsPerThread; ++i) {
        counter.inc();
        gauge.add(t % 2 == 0 ? 1 : -1);
        hist.observe_ns(static_cast<std::uint64_t>(i % 1000));
      }
    });
  }
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(counter.value(), static_cast<std::uint64_t>(kThreads * kOpsPerThread));
  EXPECT_EQ(gauge.value(), 0);
  EXPECT_EQ(hist.count(), static_cast<std::uint64_t>(kThreads * kOpsPerThread));
  std::uint64_t bucket_sum = 0;
  for (int b = 0; b < obs::Histogram::kNumBuckets; ++b) bucket_sum += hist.bucket_count(b);
  EXPECT_EQ(bucket_sum, hist.count());
}

// --- registry lookups and exposition ----------------------------------------

TEST(Registry, HandlesAreStableAndLookupsReadBack) {
  obs::Registry reg;
  obs::Counter& c = reg.counter("a_total");
  c.inc(3);
  // A later registration must not move the earlier node (std::map storage).
  for (int i = 0; i < 100; ++i) reg.counter("filler_" + std::to_string(i) + "_total");
  EXPECT_EQ(&reg.counter("a_total"), &c);
  EXPECT_EQ(reg.counter_value("a_total"), 3u);
  EXPECT_EQ(reg.counter_value("never_registered_total"), 0u);
  EXPECT_EQ(reg.find_histogram("nope"), nullptr);

  reg.gauge("g").set(-7);
  EXPECT_EQ(reg.gauge_value("g"), -7);

  reg.histogram("h_seconds").observe_ns(5);
  ASSERT_NE(reg.find_histogram("h_seconds"), nullptr);
  EXPECT_EQ(reg.find_histogram("h_seconds")->count(), 1u);

  reg.reset();  // counters and histograms zero; gauges keep tracking state
  EXPECT_EQ(reg.counter_value("a_total"), 0u);
  EXPECT_EQ(reg.find_histogram("h_seconds")->count(), 0u);
  EXPECT_EQ(reg.gauge_value("g"), -7);
}

TEST(Registry, PrometheusExpositionCarriesTypesLabelsAndBuckets) {
  obs::Registry reg;
  reg.counter("demo_jobs_total{outcome=\"ok\"}").inc(2);
  reg.counter("demo_jobs_total{outcome=\"shed\"}").inc();
  reg.gauge("demo_level").set(4);
  obs::Histogram& h = reg.histogram("demo_seconds");
  h.observe_ns(100);  // bucket 7, le 127e-9
  h.observe_ns(100);

  const std::string text = reg.prometheus_text();
  EXPECT_NE(text.find("# TYPE demo_jobs_total counter"), std::string::npos) << text;
  // One TYPE line per base name even with two labelled series.
  EXPECT_EQ(text.find("# TYPE demo_jobs_total counter"),
            text.rfind("# TYPE demo_jobs_total counter"));
  EXPECT_NE(text.find("demo_jobs_total{outcome=\"ok\"} 2"), std::string::npos);
  EXPECT_NE(text.find("demo_jobs_total{outcome=\"shed\"} 1"), std::string::npos);
  EXPECT_NE(text.find("# TYPE demo_level gauge"), std::string::npos);
  EXPECT_NE(text.find("demo_level 4"), std::string::npos);
  EXPECT_NE(text.find("# TYPE demo_seconds histogram"), std::string::npos);
  EXPECT_NE(text.find("demo_seconds_bucket{le=\"+Inf\"} 2"), std::string::npos);
  EXPECT_NE(text.find("demo_seconds_count 2"), std::string::npos);
  EXPECT_NE(text.find("demo_seconds_sum"), std::string::npos);
}

TEST(Registry, JsonSnapshotHasTheGatedShape) {
  obs::Registry reg;
  reg.counter("c_total").inc(5);
  reg.gauge("g").set(-1);
  obs::Histogram& h = reg.histogram("h_seconds");
  h.observe_ns(100);

  const std::string json = reg.json();
  EXPECT_NE(json.find("\"counters\": {\"c_total\": 5}"), std::string::npos) << json;
  EXPECT_NE(json.find("\"gauges\": {\"g\": -1}"), std::string::npos) << json;
  EXPECT_NE(json.find("\"count\": 1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"p50\": 1.27e-07"), std::string::npos) << json;
  EXPECT_NE(json.find("\"buckets\": {\"7\": 1}"), std::string::npos) << json;
}

// --- trace recorder ----------------------------------------------------------

TEST(TraceRecorder, ThreadsGetTheirOwnRingsAndNothingIsLostBelowCapacity) {
  obs::TraceRecorder recorder({.events_per_thread = 64, .max_threads = 8});
  constexpr int kThreads = 4;
  constexpr int kSpansPerThread = 16;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kSpansPerThread; ++i) {
        const std::uint64_t start = recorder.now_ns();
        recorder.record("work", start, recorder.now_ns());
      }
    });
  }
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(recorder.events_recorded(),
            static_cast<std::size_t>(kThreads * kSpansPerThread));
  EXPECT_EQ(recorder.events_dropped(), 0u);

  const std::string json = recorder.chrome_trace_json();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"work\""), std::string::npos) << json;

  recorder.clear();
  EXPECT_EQ(recorder.events_recorded(), 0u);
}

TEST(TraceRecorder, FullRingWrapsAndCountsDrops) {
  obs::TraceRecorder recorder({.events_per_thread = 8, .max_threads = 2});
  for (int i = 0; i < 20; ++i) recorder.record("span", 0, 1);
  EXPECT_EQ(recorder.events_recorded(), 8u);   // ring capacity retained
  EXPECT_EQ(recorder.events_dropped(), 12u);   // the wrapped-over oldest
}

TEST(TraceRecorder, ThreadsBeyondMaxThreadsDropOutright) {
  obs::TraceRecorder recorder({.events_per_thread = 8, .max_threads = 1});
  recorder.record("owner", 0, 1);  // this thread claims the only ring
  std::thread other([&] {
    for (int i = 0; i < 3; ++i) recorder.record("homeless", 0, 1);
  });
  other.join();
  EXPECT_EQ(recorder.events_recorded(), 1u);
  EXPECT_EQ(recorder.events_dropped(), 3u);
}

TEST(TraceRecorder, LongNamesAreTruncatedNotCorrupted) {
  obs::TraceRecorder recorder({.events_per_thread = 4, .max_threads = 1});
  const std::string long_name(80, 'x');
  recorder.record(long_name, 1000, 2000);
  const std::string json = recorder.chrome_trace_json();
  EXPECT_NE(json.find(std::string(31, 'x')), std::string::npos) << json;
  EXPECT_EQ(json.find(std::string(32, 'x')), std::string::npos) << json;
}

// --- the zero-allocation contract -------------------------------------------

TEST(Observability, WarmMetricRecordingAllocatesNothing) {
  obs::Registry reg;  // registration below allocates; recording must not
  obs::Counter& counter = reg.counter("warm_total");
  obs::Gauge& gauge = reg.gauge("warm_level");
  obs::Histogram& hist = reg.histogram("warm_seconds");

  const AllocationCounterScope scope;
  for (int i = 0; i < 10000; ++i) {
    counter.inc();
    gauge.add(1);
    hist.observe_ns(static_cast<std::uint64_t>(i));
  }
  EXPECT_EQ(scope.count(), 0u) << "metric recording must be allocation-free";
}

TEST(Observability, WarmSpanRecordingAllocatesNothing) {
  obs::TraceRecorder recorder;
  recorder.record("warmup", 0, 1);  // claims this thread's ring (allocates)

  const AllocationCounterScope scope;
  for (int i = 0; i < 10000; ++i) {
    const std::uint64_t start = recorder.now_ns();
    recorder.record("steady", start, recorder.now_ns());
  }
  EXPECT_EQ(scope.count(), 0u) << "span recording must be allocation-free";
}

TEST(Observability, WarmPipelineWithTracingAndMetricsAllocatesNothing) {
  // The composition gate: a steady-state dendrogram build with the metric
  // handles live AND a trace recorder installed (phase spans and phase
  // histograms, run_chunks spans, workspace/cache counters all firing) still
  // never touches the heap.  This is the claim that lets instrumentation stay always-on.
  const index_t nv = 20000;
  const graph::EdgeList tree = make_tree(Topology::random_attach, nv, 11, 0);
  const exec::Executor executor(exec::default_backend(), 4);

  obs::TraceRecorder recorder;
  const exec::ScopedTrace trace(executor, &recorder);

  dendrogram::Dendrogram out;
  // Warm-up: the first run claims arena blocks and trace rings, the second
  // settles OpenMP team state.
  dendrogram::pandora_dendrogram_into(executor, tree, nv, {}, out);
  dendrogram::pandora_dendrogram_into(executor, tree, nv, {}, out);

  recorder.clear();  // keep only the measured call's spans
  {
    const AllocationCounterScope scope;
    dendrogram::pandora_dendrogram_into(executor, tree, nv, {}, out);
    EXPECT_EQ(scope.count(), 0u)
        << "tracing + metrics must not break the zero-heap steady state";
  }
  EXPECT_GT(recorder.events_recorded(), 0u) << "spans were actually recorded";
  const std::string json = recorder.chrome_trace_json();
  EXPECT_NE(json.find("\"name\": \"contraction\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"name\": \"expansion\""), std::string::npos) << json;
}

// --- phase seam: one guard feeds spans, histograms and PhaseTimes -----------

/// The HDBSCAN* phases a pandora-dendrogram hdbscan() call times.
constexpr std::array<const char*, 8> kHdbscanPhases = {
    "tree_build", "core_distance", "mst",      "sort",
    "contraction", "expansion",    "condense", "extract"};

struct SpanEvent {
  std::string name;
  double ts_us = 0;
  double dur_us = 0;
};

/// The "X" events of a chrome_trace_json() export, one per line.
std::vector<SpanEvent> parse_spans(const std::string& json) {
  std::vector<SpanEvent> spans;
  std::size_t pos = 0;
  while ((pos = json.find("{\"name\": ", pos)) != std::string::npos) {
    char name[32] = {};
    SpanEvent event;
    if (std::sscanf(json.c_str() + pos,
                    "{\"name\": \"%31[^\"]\", \"cat\": \"pandora\", \"ph\": \"X\", "
                    "\"ts\": %lf, \"dur\": %lf",
                    name, &event.ts_us, &event.dur_us) == 3) {
      event.name = name;
      spans.push_back(event);
    }
    ++pos;
  }
  return spans;
}

std::uint64_t phase_count(const char* phase) {
  const obs::Histogram* h = obs::registry().find_histogram(
      std::string("pandora_phase_seconds{phase=\"") + phase + "\"}");
  return h == nullptr ? 0 : h->count();
}

TEST(Observability, TracedHdbscanNestsEveryPhaseUnderTheQuerySpan) {
  const spatial::PointSet points = data::uniform_points(3000, 2, 21);
  const exec::Executor executor(exec::serial_backend());  // one thread, one ring
  obs::TraceRecorder recorder;
  {
    const exec::ScopedTrace trace(executor, &recorder);
    const exec::ScopedSpan query(executor, "query");
    (void)hdbscan::hdbscan(executor, points, {});
  }
  ASSERT_EQ(recorder.events_dropped(), 0u);
  const std::vector<SpanEvent> spans = parse_spans(recorder.chrome_trace_json());
  const auto query = std::find_if(spans.begin(), spans.end(),
                                  [](const SpanEvent& e) { return e.name == "query"; });
  ASSERT_NE(query, spans.end());
  constexpr double kSlackUs = 1e-3;  // the export's %.3f rounding
  for (const char* phase : kHdbscanPhases) {
    const auto it = std::find_if(spans.begin(), spans.end(),
                                 [&](const SpanEvent& e) { return e.name == phase; });
    ASSERT_NE(it, spans.end()) << "no span for phase " << phase;
    EXPECT_GE(it->ts_us, query->ts_us - kSlackUs) << phase;
    EXPECT_LE(it->ts_us + it->dur_us, query->ts_us + query->dur_us + kSlackUs) << phase;
  }
}

TEST(Observability, PhaseHistogramsCountEveryHdbscanPhase) {
  const spatial::PointSet points = data::uniform_points(3000, 2, 22);
  const exec::Executor executor(exec::serial_backend());
  std::array<std::uint64_t, kHdbscanPhases.size()> before{};
  for (std::size_t i = 0; i < kHdbscanPhases.size(); ++i)
    before[i] = phase_count(kHdbscanPhases[i]);
  (void)hdbscan::hdbscan(executor, points, {});  // no recorder, no caller sink
  for (std::size_t i = 0; i < kHdbscanPhases.size(); ++i)
    EXPECT_GT(phase_count(kHdbscanPhases[i]), before[i]) << kHdbscanPhases[i];
}

}  // namespace
