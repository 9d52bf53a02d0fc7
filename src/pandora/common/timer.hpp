#pragma once

#include <chrono>
#include <map>
#include <string>

namespace pandora {

/// Monotonic wall-clock stopwatch used by the benchmark harness and the
/// phase guard (exec::ScopedPhase).
class Timer {
 public:
  Timer() : start_(clock::now()) {}

  /// Restart the stopwatch.
  void reset() { start_ = clock::now(); }

  /// Seconds elapsed since construction or the last reset().
  [[nodiscard]] double seconds() const {
    return std::chrono::duration<double>(clock::now() - start_).count();
  }

 private:
  using clock = std::chrono::steady_clock;
  clock::time_point start_;
};

/// Accumulates named phase timings (sort, contraction, expansion, ...).
/// The paper reports per-phase breakdowns in Figures 12 and 13; install one
/// on an Executor (`set_phase_times`) and every exec::ScopedPhase adds to it.
class PhaseTimes {
 public:
  void add(const std::string& phase, double seconds) { slot(phase) += seconds; }

  /// The running total of `phase`, created at 0 on first use.  The reference
  /// stays valid for the PhaseTimes' lifetime (std::map nodes never move).
  [[nodiscard]] double& slot(const std::string& phase) { return seconds_[phase]; }

  [[nodiscard]] double get(const std::string& phase) const {
    auto it = seconds_.find(phase);
    return it == seconds_.end() ? 0.0 : it->second;
  }

  [[nodiscard]] double total() const {
    double t = 0;
    for (const auto& [_, s] : seconds_) t += s;
    return t;
  }

  [[nodiscard]] const std::map<std::string, double>& all() const { return seconds_; }

 private:
  std::map<std::string, double> seconds_;
};

}  // namespace pandora
