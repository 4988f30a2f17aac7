#pragma once

#include <string>
#include <vector>

namespace perfbench {

/// One reported number: the name and unit BENCHMARK.json declares.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one benchmark process reports: the operations it attempted, how
/// many failed (threw, ended not-done, or failed the correctness gate),
/// and its metrics. `notes` are human-readable lines printed before the
/// result object (calibration, unmeasurable layers, references).
struct Outcome {
  long attempted = 0;
  long failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> notes;

  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void note(const std::string& line) { notes.push_back(line); }
  /// A note listing a run's samples in order, e.g. "set-ups (ms): 6.1 7.0".
  void note_samples(const std::string& label, const std::vector<double>& values,
                    double scale = 1.0);
};

/// The command-line arguments every workload receives.
struct Args {
  std::string workload;
  unsigned long long seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Correctness references recorded from the seed commit.
  std::string reference = "perfbench/reference.json";
  /// Scratch directory for the serve workload's socket and the trace.
  std::string workdir = ".bench_build/perfbench";
};

/// Seconds on the steady clock since the first call in this process.
[[nodiscard]] double now_s();

/// Median / linear-interpolation quantile (q in [0, 1]) of a sample;
/// 0 for an empty sample.
[[nodiscard]] double median(std::vector<double> values);
[[nodiscard]] double quantile(std::vector<double> values, double q);

/// High-water resident set of this process in MiB (getrusage maxrss).
[[nodiscard]] double peak_rss_mib();

/// Deterministic 64-bit mix of the workload seed with a stream label, so
/// every random choice is a pure function of (seed, label, index).
[[nodiscard]] unsigned long long mix_seed(unsigned long long seed,
                                          const std::string& label,
                                          unsigned long long index = 0);

}  // namespace perfbench
