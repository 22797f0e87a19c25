// Measurement plumbing shared by every workload: raw-sample percentiles,
// the result record behind the last output line, and the environment stamp.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Steady-clock time in nanoseconds (a common timeline for every thread).
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Raw samples of one quantity. Percentiles are nearest-rank order
/// statistics of the recorded values, never interpolated from buckets.
class Samples {
 public:
  void Add(double v) { values_.push_back(v); }
  size_t size() const { return values_.size(); }
  double Sum() const;
  /// Nearest-rank percentile, p in (0, 100]; 0 when empty.
  double Percentile(double p) const;
  /// The samples cut into `n` consecutive runs of near-equal length, in the
  /// order they were added.
  std::vector<Samples> Split(int n) const;
  /// "timing <name>: n=.. p50=.. (k above) p<tail>=.. (k above)": the sample
  /// count, and how many samples lie above each reported percentile.
  std::string Summary(const std::string& name, const std::string& unit,
                      double tail_p) const;

 private:
  int64_t CountAbove(double v) const;

  std::vector<double> values_;
};

/// The median of per-window values (the mean of the middle two for an even
/// count). Serving computes every timed end-to-end statistic on consecutive
/// windows of the run and reports this median, so host contention that
/// covers fewer than half of the windows does not move it.
double MedianOfWindows(std::vector<double> per_window);

/// The per-window value a quarter of the way in from the better end (the
/// nearest rank): of step times the 25th percentile, of rates the 75th.
/// Training reports it because all its windows do the same work, so a code
/// change moves every window alike, while a neighbour on the shared host
/// slows only the windows it overlaps.
double BetterQuartile(std::vector<double> per_window, bool higher_is_better);

/// "windows <name>: v1 v2 ...": the per-window values behind a median.
std::string WindowSummary(const std::string& name,
                          const std::vector<double>& per_window);

/// Mean binary cross-entropy of logits against {0,1} labels, in nats.
double MeanLogloss(const std::vector<float>& logits,
                   const std::vector<float>& labels);

/// The outcome of one run, printed as the last output line.
class Result {
 public:
  int64_t attempted = 0;
  int64_t failed = 0;

  void Metric(const std::string& name, double value, const std::string& unit);
  /// Records a failed output check: the run then reports correct=false and
  /// prints no numbers.
  void Fail(const std::string& why);
  /// A line printed ahead of the result when every check passed.
  void Note(const std::string& line);
  bool correct() const { return problems_.empty(); }

  /// Prints the notes (or, on stderr, the failed checks), then the result
  /// as one JSON line.
  void Print() const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> metrics_;
  std::vector<std::string> notes_;
  std::vector<std::string> problems_;
};

/// Where and how the numbers were produced.
struct EnvStamp {
  std::string cpu_model;
  std::string simd_detected;
  std::string simd_active;
  std::string build_type;
  std::string commit;
  int nproc = 0;
  int pool_threads = 0;
  /// The CPU the workload ran on (PinToOneCpu), -1 when unpinned.
  int pinned_cpu = -1;
  /// Measured, not nproc: N copies of a fixed CPU-bound loop run
  /// concurrently, N x (time of one) / (time of all).
  double effective_parallelism = 0.0;
  double gemm_gflops = 0.0;
  bool debug_or_sanitized = false;
};

/// Runs the parallelism and GEMM probes (about half a second).
EnvStamp MeasureEnv(const std::string& commit);

/// Confines the calling thread, and every thread it starts afterwards, to
/// the highest-numbered CPU it may use (CPU 0 takes most interrupts). A
/// shared host can flip between about one and four effective CPUs for
/// minutes at a time; on one CPU every workload sees the same machine in
/// both states. Returns the CPU, or -1 if the affinity could not be set.
int PinToOneCpu();

/// Prints "env {...}", plus a warning on debug or sanitizer builds.
void PrintEnv(const EnvStamp& env);

/// The process's peak resident set size (VmHWM), in MiB.
double PeakRssMiB();

}  // namespace perfbench
