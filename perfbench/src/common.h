// Shared pieces of the perfbench harness: run options, timing, sample
// statistics, the result sink and the Prometheus-text reader used to take
// deltas of the program's own instruments.
#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Command-line configuration of one run.
struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  /// Nominal run length. It sizes the run's fixed op count (see
  /// OpsPerSegment); the run itself is never cut by the clock.
  int seconds = 10;
  bool trace = false;
  /// Scratch directory for the generated inputs, WAL directories and the
  /// traced run's artifacts.
  std::string dir;
};

/// Segments per run: each starts the system cold from the input files and
/// then does a fixed number of ops.
inline constexpr int kSegments = 6;
/// Cold set-ups per segment; the last one serves the segment's ops, the
/// others are torn down at once. A single cold set-up varies by 15-30% from
/// run to run, so setup_s is the median of kSegments * kSetupsPerSegment.
inline constexpr int kSetupsPerSegment = 3;

/// Fixed ops per segment: `ops_per_second` is the workload's nominal rate on
/// the reference host, fixed in the source so the work never depends on how
/// fast this host happens to be.
int OpsPerSegment(const RunOptions& opt, double ops_per_second);

using Clock = std::chrono::steady_clock;

inline double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Median (mean of the two middle values for an even count); 0 when empty.
double Median(std::vector<double> v);

/// Nearest-rank percentile, p in [0, 100]; 0 when empty.
double Percentile(std::vector<double> v, double p);

/// The tail percentile of every latency; a run must have at least 10
/// samples beyond it (TailOf fails otherwise). On the shared reference host
/// the 11th-largest sample, which sits on the host's rarest stalls, spread
/// 24-52% of its median over 10 runs of the same code; p90 spread 12-19%.
inline constexpr double kTailPercentile = 90.0;
struct Tail {
  double value = 0.0;
  double percentile = 0.0;
  size_t samples = 0;
};
Tail TailOf(std::vector<double> v);

/// Peak resident set size of this process, in MB.
double PeakRssMb();

/// Thrown by every failed correctness check; main() turns it into a
/// non-zero exit without printing a result.
struct CheckFailure {
  std::string what;
};
[[noreturn]] void Fail(const std::string& what);

/// Ordered metric sink: name -> (value, unit), printed as the result's
/// "metrics" object.
class Metrics {
 public:
  void Set(const std::string& name, double value, const std::string& unit) {
    values_[name] = {value, unit};
  }
  std::string Json() const;

 private:
  std::map<std::string, std::pair<double, std::string>> values_;
};

/// Sets every per-layer metric to 0 with its unit. A traced run reports all
/// of them on every workload; a layer a workload does not drive reads 0.
void SetLayerDefaults(Metrics* m);

/// Everything one run hands back to main(): the metric set plus the
/// attempted / failed op counts and informational fields (sample counts,
/// tail percentiles) printed on a line of their own.
struct RunResult {
  Metrics metrics;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<std::string, double> info;
};

/// Sample values of a Prometheus text exposition keyed by
/// `name{labels}` exactly as printed (histograms contribute their _sum and
/// _count lines like any other sample).
using Exposition = std::map<std::string, double>;
Exposition ParseExposition(const std::string& text);

/// Adds after - before, key by key, into *acc: the program's instruments
/// summed over the measured phases only (the process-wide registry also
/// counts the harness's own untimed work).
void AddDelta(const Exposition& before, const Exposition& after,
              Exposition* acc);

/// One sample of an accumulated delta (0 when absent).
double Value(const Exposition& delta, const std::string& key);
/// Mean of a histogram's observations over an accumulated delta (0 when
/// nothing was observed).
double HistogramMean(const Exposition& delta, const std::string& name);

/// The matcher, plan-compile and pool metrics from an accumulated delta of
/// the program's instruments; counts are per request (op or read).
void SetMatchAndPoolMetrics(const Exposition& delta, double requests,
                            Metrics* m);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
