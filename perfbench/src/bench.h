// Shared plumbing of the perfbench binary: run options, the result record
// every workload fills, timing and summary statistics.
#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Command-line options of one run (see main.cc).
struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;  // scratch space for generated inputs
  int nproc = 1;         // std::thread::hardware_concurrency()
};

/// World seed of a run: fixed by --seed, distinct per workload.
uint64_t WorldSeed(const RunOptions& options);

/// One reported number. `name` is the BENCHMARK.json metric name.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Everything one run reports. `metrics` is what the final stdout line
/// carries (end-to-end metrics untraced, per-layer metrics traced);
/// `details` go only into the record line (sample counts, maxima, the
/// end-to-end numbers a traced run measured for the overhead comparison).
struct Outcome {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<Metric> details;
  std::map<std::string, int> threads;  // component -> thread count
  std::map<std::string, int64_t> sizes;
  std::vector<std::string> errors;

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void Detail(const std::string& name, double value,
              const std::string& unit) {
    details.push_back({name, value, unit});
  }
  /// Records a failed output check; any failed check fails the run.
  void Check(bool ok, const std::string& what);
};

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}
inline double SecondsSince(int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) / 1e9;
}

/// Median of `v` (mean of the middle pair for even sizes); 0 when empty.
double Median(std::vector<double> v);
/// Nearest-rank percentile, q in [0, 1]; 0 when empty.
double Percentile(std::vector<double> v, double q);
/// Peak resident set (VmHWM) of this process in MB.
double PeakRssMb();
/// User + system CPU time this process has used, in seconds.
double ProcessCpuSeconds();
/// First "model name" line of /proc/cpuinfo.
std::string CpuModel();

/// Writes `outcome` as the record line and the final result line.
void PrintOutcome(const RunOptions& options, const Outcome& outcome);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
