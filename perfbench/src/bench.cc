#include "bench.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace perfbench {

namespace {

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string MetricsObject(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += JsonString(metrics[i].name) + ": {\"value\": " +
           JsonNumber(metrics[i].value) +
           ", \"unit\": " + JsonString(metrics[i].unit) + "}";
  }
  return out + "}";
}

}  // namespace

uint64_t WorldSeed(const RunOptions& options) {
  uint64_t h = options.seed * 0x9e3779b97f4a7c15ULL;
  for (char c : options.workload) {
    h = (h ^ static_cast<uint8_t>(c)) * 0x100000001b3ULL;
  }
  return h;
}

void Outcome::Check(bool ok, const std::string& what) {
  if (ok) return;
  correct = false;
  errors.push_back(what);
  std::fprintf(stderr, "perfbench: check failed: %s\n", what.c_str());
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const size_t i = static_cast<size_t>(std::max(1.0, rank)) - 1;
  return v[std::min(i, v.size() - 1)];
}

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) / 1e6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kb = 0.0;
      fields >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

std::string CpuModel() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) {
        size_t begin = line.find_first_not_of(' ', colon + 1);
        return begin == std::string::npos ? "" : line.substr(begin);
      }
    }
  }
  return "unknown";
}

void PrintOutcome(const RunOptions& options, const Outcome& outcome) {
  // Human-readable lines first (stdout, before the two JSON lines).
  for (const Metric& m : outcome.metrics) {
    std::printf("%-34s %14.4f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  for (const Metric& m : outcome.details) {
    std::printf("  %-32s %14.4f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }

  std::string threads = "{";
  for (const auto& [component, count] : outcome.threads) {
    if (threads.size() > 1) threads += ", ";
    threads += JsonString(component) + ": " + std::to_string(count);
  }
  threads += "}";
  std::string sizes = "{";
  for (const auto& [key, value] : outcome.sizes) {
    if (sizes.size() > 1) sizes += ", ";
    sizes += JsonString(key) + ": " + std::to_string(value);
  }
  sizes += "}";
  std::string errors = "[";
  for (size_t i = 0; i < outcome.errors.size(); ++i) {
    if (i > 0) errors += ", ";
    errors += JsonString(outcome.errors[i]);
  }
  errors += "]";

  // The record line: host class, build, thread counts and details. The
  // compare step (perfbench/compare.py) refuses to compare records whose
  // host class differs.
  std::printf(
      "PERFBENCH_RECORD {\"workload\": %s, \"seed\": %llu, \"seconds\": %s, "
      "\"trace\": %d, \"host\": {\"nproc\": %d, \"cpu_model\": %s, "
      "\"build_type\": %s}, \"threads\": %s, \"sizes\": %s, "
      "\"details\": %s, \"errors\": %s}\n",
      JsonString(options.workload).c_str(),
      static_cast<unsigned long long>(options.seed),
      JsonNumber(options.seconds).c_str(), options.trace ? 1 : 0,
      options.nproc, JsonString(CpuModel()).c_str(),
      JsonString(PERFBENCH_BUILD_TYPE).c_str(), threads.c_str(),
      sizes.c_str(), MetricsObject(outcome.details).c_str(), errors.c_str());

  std::printf(
      "{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
      "\"metrics\": %s}\n",
      outcome.correct ? "true" : "false",
      static_cast<long long>(outcome.attempted),
      static_cast<long long>(outcome.failed),
      MetricsObject(outcome.metrics).c_str());
  std::fflush(stdout);
}

}  // namespace perfbench
