// perfbench: the repository's end-to-end benchmark binary.
//
//   perfbench --workload <small|large> --seed <n> --seconds <s>
//             --trace <0|1> --work_dir <dir>
//
// Generates the workload's inputs from the seed under --work_dir, runs it,
// checks the outputs and prints the metrics; the last stdout line is the
// result object. Exit code 1 when any output check failed, 2 on bad usage.
// perfbench/run.py builds this binary and is the command to run.
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>

#include "bench.h"
#include "common/logging.h"
#include "workloads.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <small|large> --seed <n> "
               "--seconds <s> --trace <0|1> --work_dir <dir>\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      options.workload = value;
    } else if (key == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      options.seconds = std::atof(value.c_str());
    } else if (key == "--trace") {
      options.trace = value == "1";
    } else if (key == "--work_dir") {
      options.work_dir = value;
    } else {
      return Usage();
    }
  }
  if (options.workload.empty() || options.work_dir.empty() ||
      options.seconds <= 0) {
    return Usage();
  }
  options.nproc =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  mlp::SetLogLevel(mlp::LogLevel::kWarning);
  std::filesystem::create_directories(options.work_dir);

  const perfbench::WorkloadSpec* spec =
      perfbench::FindWorkload(options.workload);
  if (spec == nullptr) return Usage();
  const perfbench::Outcome outcome = perfbench::RunWorkload(options, *spec);
  perfbench::PrintOutcome(options, outcome);
  return outcome.correct ? 0 : 1;
}
