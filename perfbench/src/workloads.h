// The named workloads. Each one runs the whole program on one seeded world:
// set-up (generate, load, base fit, snapshot, server start), then rounds of
// three blocks — back-to-back fits, socket reads, and one live-ingested
// delta batch beside socket reads — so every workload reports every
// metric. The workloads differ in the world's size, which moves where the
// time goes in each layer.
//
// The blocks of each kind are spread over the whole window, not run as one
// stretch. On a shared cloud host the memory bandwidth left by other guests
// swung by a third over periods of 5-20 s (perfbench/README.md), and a
// metric whose samples come from one such period reads that period, not
// the program.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "core/model.h"
#include "loadgen.h"
#include "obs/request_trace.h"
#include "served.h"
#include "stream/live_ingest.h"

namespace perfbench {

/// What differs between workloads.
struct WorkloadSpec {
  std::string name;
  int users = 800;
  int setup_reps = 3;           // set-up repeats; setup_s is their median
  double acc_floor_pct = 70.0;  // ACC@100mi output check
  double batch_period_s = 1.0;  // ingest block: one batch renamed per block
};

/// The spec of workload `name`, or nullptr when there is none.
const WorkloadSpec* FindWorkload(const std::string& name);

/// Runs workload `spec`: set-up, then the rounds, then the checks.
Outcome RunWorkload(const RunOptions& options, const WorkloadSpec& spec);

/// Socket queries a phase sent, and how many were answered 2xx in time.
struct QueryTally {
  int64_t attempted = 0;
  int64_t ok = 0;
};

/// Connections of the load generator, shared by the read and ingest
/// blocks: `queries` carry the open-loop load; `aux` is the mostly-idle
/// keep-alive client during reads (GET /healthz each second, and the
/// /metricsz and /statsz scrapes of a traced run) and the visibility
/// poller during ingest.
struct Clients {
  std::vector<std::unique_ptr<HttpConn>> queries;
  HttpConn aux;
};

/// MlpModel::Fit of the world at nproc threads, back to back.
class FitPhase {
 public:
  FitPhase(const RunOptions& options, const WorkloadSpec& spec,
           const World& world, Outcome* out);
  /// Fits for `seconds` (at least one fit). Traced, odd rounds instead
  /// drive ParallelGibbsEngine sweep by sweep through the public calls
  /// bench_parallel_scaling makes.
  void RunBlock(int round, double seconds);
  /// Output checks and metrics.
  void Finish();

 private:
  void FitOnce();
  void DriveEngine();

  const RunOptions& options_;
  const WorkloadSpec& spec_;
  const World& world_;
  Outcome& out_;
  mlp::core::MlpConfig config_;
  double relationships_ = 0.0;
  std::vector<double> fit_s_, rel_per_s_, mh_ratio_, active_fraction_;
  std::vector<mlp::geo::CityId> first_homes_;
  // Traced engine drives.
  std::vector<double> setup_ms_, sweep_ms_, unattributed_pct_,
      busy_max_over_mean_;
  std::map<std::string, std::vector<double>> phase_ms_;
};

/// Open-loop Zipf-skewed point and batch queries at a fixed base rate.
class ReadPhase {
 public:
  ReadPhase(const RunOptions& options, Served& served, Clients& clients,
            Outcome* out);
  void RunBlock(int round, double seconds);
  /// Traced: the rate ladder and the in-process timings. Then the output
  /// checks and metrics.
  QueryTally Finish();

  /// Request counts and stage and cache counters scraped from the server.
  struct Scrape {
    double requests = 0.0;
    double stage_ns[mlp::obs::kNumRequestStages] = {};
    double cache_hits = 0.0;
    double cache_misses = 0.0;
  };

 private:
  const RunOptions& options_;
  Served& served_;
  Clients& clients_;
  Outcome& out_;
  uint64_t stream_seed_ = 0;
  RequestMaker make_;
  int64_t idle_failed_ = 0;
  PhaseStats stats_;
  std::vector<double> block_cpu_us_;  // process CPU time per request
  Scrape scraped_;                    // summed over the blocks, traced
};

/// stream::LiveIngestor applies one delta batch per block, renamed into
/// its spool while uniform-key queries run. Takes the served model's
/// fitted state, so the read blocks that follow serve the new generation.
class IngestPhase {
 public:
  IngestPhase(const RunOptions& options, const WorkloadSpec& spec,
              Served& served, Clients& clients, int batches, Outcome* out);
  // A block's poller thread holds this object's address.
  IngestPhase(const IngestPhase&) = delete;
  IngestPhase& operator=(const IngestPhase&) = delete;
  /// Stages every batch under a temporary name and starts the ingestor.
  mlp::Status Start();
  /// Batch `round`: renamed into the spool shortly after the block starts;
  /// the poller times it until a socket query returns one of its users.
  void RunBlock(int round, double seconds);
  /// Output checks (every user served, no quarantine, live == offline
  /// replay) and metrics; traced, the replay times each stage.
  QueryTally Finish();

 private:
  const RunOptions& options_;
  const WorkloadSpec& spec_;
  Served& served_;
  Clients& clients_;
  Outcome& out_;
  int batches_ = 0;
  std::string spool_;
  uint64_t stream_seed_ = 0;
  RequestMaker make_;
  std::unique_ptr<mlp::stream::LiveIngestor> ingestor_;
  mlp::core::ModelInput base_input_;
  std::shared_ptr<const mlp::serve::ReadModel> base_model_;
  PhaseStats stats_;
  std::vector<double> visible_ms_;  // per batch; -1 = never visible
  std::vector<std::string> errors_;
  double cache_hits_ = 0.0;
  double cache_lookups_ = 0.0;
};

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
