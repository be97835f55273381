// mlpctl — command-line front end for the library.
//
//   mlpctl generate --users 4000 --seed 42 --out DIR
//       Generate a synthetic Twitter world and save it (with ground truth)
//       as CSV under DIR.
//   mlpctl genworld --users N --out DIR [--stream] [--chunk N]
//                   [--avg_friends F] [--avg_venues F]
//       The scale-test generator: same world model with the degree knobs
//       exposed, and --stream writes the dataset CSVs incrementally
//       (O(chunk) memory) so million-user worlds generate without ever
//       materializing the full graph.
//   mlpctl pack --data DIR --load MODEL.snap [--top_k T]
//       Append the mmap-able serve section (pre-rendered responses +
//       offset tables) to a fitted snapshot, enabling serve --mmap.
//   mlpctl stats --data DIR
//       Print dataset statistics for a saved world.
//   mlpctl eval --data DIR [--folds 5] [--method MLP] [--warm]
//       K-fold home-prediction evaluation of one method (BaseU, BaseC,
//       MLP_U, MLP_C, MLP, or MLP_WS with --warm) or of the full Table-2
//       lineup (--method all).
//   mlpctl eval --data DIR --load MODEL.snap
//       Serving-style evaluation of an already-fitted model snapshot: no
//       refit, scores the stored home estimates against the dataset.
//   mlpctl fit --data DIR --save MODEL.snap [--max-sweeps K]
//              [--prune_floor F] [--prune_patience K] [--no_prune]
//              [--profile] [--trace FILE]
//       Fit MLP on the full dataset (every registered home observed) and
//       persist the model — sufficient statistics, chain state, RNG
//       streams, candidate activation and result — as a versioned
//       snapshot. With --max-sweeps the fit checkpoints early and the
//       snapshot is resumable. --prune_floor enables adaptive sweep-time
//       candidate pruning (see src/core/README.md). --profile prints an
//       end-of-fit per-phase wall-clock table (replica refresh / shard
//       kernel / barrier wait / delta merge / ...); --trace FILE writes
//       every recorded span as Chrome trace_event JSON, viewable in
//       chrome://tracing or Perfetto (see src/obs/README.md).
//   mlpctl resume --data DIR --load MODEL.snap [--save MODEL2.snap]
//       Continue an interrupted fit from a snapshot to completion. The
//       combined fit+resume reproduces an uninterrupted fit exactly.
//       --prune_floor / --prune_patience / --no_prune override the stored
//       pruning policy (and only that) for the remaining sweeps, so
//       warm-started and pruned fits compose.
//   mlpctl ingest --data DIR --load MODEL.snap --delta DIR2 --save M2.snap
//                 [--resample-burn N] [--resample-sampling N]
//       Streaming delta ingest (src/stream/): absorb a batch of new
//       users/relationships/tweets (CSV files under DIR2, same formats as
//       a saved dataset) into a fitted snapshot WITHOUT a full refit —
//       candidate rows are migrated, only the delta-touched shards are
//       resampled from the warm chain state, and the updated model (bound
//       to the merged world, also written as merged CSVs under
//       --save-data when given) is saved as an ordinary v2 snapshot.
//   mlpctl serve --data DIR --load MODEL.snap [--port N] [--threads K]
//                [--top_k T] [--selfcheck]
//                [--spool DIR [--spool_poll_ms N]
//                 [--checkpoint_every K] [--save MODEL2.snap]]
//                — or, out-of-core over a packed snapshot:
//   mlpctl serve --load MODEL.snap --mmap [--port N] [--threads K]
//                [--selfcheck]
//       Online query server over a fitted snapshot (src/serve/): GET
//       /v1/user/{id}, GET /v1/edge/{src}/{dst}, POST /v1/batch, /healthz,
//       /statsz, /metricsz (Prometheus text). SIGINT/SIGTERM shut down
//       gracefully (drain in-flight requests). --selfcheck starts on an
//       ephemeral port, round-trips a query set against the snapshot
//       through a real socket client, and exits — the curl-free CI smoke.
//       --spool attaches the live ingest daemon (stream::LiveIngestor):
//       delta batches renamed into DIR as batch-* are applied in-process
//       and atomically swapped into serving; SIGTERM drains the in-flight
//       batch and (with --save) checkpoints the absorbed model. See
//       src/stream/README.md for the spool protocol.
//   mlpctl probe --port N [--host H] [--target /path] [--count K]
//                [--interval_ms M] [--out FILE]
//       Minimal HTTP client over the server's own socket code: fetch
//       TARGET COUNT times, exit 1 on any non-2xx, write the last body to
//       --out. The curl-free CI query hammer / endpoint scraper.
//
// Global flags: --log_level debug|info|warn|error (also honors the
// MLP_LOG_LEVEL environment variable; the flag wins).
//
// Exit codes: 0 success, 1 runtime failure, 2 unknown/missing subcommand,
// 3 missing or invalid required flag (per-subcommand usage printed).

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.h"
#include "common/string_util.h"
#include "core/model.h"
#include "obs/fit_profile.h"
#include "obs/metrics.h"
#include "obs/process_stats.h"
#include "obs/trace.h"
#include "eval/cross_validation.h"
#include "eval/methods.h"
#include "eval/metrics.h"
#include "graph/graph_stats.h"
#include "io/dataset_io.h"
#include "io/model_snapshot.h"
#include "io/table_printer.h"
#include "serve/http_server.h"
#include "stream/delta_batch.h"
#include "stream/delta_ingest.h"
#include "stream/live_ingest.h"
#include "serve/json.h"
#include "serve/model_server.h"
#include "serve/read_model.h"
#include "synth/world_generator.h"
#include "text/venue_vocab.h"

namespace {

using namespace mlp;

// Exit codes — distinct so scripts (and the cli_usage ctest) can tell a
// typo'd subcommand from a missing flag from a genuine runtime failure.
constexpr int kExitOk = 0;
constexpr int kExitRuntime = 1;
constexpr int kExitUnknownCommand = 2;
constexpr int kExitUsage = 3;

// Parses "--key value", "--key=value" and bare boolean "--key" flags. A
// token starting with "--" is never consumed as a value, and "=" binds a
// value to its own flag explicitly, so a boolean flag directly followed by
// another "--" flag can no longer steal or shift the next flag's value.
std::map<std::string, std::string> ParseFlags(int argc, char** argv,
                                              int first) {
  std::map<std::string, std::string> flags;
  for (int i = first; i < argc; ++i) {
    if (std::strncmp(argv[i], "--", 2) != 0) continue;
    std::string token = argv[i] + 2;
    std::string::size_type eq = token.find('=');
    if (eq != std::string::npos) {
      flags[token.substr(0, eq)] = token.substr(eq + 1);
      continue;
    }
    std::string value = "1";
    if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0) {
      value = argv[++i];
    }
    flags[token] = value;
  }
  return flags;
}

std::string FlagOr(const std::map<std::string, std::string>& flags,
                   const std::string& key, const std::string& fallback) {
  auto it = flags.find(key);
  return it == flags.end() ? fallback : it->second;
}

// Validated numeric flag access. Every numeric flag goes through one of
// these; a value that is not fully numeric ("--port x", "--users 10k",
// "--prune_floor 0.1.2") is a usage error — exit code 3 with the
// subcommand's usage line — instead of atoi's silent zero. The first bad
// flag is reported; callers check ok() once after reading all flags.
class NumericFlags {
 public:
  NumericFlags(const std::map<std::string, std::string>& flags,
               std::string command)
      : flags_(flags), command_(std::move(command)) {}

  int Int(const std::string& key, int fallback) {
    return static_cast<int>(Integer(key, fallback));
  }

  long long Integer(const std::string& key, long long fallback) {
    auto it = flags_.find(key);
    if (it == flags_.end()) return fallback;
    errno = 0;
    char* end = nullptr;
    long long v = std::strtoll(it->second.c_str(), &end, 10);
    if (it->second.empty() || errno != 0 ||
        end != it->second.c_str() + it->second.size()) {
      return Fail(key, it->second), fallback;
    }
    return v;
  }

  uint64_t U64(const std::string& key, uint64_t fallback) {
    auto it = flags_.find(key);
    if (it == flags_.end()) return fallback;
    errno = 0;
    char* end = nullptr;
    unsigned long long v = std::strtoull(it->second.c_str(), &end, 10);
    if (it->second.empty() || errno != 0 ||
        end != it->second.c_str() + it->second.size() ||
        it->second[0] == '-') {
      return Fail(key, it->second), fallback;
    }
    return v;
  }

  double Double(const std::string& key, double fallback) {
    auto it = flags_.find(key);
    if (it == flags_.end()) return fallback;
    errno = 0;
    char* end = nullptr;
    double v = std::strtod(it->second.c_str(), &end);
    if (it->second.empty() || errno != 0 ||
        end != it->second.c_str() + it->second.size()) {
      return Fail(key, it->second), fallback;
    }
    return v;
  }

  bool ok() const { return ok_; }

 private:
  void Fail(const std::string& key, const std::string& value) {
    if (ok_) {
      std::fprintf(stderr, "mlpctl %s: invalid value '%s' for --%s\n",
                   command_.c_str(), value.c_str(), key.c_str());
    }
    ok_ = false;
  }

  const std::map<std::string, std::string>& flags_;
  const std::string command_;
  bool ok_ = true;
};

// Per-subcommand usage lines, printed alone on a flag error for that
// subcommand and concatenated for the global usage message.
const std::map<std::string, std::string>& UsageTexts() {
  static const std::map<std::string, std::string> kUsage = {
      {"generate", "  mlpctl generate --users N [--seed S] --out DIR\n"},
      {"genworld",
       "  mlpctl genworld --users N --out DIR [--seed S] [--stream]\n"
       "             [--chunk N] [--avg_friends F] [--avg_venues F]\n"},
      {"pack",
       "  mlpctl pack --data DIR --load MODEL.snap [--top_k T]\n"},
      {"stats", "  mlpctl stats --data DIR\n"},
      {"eval",
       "  mlpctl eval --data DIR [--folds K] [--method NAME|all]\n"
       "              [--threads N] [--warm] [--prune]\n"
       "              [--prune_floor F] [--prune_patience K]\n"
       "  mlpctl eval --data DIR --load MODEL.snap\n"},
      {"fit",
       "  mlpctl fit --data DIR --save MODEL.snap [--burn N]\n"
       "             [--sampling N] [--threads N] [--seed S]\n"
       "             [--em-rounds R] [--max-sweeps K]\n"
       "             [--mem_budget_mb M]\n"
       "             [--prune_floor F] [--prune_patience K]\n"
       "             [--no_prune] [--profile] [--trace FILE]\n"},
      {"resume",
       "  mlpctl resume --data DIR --load MODEL.snap\n"
       "             [--save MODEL2.snap] [--max-sweeps K]\n"
       "             [--prune_floor F] [--prune_patience K]\n"
       "             [--no_prune] [--profile] [--trace FILE]\n"},
      {"ingest",
       "  mlpctl ingest --data DIR --load MODEL.snap --delta DIR2\n"
       "             --save MODEL2.snap [--save-data DIR3]\n"
       "             [--resample-burn N] [--resample-sampling N]\n"},
      {"serve",
       "  mlpctl serve --data DIR --load MODEL.snap [--port N]\n"
       "             [--threads K] [--top_k T]\n"
       "             [--access_log[=FILE]] [--slow_request_us N]\n"
       "             [--selfcheck]\n"
       "             [--spool DIR [--spool_poll_ms N]\n"
       "              [--checkpoint_every K] [--save MODEL2.snap]]\n"
       "  mlpctl serve --load MODEL.snap --mmap [--port N]\n"
       "             [--threads K] [--selfcheck]\n"
       "             [--access_log[=FILE]] [--slow_request_us N]\n"},
      {"probe",
       "  mlpctl probe --port N [--host H] [--target /path]\n"
       "             [--count K] [--interval_ms M] [--out FILE]\n"},
  };
  return kUsage;
}

int Usage() {
  std::string out = "usage:\n";
  for (const auto& [command, text] : UsageTexts()) {
    (void)command;
    out += text;
  }
  std::fputs(out.c_str(), stderr);
  return kExitUnknownCommand;
}

// Flag error within a known subcommand: print just that subcommand's
// usage and return the usage exit code (distinct from unknown-command).
int UsageFor(const std::string& command) {
  auto it = UsageTexts().find(command);
  if (it == UsageTexts().end()) return Usage();
  std::fprintf(stderr, "usage:\n%s", it->second.c_str());
  return kExitUsage;
}

int CmdGenerate(const std::map<std::string, std::string>& flags) {
  std::string out = FlagOr(flags, "out", "");
  if (out.empty()) return UsageFor("generate");
  NumericFlags numeric(flags, "generate");
  synth::WorldConfig config;
  config.num_users = numeric.Int("users", 4000);
  config.seed = numeric.U64("seed", 42);
  if (!numeric.ok()) return UsageFor("generate");
  Result<synth::SyntheticWorld> world = synth::GenerateWorld(config);
  if (!world.ok()) {
    std::fprintf(stderr, "generate failed: %s\n",
                 world.status().ToString().c_str());
    return 1;
  }
  std::error_code ec;
  std::filesystem::create_directories(out, ec);
  Status saved = io::SaveDataset(out, *world->graph, &world->truth);
  if (!saved.ok()) {
    std::fprintf(stderr, "save failed: %s\n", saved.ToString().c_str());
    return 1;
  }
  std::printf("wrote %d users, %d following, %d tweeting to %s\n",
              world->graph->num_users(), world->graph->num_following(),
              world->graph->num_tweeting(), out.c_str());
  return 0;
}

// genworld — the scale-test generator. Same world model as `generate`,
// but with the degree knobs exposed and a --stream mode that emits the
// dataset CSVs shard-by-shard through synth::StreamWorldToDataset, never
// materializing the SyntheticWorld: a 1M-user world generates in O(chunk)
// memory instead of O(world).
int CmdGenWorld(const std::map<std::string, std::string>& flags) {
  std::string out = FlagOr(flags, "out", "");
  if (out.empty()) return UsageFor("genworld");
  NumericFlags numeric(flags, "genworld");
  synth::WorldConfig config;
  config.num_users = numeric.Int("users", 4000);
  config.seed = numeric.U64("seed", 42);
  config.avg_friends = numeric.Double("avg_friends", config.avg_friends);
  config.avg_tweeted_venues =
      numeric.Double("avg_venues", config.avg_tweeted_venues);
  const bool stream = FlagOr(flags, "stream", "0") != "0";
  const int chunk = numeric.Int("chunk", 65536);
  if (!numeric.ok()) return UsageFor("genworld");

  std::error_code ec;
  std::filesystem::create_directories(out, ec);
  if (!stream) {
    Result<synth::SyntheticWorld> world = synth::GenerateWorld(config);
    if (!world.ok()) {
      std::fprintf(stderr, "genworld failed: %s\n",
                   world.status().ToString().c_str());
      return kExitRuntime;
    }
    Status saved = io::SaveDataset(out, *world->graph, &world->truth);
    if (!saved.ok()) {
      std::fprintf(stderr, "save failed: %s\n", saved.ToString().c_str());
      return kExitRuntime;
    }
    std::printf("wrote %d users, %d following, %d tweeting to %s\n",
                world->graph->num_users(), world->graph->num_following(),
                world->graph->num_tweeting(), out.c_str());
    return kExitOk;
  }
  Result<synth::StreamWorldStats> stats =
      synth::StreamWorldToDataset(config, out, chunk);
  if (!stats.ok()) {
    std::fprintf(stderr, "genworld --stream failed: %s\n",
                 stats.status().ToString().c_str());
    return kExitRuntime;
  }
  std::printf(
      "streamed %lld users, %lld following, %lld tweeting "
      "(%lld labeled, %d chunks) to %s\n",
      static_cast<long long>(stats->num_users),
      static_cast<long long>(stats->num_following),
      static_cast<long long>(stats->num_tweeting),
      static_cast<long long>(stats->num_labeled), stats->chunks, out.c_str());
  return kExitOk;
}

struct LoadedWorld {
  geo::Gazetteer gazetteer = geo::Gazetteer::FromEmbedded();
  std::unique_ptr<geo::CityDistanceMatrix> distances;
  text::VenueVocabulary vocab = text::VenueVocabulary::Build(gazetteer);
  std::unique_ptr<io::LoadedDataset> data;
};

Result<LoadedWorld> LoadWorld(const std::string& dir) {
  LoadedWorld world;
  world.distances =
      std::make_unique<geo::CityDistanceMatrix>(world.gazetteer, 1.0);
  Result<io::LoadedDataset> data = io::LoadDataset(dir, world.vocab.size());
  if (!data.ok()) return data.status();
  world.data = std::make_unique<io::LoadedDataset>(std::move(*data));
  return world;
}

int CmdStats(const std::map<std::string, std::string>& flags) {
  std::string dir = FlagOr(flags, "data", "");
  if (dir.empty()) return UsageFor("stats");
  Result<LoadedWorld> world = LoadWorld(dir);
  if (!world.ok()) {
    std::fprintf(stderr, "load failed: %s\n",
                 world.status().ToString().c_str());
    return 1;
  }
  graph::GraphStats stats = graph::ComputeGraphStats(world->data->graph);
  io::TablePrinter table({"statistic", "value"});
  table.AddRow({"users", std::to_string(stats.num_users)});
  table.AddRow({"labeled users", std::to_string(stats.num_labeled)});
  table.AddRow({"following relationships",
                std::to_string(stats.num_following)});
  table.AddRow({"tweeting relationships", std::to_string(stats.num_tweeting)});
  table.AddRow({"avg friends/user",
                StringPrintf("%.1f", stats.avg_friends_per_user)});
  table.AddRow({"avg venues/user",
                StringPrintf("%.1f", stats.avg_venues_per_user)});
  auto referents = world->vocab.ReferentTable();
  table.AddRow({"neighbor location coverage",
                StringPrintf("%.2f", graph::NeighborLocationCoverage(
                                         world->data->graph, referents))});
  table.Print();
  return 0;
}

// Full-supervision ModelInput over a loaded world (every registered home
// observed) — the fit / resume / serving workflow, as opposed to the
// masked per-fold inputs of CV evaluation.
core::ModelInput FullInput(
    const LoadedWorld& world,
    const std::vector<std::vector<geo::CityId>>& referents) {
  core::ModelInput input;
  input.gazetteer = &world.gazetteer;
  input.graph = &world.data->graph;
  input.distances = world.distances.get();
  input.venue_referents = &referents;
  input.observed_home = eval::RegisteredHomes(world.data->graph);
  return input;
}

// Applies the pruning flags onto `config`. Absent flags leave the config
// untouched (fit: the MlpConfig defaults; resume: the stored policy), and
// an explicit --no_prune always wins.
void ApplyPruneFlags(const std::map<std::string, std::string>& flags,
                     NumericFlags* numeric, core::MlpConfig* config) {
  config->prune_floor = numeric->Double("prune_floor", config->prune_floor);
  config->prune_patience =
      numeric->Int("prune_patience", config->prune_patience);
  if (FlagOr(flags, "no_prune", "0") != "0") config->prune_floor = 0.0;
}

int SweepsDone(const core::FitCheckpoint& checkpoint) {
  int per_round = checkpoint.config.burn_in_iterations +
                  checkpoint.config.sampling_iterations;
  return checkpoint.progress.round * per_round +
         checkpoint.progress.burn_in_done +
         checkpoint.progress.sampling_done;
}

int TotalSweeps(const core::MlpConfig& config) {
  return (std::max(0, config.gibbs_em_rounds) + 1) *
         (config.burn_in_iterations + config.sampling_iterations);
}

void PrintFitSummary(const core::FitCheckpoint& checkpoint,
                     const core::MlpResult& result) {
  std::printf("%s after %d/%d sweeps: alpha=%.4f beta=%.6f threads=%d\n",
              checkpoint.complete ? "fit complete" : "fit checkpointed",
              SweepsDone(checkpoint), TotalSweeps(checkpoint.config),
              result.alpha, result.beta, checkpoint.config.num_threads);
}

int SaveSnapshotTo(const std::string& path, const core::ModelInput& input,
                   const core::FitCheckpoint& checkpoint,
                   const core::MlpResult& result) {
  io::ModelSnapshot snapshot = io::MakeModelSnapshot(input, checkpoint, result);
  Status saved = io::SaveModelSnapshot(path, snapshot);
  if (!saved.ok()) {
    std::fprintf(stderr, "snapshot save failed: %s\n",
                 saved.ToString().c_str());
    return 1;
  }
  std::error_code ec;
  auto bytes = std::filesystem::file_size(path, ec);
  std::printf("snapshot -> %s (%llu bytes)\n", path.c_str(),
              ec ? 0ULL : static_cast<unsigned long long>(bytes));
  return 0;
}

// --profile / --trace session shared by fit and resume: snapshots the
// phase counters before the fit and installs a trace recorder; Finish()
// (success path only) prints the per-phase table and writes the Chrome
// trace. The destructor uninstalls the recorder on every path, so an
// errored fit can't leave a dangling recorder pointer installed.
class FitProfileSession {
 public:
  FitProfileSession(const std::map<std::string, std::string>& flags,
                    int num_threads)
      : profile_(FlagOr(flags, "profile", "0") != "0"),
        trace_path_(FlagOr(flags, "trace", "")),
        num_threads_(num_threads) {
    if (profile_) before_ = obs::Registry::Global().CounterValues();
    if (!trace_path_.empty()) obs::SetTraceRecorder(&recorder_);
  }

  ~FitProfileSession() {
    if (!trace_path_.empty()) obs::SetTraceRecorder(nullptr);
  }

  int Finish() {
    if (!trace_path_.empty()) {
      obs::SetTraceRecorder(nullptr);
      Status written = recorder_.WriteChromeTrace(trace_path_);
      if (!written.ok()) {
        std::fprintf(stderr, "trace write failed: %s\n",
                     written.ToString().c_str());
        return kExitRuntime;
      }
      std::printf("trace -> %s (%zu events; open in chrome://tracing)\n",
                  trace_path_.c_str(), recorder_.event_count());
    }
    if (profile_) {
      const obs::FitProfile profile = obs::ComputeFitProfile(
          before_, obs::Registry::Global().CounterValues(), num_threads_);
      std::printf(
          "profile: %llu sweeps, %.1f ms sweep wall-clock, "
          "%.1f%% attributed (threads=%d)\n",
          static_cast<unsigned long long>(profile.sweeps),
          profile.sweep_wall_ms, profile.accounted_pct, num_threads_);
      io::TablePrinter table({"phase", "wall ms", "% of sweep"});
      for (const obs::PhaseRow& row : profile.rows) {
        table.AddRow({row.phase, StringPrintf("%.1f", row.wall_ms),
                      StringPrintf("%.1f%%", row.pct_of_sweep)});
      }
      table.Print();
      // Memory picture at end of fit: exact accounted footprint (what the
      // --mem_budget_mb enforcement gates on) next to the process RSS.
      obs::UpdateProcessRssGauges();
      obs::Registry& registry = obs::Registry::Global();
      auto mb = [&registry](const char* name) {
        return registry.GetGauge(name)->Value() / (1024.0 * 1024.0);
      };
      std::printf(
          "memory: accounted %.1f MB (arena %.1f MB, candidates %.1f MB), "
          "budget %.0f MB, rss %.1f MB (peak %.1f MB), "
          "budget tightenings %llu\n",
          mb(obs::kMemFitAccountedBytes), mb(obs::kMemArenaBytes),
          mb(obs::kMemCandidateBytes), mb(obs::kMemFitBudgetBytes),
          mb(obs::kMemProcessRssBytes), mb(obs::kMemProcessPeakRssBytes),
          static_cast<unsigned long long>(
              registry.GetCounter(obs::kFitBudgetTightenTotal)->Value()));
    }
    return kExitOk;
  }

 private:
  const bool profile_;
  const std::string trace_path_;
  const int num_threads_;
  std::map<std::string, uint64_t> before_;
  obs::TraceRecorder recorder_;
};

int CmdFit(const std::map<std::string, std::string>& flags) {
  std::string dir = FlagOr(flags, "data", "");
  std::string save = FlagOr(flags, "save", "");
  if (dir.empty() || save.empty()) return UsageFor("fit");
  NumericFlags numeric(flags, "fit");
  core::MlpConfig config;
  config.burn_in_iterations = numeric.Int("burn", 10);
  config.sampling_iterations = numeric.Int("sampling", 14);
  config.num_threads = std::max(1, numeric.Int("threads", 1));
  config.sync_every_sweeps = std::max(1, numeric.Int("sync-every", 1));
  config.gibbs_em_rounds = numeric.Int("em-rounds", 0);
  config.seed = numeric.U64("seed", 1234);
  ApplyPruneFlags(flags, &numeric, &config);

  core::FitCheckpoint checkpoint;
  core::FitOptions opts;
  opts.max_total_sweeps = numeric.Int("max-sweeps", -1);
  opts.mem_budget_mb = numeric.Int("mem_budget_mb", 0);
  opts.checkpoint_out = &checkpoint;
  if (!numeric.ok()) return UsageFor("fit");

  Result<LoadedWorld> world = LoadWorld(dir);
  if (!world.ok()) {
    std::fprintf(stderr, "load failed: %s\n",
                 world.status().ToString().c_str());
    return 1;
  }
  auto referents = world->vocab.ReferentTable();
  core::ModelInput input = FullInput(*world, referents);
  FitProfileSession session(flags, config.num_threads);
  Result<core::MlpResult> result = core::MlpModel(config).Fit(input, opts);
  if (!result.ok()) {
    std::fprintf(stderr, "fit failed: %s\n",
                 result.status().ToString().c_str());
    return 1;
  }
  PrintFitSummary(checkpoint, *result);
  if (int rc = session.Finish(); rc != kExitOk) return rc;
  return SaveSnapshotTo(save, input, checkpoint, *result);
}

int CmdResume(const std::map<std::string, std::string>& flags) {
  std::string dir = FlagOr(flags, "data", "");
  std::string load = FlagOr(flags, "load", "");
  if (dir.empty() || load.empty()) return UsageFor("resume");
  Result<io::ModelSnapshot> snapshot = io::LoadModelSnapshot(load);
  if (!snapshot.ok()) {
    std::fprintf(stderr, "snapshot load failed: %s\n",
                 snapshot.status().ToString().c_str());
    return 1;
  }
  Result<LoadedWorld> world = LoadWorld(dir);
  if (!world.ok()) {
    std::fprintf(stderr, "load failed: %s\n",
                 world.status().ToString().c_str());
    return 1;
  }
  auto referents = world->vocab.ReferentTable();
  core::ModelInput input = FullInput(*world, referents);

  // The snapshot carries the config the fit was started with; resuming
  // under anything else would change the sweep program, so the only CLI
  // overrides are the pruning knobs — sweep-time policy that is
  // deliberately outside the fingerprint (so e.g. a v1 or unpruned
  // snapshot can resume WITH pruning, or a pruned one finish without).
  NumericFlags numeric(flags, "resume");
  core::MlpConfig config = snapshot->checkpoint.config;
  ApplyPruneFlags(flags, &numeric, &config);
  snapshot->checkpoint.config = config;
  core::FitCheckpoint checkpoint;
  core::FitOptions opts;
  opts.max_total_sweeps = numeric.Int("max-sweeps", -1);
  opts.mem_budget_mb = numeric.Int("mem_budget_mb", 0);
  opts.warm_start = &snapshot->checkpoint;
  opts.checkpoint_out = &checkpoint;
  if (!numeric.ok()) return UsageFor("resume");
  FitProfileSession session(flags, config.num_threads);
  Result<core::MlpResult> result = core::MlpModel(config).Fit(input, opts);
  if (!result.ok()) {
    std::fprintf(stderr, "resume failed: %s\n",
                 result.status().ToString().c_str());
    return 1;
  }
  PrintFitSummary(checkpoint, *result);
  if (int rc = session.Finish(); rc != kExitOk) return rc;
  std::string save = FlagOr(flags, "save", "");
  if (!save.empty()) {
    return SaveSnapshotTo(save, input, checkpoint, *result);
  }
  return 0;
}

// Loads a snapshot and binds it to the loaded dataset: user counts must
// agree and the stored fingerprint must match the priors derived from this
// dataset — the same guard resume uses, so no --load subcommand (eval,
// serve, ingest) can silently pair a model with an unrelated world. On
// mismatch the error names the snapshot's format version and both
// fingerprints, so the operator can tell a stale model from a wrong
// directory at a glance.
Result<io::ModelSnapshot> LoadSnapshotChecked(const LoadedWorld& world,
                                              const std::string& path) {
  Result<io::ModelSnapshot> snapshot = io::LoadModelSnapshot(path);
  if (!snapshot.ok()) return snapshot.status();
  const size_t num_users = world.data->graph.num_users();
  if (snapshot->result.home.size() != num_users) {
    return Status::InvalidArgument(StringPrintf(
        "snapshot %s (format v%u) has %zu users but dataset has %zu — "
        "wrong --data directory?",
        path.c_str(), snapshot->version, snapshot->result.home.size(),
        num_users));
  }
  auto referents = world.vocab.ReferentTable();
  core::ModelInput input = FullInput(world, referents);
  core::CandidateSpace space =
      core::CandidateSpace::Build(input, snapshot->checkpoint.config);
  const uint64_t expected =
      core::FitFingerprint(input, snapshot->checkpoint.config, space);
  if (expected != snapshot->checkpoint.fingerprint) {
    return Status::InvalidArgument(StringPrintf(
        "snapshot %s does not match this dataset: format v%u, stored "
        "fingerprint %016llx, dataset fingerprint %016llx — wrong --data "
        "directory, or the dataset changed since the fit?",
        path.c_str(), snapshot->version,
        static_cast<unsigned long long>(snapshot->checkpoint.fingerprint),
        static_cast<unsigned long long>(expected)));
  }
  return snapshot;
}

// Serving-style evaluation of a persisted model: score the stored home
// estimates against the dataset's registered homes, no refit.
int EvalSnapshot(const LoadedWorld& world, const std::string& path) {
  Result<io::ModelSnapshot> snapshot = LoadSnapshotChecked(world, path);
  if (!snapshot.ok()) {
    std::fprintf(stderr, "snapshot load failed: %s\n",
                 snapshot.status().ToString().c_str());
    return 1;
  }
  std::vector<geo::CityId> registered =
      eval::RegisteredHomes(world.data->graph);
  std::vector<graph::UserId> labeled;
  for (graph::UserId u = 0; u < static_cast<graph::UserId>(registered.size());
       ++u) {
    if (registered[u] != geo::kInvalidCity) labeled.push_back(u);
  }
  PrintFitSummary(snapshot->checkpoint, snapshot->result);
  io::TablePrinter table({"method", "ACC@100", "ACC@20"});
  table.AddRow(
      {"snapshot",
       StringPrintf("%.2f%%", eval::AccuracyWithin(snapshot->result.home,
                                                   registered, labeled,
                                                   *world.distances, 100.0) *
                                  100.0),
       StringPrintf("%.2f%%", eval::AccuracyWithin(snapshot->result.home,
                                                   registered, labeled,
                                                   *world.distances, 20.0) *
                                  100.0)});
  table.Print();
  return 0;
}

int CmdEval(const std::map<std::string, std::string>& flags) {
  std::string dir = FlagOr(flags, "data", "");
  if (dir.empty()) return UsageFor("eval");
  NumericFlags numeric(flags, "eval");
  int folds = numeric.Int("folds", 5);
  std::string method = FlagOr(flags, "method", "all");
  int threads = numeric.Int("threads", 1);
  if (threads < 1) threads = 1;
  bool warm = FlagOr(flags, "warm", "0") != "0";
  if (!numeric.ok()) return UsageFor("eval");

  Result<LoadedWorld> world = LoadWorld(dir);
  if (!world.ok()) {
    std::fprintf(stderr, "load failed: %s\n",
                 world.status().ToString().c_str());
    return 1;
  }
  std::string load = FlagOr(flags, "load", "");
  if (!load.empty()) return EvalSnapshot(*world, load);
  auto referents = world->vocab.ReferentTable();
  std::vector<geo::CityId> registered =
      eval::RegisteredHomes(world->data->graph);
  eval::FoldAssignment assignment = eval::MakeKFolds(registered, 5, 17);
  if (folds < 1) folds = 1;
  if (folds > 5) folds = 5;

  core::MlpConfig config;
  config.burn_in_iterations = 10;
  config.sampling_iterations = 14;
  ApplyPruneFlags(flags, &numeric, &config);
  if (!numeric.ok()) return UsageFor("eval");
  // The MLP_PR row appears when pruning is requested AND actually on: an
  // explicit --prune_floor 0 or --no_prune means no pruned variant at all
  // (MakePrunedMlpMethod would otherwise resurrect the default floor).
  const bool disabled = FlagOr(flags, "no_prune", "0") != "0" ||
                        (flags.count("prune_floor") && config.prune_floor <= 0.0);
  const bool prune =
      !disabled &&
      (FlagOr(flags, "prune", "0") != "0" || config.prune_floor > 0.0);
  io::TablePrinter table({"method", "ACC@100", "ACC@20"});
  for (const eval::NamedMethod& nm :
       eval::StandardLineup(config, threads, warm, prune)) {
    if (method != "all" && nm.name != method) continue;
    double acc100 = 0.0, acc20 = 0.0;
    for (int fold = 0; fold < folds; ++fold) {
      core::ModelInput input;
      input.gazetteer = &world->gazetteer;
      input.graph = &world->data->graph;
      input.distances = world->distances.get();
      input.venue_referents = &referents;
      input.observed_home = assignment.MaskedHomes(registered, fold);
      Result<eval::MethodOutput> out = nm.method(input);
      if (!out.ok()) {
        std::fprintf(stderr, "%s failed: %s\n", nm.name.c_str(),
                     out.status().ToString().c_str());
        return 1;
      }
      std::vector<graph::UserId> test_users = assignment.TestUsers(fold);
      acc100 += eval::AccuracyWithin(out->home, registered, test_users,
                                     *world->distances, 100.0);
      acc20 += eval::AccuracyWithin(out->home, registered, test_users,
                                    *world->distances, 20.0);
    }
    table.AddRow({nm.name, StringPrintf("%.2f%%", acc100 / folds * 100.0),
                  StringPrintf("%.2f%%", acc20 / folds * 100.0)});
  }
  table.Print();
  return 0;
}

// ----------------------------------------------------------------- ingest

int CmdIngest(const std::map<std::string, std::string>& flags) {
  const std::string dir = FlagOr(flags, "data", "");
  const std::string load = FlagOr(flags, "load", "");
  const std::string delta_dir = FlagOr(flags, "delta", "");
  const std::string save = FlagOr(flags, "save", "");
  if (dir.empty() || load.empty() || delta_dir.empty() || save.empty()) {
    return UsageFor("ingest");
  }

  Result<LoadedWorld> world = LoadWorld(dir);
  if (!world.ok()) {
    std::fprintf(stderr, "load failed: %s\n",
                 world.status().ToString().c_str());
    return kExitRuntime;
  }
  Result<io::ModelSnapshot> snapshot = LoadSnapshotChecked(*world, load);
  if (!snapshot.ok()) {
    std::fprintf(stderr, "snapshot load failed: %s\n",
                 snapshot.status().ToString().c_str());
    return kExitRuntime;
  }
  Result<stream::DeltaBatch> delta = stream::LoadDeltaBatch(delta_dir);
  if (!delta.ok()) {
    std::fprintf(stderr, "delta load failed: %s\n",
                 delta.status().ToString().c_str());
    return kExitRuntime;
  }

  auto referents = world->vocab.ReferentTable();
  core::ModelInput base_input = FullInput(*world, referents);
  NumericFlags numeric(flags, "ingest");
  stream::IngestOptions options;
  options.resample_burn = std::max(0, numeric.Int("resample-burn", 3));
  options.resample_sampling = std::max(1, numeric.Int("resample-sampling", 5));
  if (!numeric.ok()) return UsageFor("ingest");

  const auto start = std::chrono::steady_clock::now();
  Result<stream::IngestOutput> ingested = stream::ApplyDeltaBatch(
      base_input, snapshot->checkpoint, snapshot->result, *delta, options);
  if (!ingested.ok()) {
    std::fprintf(stderr, "ingest failed: %s\n",
                 ingested.status().ToString().c_str());
    return kExitRuntime;
  }
  const double seconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
  const core::DeltaReport& report = ingested->report;
  std::printf(
      "ingested +%d users, +%d following, +%d tweeting in %.2fs: "
      "%d/%d shards resampled, %d rows migrated, layout v%llu\n",
      report.new_users, report.new_following, report.new_tweeting, seconds,
      report.shards_touched, report.shards_total, report.migrated_rows,
      static_cast<unsigned long long>(
          ingested->checkpoint.activation.layout_version));

  core::ModelInput merged_input = base_input;
  merged_input.graph = ingested->merged_graph.get();
  merged_input.observed_home = ingested->merged_observed_home;
  const std::string save_data = FlagOr(flags, "save-data", "");
  if (!save_data.empty()) {
    // The merged world the updated snapshot is bound to — eval/serve/a
    // later ingest need a --data directory whose fingerprint matches.
    std::error_code ec;
    std::filesystem::create_directories(save_data, ec);
    Status saved = io::SaveDataset(save_data, *ingested->merged_graph);
    if (!saved.ok()) {
      std::fprintf(stderr, "merged dataset save failed: %s\n",
                   saved.ToString().c_str());
      return kExitRuntime;
    }
    std::printf("merged dataset -> %s\n", save_data.c_str());
  }
  return SaveSnapshotTo(save, merged_input, ingested->checkpoint,
                        ingested->result);
}

// ------------------------------------------------------------------ serve

// SIGINT/SIGTERM → graceful shutdown flag for the serve loop. sig_atomic_t
// because the handler may interrupt any instruction.
volatile std::sig_atomic_t g_shutdown_requested = 0;

void HandleShutdownSignal(int) { g_shutdown_requested = 1; }

// --selfcheck: a real socket round trip against the just-started server,
// validating status codes, JSON well-formedness and snapshot consistency.
// This is the CI smoke's curl replacement (cmake/serve_smoke.cmake).
int RunSelfcheck(const serve::ModelServer& server,
                 const io::ModelSnapshot& snapshot,
                 const graph::SocialGraph& graph,
                 const serve::ServeOptions& options) {
  const int port = server.port();
  int failures = 0;
  auto check = [&](const char* what, bool ok) {
    std::printf("selfcheck %-28s %s\n", what, ok ? "OK" : "FAIL");
    if (!ok) ++failures;
  };

  Result<serve::HttpResponse> health =
      serve::HttpFetch("127.0.0.1", port, "GET", "/healthz");
  check("/healthz", health.ok() && health->status == 200 &&
                        serve::ParseJson(health->body).ok());

  // A user with a non-empty profile (every fitted snapshot has one).
  graph::UserId probe_user = 0;
  for (graph::UserId u = 0;
       u < static_cast<graph::UserId>(snapshot.result.profiles.size()); ++u) {
    if (!snapshot.result.profiles[u].entries().empty()) {
      probe_user = u;
      break;
    }
  }
  Result<serve::HttpResponse> user = serve::HttpFetch(
      "127.0.0.1", port, "GET", "/v1/user/" + std::to_string(probe_user));
  bool user_ok = user.ok() && user->status == 200;
  if (user_ok) {
    Result<serve::JsonValue> parsed = serve::ParseJson(user->body);
    user_ok = parsed.ok() && parsed->is_object();
    if (user_ok) {
      const serve::JsonValue* home = parsed->Find("home");
      const geo::CityId expected = snapshot.result.home[probe_user];
      if (expected == geo::kInvalidCity) {
        user_ok = home != nullptr &&
                  home->type == serve::JsonValue::Type::kNull;
      } else {
        const serve::JsonValue* id =
            home == nullptr ? nullptr : home->Find("city_id");
        user_ok = id != nullptr && id->AsInt(-1) == expected;
      }
    }
  }
  check("/v1/user (home parity)", user_ok);

  if (graph.num_following() > 0) {
    const graph::FollowingEdge& edge = graph.following(0);
    Result<serve::HttpResponse> edge_response = serve::HttpFetch(
        "127.0.0.1", port, "GET",
        "/v1/edge/" + std::to_string(edge.follower) + "/" +
            std::to_string(edge.friend_user));
    bool edge_ok = edge_response.ok() && edge_response->status == 200;
    if (edge_ok) {
      Result<serve::JsonValue> parsed = serve::ParseJson(edge_response->body);
      edge_ok = parsed.ok() && parsed->Find("explanation") != nullptr;
    }
    check("/v1/edge", edge_ok);

    std::string body = "{\"users\":[" + std::to_string(probe_user) +
                       "],\"edges\":[[" + std::to_string(edge.follower) +
                       "," + std::to_string(edge.friend_user) + "]]}";
    Result<serve::HttpResponse> batch =
        serve::HttpFetch("127.0.0.1", port, "POST", "/v1/batch", body);
    bool batch_ok = batch.ok() && batch->status == 200;
    if (batch_ok) {
      Result<serve::JsonValue> parsed = serve::ParseJson(batch->body);
      batch_ok = parsed.ok() && parsed->Find("users") != nullptr &&
                 parsed->Find("users")->items.size() == 1 &&
                 parsed->Find("edges") != nullptr &&
                 parsed->Find("edges")->items.size() == 1;
    }
    check("/v1/batch", batch_ok);
  }

  Result<serve::HttpResponse> stats =
      serve::HttpFetch("127.0.0.1", port, "GET", "/statsz?format=csv");
  check("/statsz?format=csv",
        stats.ok() && stats->status == 200 &&
            stats->body.rfind("stat,value", 0) == 0);

  // Prometheus exposition: must carry the request-latency histogram (with
  // cumulative le="..." buckets — earlier requests in this selfcheck have
  // already recorded into it) and the fragment-lookup stage counter.
  Result<serve::HttpResponse> metrics =
      serve::HttpFetch("127.0.0.1", port, "GET", "/metricsz");
  check("/metricsz (prometheus)",
        metrics.ok() && metrics->status == 200 &&
            metrics->body.find(
                "# TYPE serve_request_latency_us histogram") !=
                std::string::npos &&
            metrics->body.find("serve_request_latency_us_bucket{le=\"") !=
                std::string::npos &&
            metrics->body.find("serve_request_latency_us_count") !=
                std::string::npos &&
            metrics->body.find("# TYPE serve_stage_lookup_ns counter") !=
                std::string::npos &&
            metrics->body.find("serve_requests_total") != std::string::npos);

  // Per-endpoint latency histograms + fit gauges land on the same scrape.
  check("/metricsz (request stages)",
        metrics.ok() &&
            metrics->body.find("serve_user_latency_us") !=
                std::string::npos &&
            metrics->body.find("serve_stage_render_ns") !=
                std::string::npos &&
            metrics->body.find("serve_seconds_since_last_swap") !=
                std::string::npos);

  Result<serve::HttpResponse> missing =
      serve::HttpFetch("127.0.0.1", port, "GET", "/v1/user/999999999");
  check("404 on unknown user", missing.ok() && missing->status == 404);

  Result<serve::HttpResponse> statusz =
      serve::HttpFetch("127.0.0.1", port, "GET", "/statusz");
  check("/statusz (dashboard)",
        statusz.ok() && statusz->status == 200 &&
            statusz->body.find("p99") != std::string::npos &&
            statusz->body.find("model_generation") != std::string::npos &&
            statusz->body.find("seconds_since_last_swap") !=
                std::string::npos);

  // Slow-request ring: JSON shape always; with a threshold at or below
  // 1ms the requests above must have been captured, stage breakdowns
  // included (this is how the smoke demonstrates a "slow" request).
  Result<serve::HttpResponse> slowz =
      serve::HttpFetch("127.0.0.1", port, "GET", "/debug/slowz");
  bool slowz_ok = slowz.ok() && slowz->status == 200;
  std::vector<long long> slow_ids;
  if (slowz_ok) {
    Result<serve::JsonValue> parsed = serve::ParseJson(slowz->body);
    slowz_ok = parsed.ok() && parsed->is_object() &&
               parsed->Find("requests") != nullptr &&
               parsed->Find("requests")->is_array();
    if (slowz_ok && options.slow_request_us > 0 &&
        options.slow_request_us <= 1000) {
      const serve::JsonValue* requests = parsed->Find("requests");
      slowz_ok = !requests->items.empty();
      for (const serve::JsonValue& r : requests->items) {
        const serve::JsonValue* stages = r.Find("stages");
        slowz_ok = slowz_ok && stages != nullptr &&
                   stages->Find("render_us") != nullptr &&
                   stages->Find("parse_us") != nullptr;
        if (const serve::JsonValue* id = r.Find("id")) {
          slow_ids.push_back(id->AsInt(-1));
        }
      }
    }
  }
  check("/debug/slowz", slowz_ok);

  // Access-log / trace correlation: every line is one JSON object carrying
  // the request id, and every id retained in the slow ring shows up in the
  // log (the slow requests above finished several round trips ago, and the
  // server flushes per line).
  if (options.access_log && !options.access_log_path.empty()) {
    std::ifstream in(options.access_log_path);
    bool log_ok = in.good();
    std::set<long long> logged_ids;
    int lines = 0;
    std::string line;
    while (log_ok && std::getline(in, line)) {
      if (line.empty()) continue;
      ++lines;
      Result<serve::JsonValue> parsed = serve::ParseJson(line);
      const serve::JsonValue* id =
          parsed.ok() && parsed->is_object() ? parsed->Find("id") : nullptr;
      log_ok = id != nullptr && parsed->Find("total_us") != nullptr &&
               parsed->Find("status") != nullptr;
      if (log_ok) logged_ids.insert(id->AsInt(-1));
    }
    log_ok = log_ok && lines > 0;
    for (long long id : slow_ids) {
      log_ok = log_ok && logged_ids.count(id) != 0;
    }
    check("access log (id correlation)", log_ok);
  }

  std::printf("selfcheck %s\n", failures == 0 ? "passed" : "FAILED");
  return failures == 0 ? kExitOk : kExitRuntime;
}

// The serve loop shared by both backings: signal-driven shutdown with
// request draining. When a live ingestor is attached it drains FIRST —
// the in-flight batch finishes applying and swapping (and checkpoints,
// when configured) while the server still answers queries; only then do
// the request threads stop.
int ServeLoop(serve::ModelServer& server,
              stream::LiveIngestor* ingestor = nullptr) {
  std::signal(SIGINT, HandleShutdownSignal);
  std::signal(SIGTERM, HandleShutdownSignal);
  std::printf("Ctrl-C to stop\n");
  std::fflush(stdout);
  while (!g_shutdown_requested) {
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
  }
  if (ingestor != nullptr) {
    std::printf("\ndraining live ingest (finishing in-flight batch)...\n");
    ingestor->Stop();
    std::printf("live ingest: %llu batches applied, %llu quarantined\n",
                static_cast<unsigned long long>(ingestor->batches_applied()),
                static_cast<unsigned long long>(ingestor->batches_failed()));
  }
  std::printf("shutting down (draining in-flight requests)...\n");
  server.Stop();
  std::printf("served %llu requests over %llu connections\n",
              static_cast<unsigned long long>(server.requests_served()),
              static_cast<unsigned long long>(server.connections_accepted()));
  return kExitOk;
}

// --selfcheck for the mmap backing: no snapshot or graph is loaded, so the
// probes come from the read model itself (ExampleEdge / num_users) and the
// parity check is against the mapped pre-rendered fragment — which is also
// exactly what the in-memory path would have rendered.
int RunSelfcheckMmap(const serve::ModelServer& server) {
  const int port = server.port();
  const serve::ReadModel& model = *server.model();
  int failures = 0;
  auto check = [&](const char* what, bool ok) {
    std::printf("selfcheck %-28s %s\n", what, ok ? "OK" : "FAIL");
    if (!ok) ++failures;
  };

  Result<serve::HttpResponse> health =
      serve::HttpFetch("127.0.0.1", port, "GET", "/healthz");
  check("/healthz", health.ok() && health->status == 200 &&
                        serve::ParseJson(health->body).ok());

  if (model.num_users() > 0) {
    Result<serve::HttpResponse> user =
        serve::HttpFetch("127.0.0.1", port, "GET", "/v1/user/0");
    bool user_ok = user.ok() && user->status == 200;
    if (user_ok) {
      Result<serve::JsonValue> parsed = serve::ParseJson(user->body);
      user_ok = parsed.ok() && parsed->is_object() &&
                parsed->Find("user") != nullptr &&
                parsed->Find("user")->AsInt(-1) == 0 &&
                user->body == model.UserJson(0);
    }
    check("/v1/user (mmap parity)", user_ok);
  }

  graph::UserId src = 0, dst = 0;
  if (model.ExampleEdge(&src, &dst)) {
    Result<serve::HttpResponse> edge_response = serve::HttpFetch(
        "127.0.0.1", port, "GET",
        "/v1/edge/" + std::to_string(src) + "/" + std::to_string(dst));
    bool edge_ok = edge_response.ok() && edge_response->status == 200;
    if (edge_ok) {
      Result<serve::JsonValue> parsed = serve::ParseJson(edge_response->body);
      edge_ok = parsed.ok() && parsed->Find("explanation") != nullptr;
    }
    check("/v1/edge", edge_ok);

    std::string body = "{\"users\":[0],\"edges\":[[" + std::to_string(src) +
                       "," + std::to_string(dst) + "]]}";
    Result<serve::HttpResponse> batch =
        serve::HttpFetch("127.0.0.1", port, "POST", "/v1/batch", body);
    bool batch_ok = batch.ok() && batch->status == 200;
    if (batch_ok) {
      Result<serve::JsonValue> parsed = serve::ParseJson(batch->body);
      batch_ok = parsed.ok() && parsed->Find("users") != nullptr &&
                 parsed->Find("users")->items.size() == 1 &&
                 parsed->Find("edges") != nullptr &&
                 parsed->Find("edges")->items.size() == 1;
    }
    check("/v1/batch", batch_ok);
  }

  Result<serve::HttpResponse> stats =
      serve::HttpFetch("127.0.0.1", port, "GET", "/statsz?format=csv");
  check("/statsz?format=csv",
        stats.ok() && stats->status == 200 &&
            stats->body.rfind("stat,value", 0) == 0 &&
            stats->body.find("mmap_backed") != std::string::npos);

  Result<serve::HttpResponse> statusz =
      serve::HttpFetch("127.0.0.1", port, "GET", "/statusz");
  check("/statusz (dashboard)",
        statusz.ok() && statusz->status == 200 &&
            statusz->body.find("p99") != std::string::npos &&
            statusz->body.find("model_generation") != std::string::npos &&
            statusz->body.find("seconds_since_last_swap") !=
                std::string::npos);

  Result<serve::HttpResponse> missing =
      serve::HttpFetch("127.0.0.1", port, "GET", "/v1/user/999999999");
  check("404 on unknown user", missing.ok() && missing->status == 404);

  std::printf("selfcheck %s\n", failures == 0 ? "passed" : "FAILED");
  return failures == 0 ? kExitOk : kExitRuntime;
}

int CmdServe(const std::map<std::string, std::string>& flags) {
  std::string dir = FlagOr(flags, "data", "");
  std::string load = FlagOr(flags, "load", "");
  const bool mmap = FlagOr(flags, "mmap", "0") != "0";
  if (load.empty() || (dir.empty() && !mmap)) return UsageFor("serve");
  const bool selfcheck = FlagOr(flags, "selfcheck", "0") != "0";

  NumericFlags numeric(flags, "serve");
  serve::ServeOptions options;
  // Ephemeral port under --selfcheck so smoke runs never collide.
  options.port = numeric.Int("port", selfcheck ? 0 : 8080);
  options.threads = std::max(1, numeric.Int("threads", 4));
  options.top_k = numeric.Int("top_k", 10);
  options.slow_request_us = numeric.Integer("slow_request_us", 10000);

  // Live ingest daemon flags. Coherence is a usage error (exit 3), not a
  // runtime one: the spool knobs only mean something together, and the
  // mmap backing has no in-memory fit state to apply deltas to.
  const std::string spool = FlagOr(flags, "spool", "");
  stream::LiveIngestOptions live;
  live.spool_dir = spool;
  live.poll_ms = numeric.Int("spool_poll_ms", 200);
  live.checkpoint_every = numeric.Int("checkpoint_every", 0);
  live.checkpoint_path = FlagOr(flags, "save", "");
  if (!numeric.ok()) return UsageFor("serve");
  if (spool.empty() && (flags.count("spool_poll_ms") != 0 ||
                        flags.count("checkpoint_every") != 0 ||
                        flags.count("save") != 0)) {
    std::fprintf(stderr,
                 "mlpctl serve: --spool_poll_ms/--checkpoint_every/--save "
                 "need --spool\n");
    return UsageFor("serve");
  }
  if (!spool.empty() && mmap) {
    std::fprintf(stderr,
                 "mlpctl serve: --spool needs the in-memory backing "
                 "(no --mmap)\n");
    return UsageFor("serve");
  }
  if (!spool.empty() && live.poll_ms <= 0) {
    std::fprintf(stderr, "mlpctl serve: --spool_poll_ms must be > 0\n");
    return UsageFor("serve");
  }
  if (live.checkpoint_every > 0 && live.checkpoint_path.empty()) {
    std::fprintf(stderr,
                 "mlpctl serve: --checkpoint_every needs --save PATH\n");
    return UsageFor("serve");
  }
  // --access_log enables the structured log; "--access_log=FILE" (or
  // "--access_log FILE") appends JSON lines to FILE, the bare flag routes
  // them through MLP_LOG(kInfo).
  if (flags.count("access_log") != 0) {
    options.access_log = true;
    const std::string path = FlagOr(flags, "access_log", "");
    if (path != "1") options.access_log_path = path;
  }

  if (mmap) {
    // Out-of-core: map the packed serve section; no dataset, no snapshot
    // parse, no JSON render — resident memory is just the touched pages.
    // The gazetteer is not needed (responses are pre-rendered).
    Result<serve::ReadModel> model =
        serve::ReadModel::MapServeSection(load, nullptr);
    if (!model.ok()) {
      std::fprintf(stderr, "mmap serve failed: %s\n",
                   model.status().ToString().c_str());
      return kExitRuntime;
    }
    serve::ModelServer server(std::move(*model), options);
    Status started = server.Start();
    if (!started.ok()) {
      std::fprintf(stderr, "serve failed: %s\n", started.ToString().c_str());
      return kExitRuntime;
    }
    std::printf(
        "serving %d users / %d edges (mmap-backed) on http://127.0.0.1:%d "
        "(threads=%d)\n",
        server.model()->num_users(), server.model()->num_edges(),
        server.port(), options.threads);
    if (selfcheck) {
      int rc = RunSelfcheckMmap(server);
      server.Stop();
      return rc;
    }
    return ServeLoop(server);
  }

  Result<LoadedWorld> world = LoadWorld(dir);
  if (!world.ok()) {
    std::fprintf(stderr, "load failed: %s\n",
                 world.status().ToString().c_str());
    return kExitRuntime;
  }
  Result<io::ModelSnapshot> snapshot = LoadSnapshotChecked(*world, load);
  if (!snapshot.ok()) {
    std::fprintf(stderr, "snapshot load failed: %s\n",
                 snapshot.status().ToString().c_str());
    return kExitRuntime;
  }
  serve::ReadModelOptions model_options;
  model_options.top_k = options.top_k;
  Result<serve::ReadModel> model =
      serve::ReadModel::Build(*snapshot, world->data->graph,
                              &world->gazetteer, model_options);
  if (!model.ok()) {
    std::fprintf(stderr, "read model build failed: %s\n",
                 model.status().ToString().c_str());
    return kExitRuntime;
  }

  serve::ModelServer server(std::move(*model), options);
  Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "serve failed: %s\n", started.ToString().c_str());
    return kExitRuntime;
  }
  PrintFitSummary(snapshot->checkpoint, snapshot->result);
  std::printf(
      "serving %d users / %d edges on http://127.0.0.1:%d "
      "(threads=%d top_k=%d)\n",
      server.model()->num_users(), server.model()->num_edges(), server.port(),
      options.threads, options.top_k);

  // Live ingest daemon: attach the spool watcher before entering the serve
  // loop. Start() validates the spool synchronously, so a typo'd or
  // unwritable directory aborts startup here — never inside the watcher
  // thread. `referents` must outlive the ingestor (the ModelInput borrows
  // it), hence the declaration order.
  const auto referents = world->vocab.ReferentTable();
  std::unique_ptr<stream::LiveIngestor> ingestor;
  if (!spool.empty()) {
    ingestor = std::make_unique<stream::LiveIngestor>(
        &server, FullInput(*world, referents), snapshot->checkpoint,
        snapshot->result, live);
    Status live_started = ingestor->Start();
    if (!live_started.ok()) {
      std::fprintf(stderr, "live ingest failed: %s\n",
                   live_started.ToString().c_str());
      server.Stop();
      return kExitRuntime;
    }
    std::printf("live ingest: watching %s (poll %dms%s)\n", spool.c_str(),
                live.poll_ms,
                live.checkpoint_path.empty() ? ""
                                             : ", checkpoint on drain");
    std::fflush(stdout);
  }

  if (selfcheck) {
    int rc = RunSelfcheck(server, *snapshot, world->data->graph, options);
    if (ingestor != nullptr) ingestor->Stop();
    server.Stop();
    return rc;
  }
  return ServeLoop(server, ingestor.get());
}

// ------------------------------------------------------------------ probe
// Minimal HTTP client over the server's own socket code (serve::HttpFetch)
// — the curl-free query hammer and endpoint scraper the CI live-pipeline
// job uses: fetch --target --count times, fail on any non-2xx, write the
// last body to --out for follow-on assertions.
int CmdProbe(const std::map<std::string, std::string>& flags) {
  if (flags.count("port") == 0) return UsageFor("probe");
  NumericFlags numeric(flags, "probe");
  const int port = numeric.Int("port", 0);
  const int count = std::max(1, numeric.Int("count", 1));
  const int interval_ms = std::max(0, numeric.Int("interval_ms", 0));
  if (!numeric.ok()) return UsageFor("probe");
  const std::string host = FlagOr(flags, "host", "127.0.0.1");
  const std::string target = FlagOr(flags, "target", "/healthz");
  const std::string out = FlagOr(flags, "out", "");

  std::string last_body;
  for (int i = 0; i < count; ++i) {
    Result<serve::HttpResponse> response =
        serve::HttpFetch(host, port, "GET", target);
    if (!response.ok()) {
      std::fprintf(stderr, "probe %s:%d %s failed after %d requests: %s\n",
                   host.c_str(), port, target.c_str(), i,
                   response.status().ToString().c_str());
      return kExitRuntime;
    }
    if (response->status < 200 || response->status >= 300) {
      std::fprintf(stderr, "probe %s: non-2xx (%d) on request %d/%d\n",
                   target.c_str(), response->status, i + 1, count);
      return kExitRuntime;
    }
    last_body = std::move(response->body);
    if (interval_ms > 0 && i + 1 < count) {
      std::this_thread::sleep_for(std::chrono::milliseconds(interval_ms));
    }
  }
  if (!out.empty()) {
    std::FILE* f = std::fopen(out.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "probe: cannot write %s\n", out.c_str());
      return kExitRuntime;
    }
    std::fwrite(last_body.data(), 1, last_body.size(), f);
    std::fclose(f);
  }
  std::printf("probe %s x%d: all 2xx\n", target.c_str(), count);
  return kExitOk;
}

// ------------------------------------------------------------------- pack
// Builds the in-memory read model for a fitted snapshot (same
// fingerprint-checked path serve uses) and appends it to the .snap file as
// the mmap-able serve section `mlpctl serve --mmap` maps. Idempotent:
// re-packing replaces the existing section.
int CmdPack(const std::map<std::string, std::string>& flags) {
  const std::string dir = FlagOr(flags, "data", "");
  const std::string load = FlagOr(flags, "load", "");
  if (dir.empty() || load.empty()) return UsageFor("pack");
  NumericFlags numeric(flags, "pack");
  serve::ReadModelOptions model_options;
  model_options.top_k = numeric.Int("top_k", 10);
  if (!numeric.ok()) return UsageFor("pack");

  Result<LoadedWorld> world = LoadWorld(dir);
  if (!world.ok()) {
    std::fprintf(stderr, "load failed: %s\n",
                 world.status().ToString().c_str());
    return kExitRuntime;
  }
  Result<io::ModelSnapshot> snapshot = LoadSnapshotChecked(*world, load);
  if (!snapshot.ok()) {
    std::fprintf(stderr, "snapshot load failed: %s\n",
                 snapshot.status().ToString().c_str());
    return kExitRuntime;
  }
  Result<serve::ReadModel> model =
      serve::ReadModel::Build(*snapshot, world->data->graph,
                              &world->gazetteer, model_options);
  if (!model.ok()) {
    std::fprintf(stderr, "read model build failed: %s\n",
                 model.status().ToString().c_str());
    return kExitRuntime;
  }
  std::error_code ec;
  const uint64_t before = std::filesystem::file_size(load, ec);
  Status packed = model->AppendServeSection(load);
  if (!packed.ok()) {
    std::fprintf(stderr, "pack failed: %s\n", packed.ToString().c_str());
    return kExitRuntime;
  }
  const uint64_t after = std::filesystem::file_size(load, ec);
  std::printf(
      "packed serve section -> %s (%d users, %d edges, +%llu bytes, "
      "%llu total)\n",
      load.c_str(), model->num_users(), model->num_edges(),
      static_cast<unsigned long long>(after - std::min(before, after)),
      static_cast<unsigned long long>(after));
  return kExitOk;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  std::string command = argv[1];
  auto flags = ParseFlags(argc, argv, 2);
  // Global verbosity: MLP_LOG_LEVEL (read at static init) set the
  // baseline; an explicit --log_level on any subcommand overrides it.
  if (auto it = flags.find("log_level"); it != flags.end()) {
    mlp::LogLevel level;
    if (!mlp::ParseLogLevel(it->second, &level)) {
      std::fprintf(stderr,
                   "mlpctl: unknown --log_level '%s' "
                   "(expected debug|info|warn|error)\n",
                   it->second.c_str());
      return kExitUsage;
    }
    mlp::SetLogLevel(level);
  }
  if (command == "generate") return CmdGenerate(flags);
  if (command == "genworld") return CmdGenWorld(flags);
  if (command == "stats") return CmdStats(flags);
  if (command == "eval") return CmdEval(flags);
  if (command == "fit") return CmdFit(flags);
  if (command == "resume") return CmdResume(flags);
  if (command == "ingest") return CmdIngest(flags);
  if (command == "pack") return CmdPack(flags);
  if (command == "serve") return CmdServe(flags);
  if (command == "probe") return CmdProbe(flags);
  std::fprintf(stderr, "mlpctl: unknown subcommand '%s'\n", command.c_str());
  return Usage();
}
