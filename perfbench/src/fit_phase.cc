// The fit blocks: MlpModel::Fit (core + engine) runs back to back on the
// workload's world. Traced, every other block drives ParallelGibbsEngine
// sweep by sweep through the public calls bench_parallel_scaling makes,
// and the obs counters are read around each fit and each sweep.
#include <algorithm>
#include <map>
#include <numeric>
#include <string>

#include "common/random.h"
#include "core/candidate_space.h"
#include "core/pow_table.h"
#include "core/random_models.h"
#include "core/sampler.h"
#include "engine/parallel_gibbs.h"
#include "obs/fit_profile.h"
#include "obs/metrics.h"
#include "workloads.h"

namespace perfbench {

namespace {

using Counters = std::map<std::string, uint64_t>;

Counters Snapshot() { return mlp::obs::Registry::Global().CounterValues(); }

double Delta(const Counters& before, const Counters& after,
             const std::string& name) {
  const auto a = after.find(name);
  const auto b = before.find(name);
  const double av = a == after.end() ? 0.0 : static_cast<double>(a->second);
  const double bv = b == before.end() ? 0.0 : static_cast<double>(b->second);
  return av - bv;
}

// Phase counters read around each RunSweep, by per-layer metric name.
struct PhaseName {
  const char* metric;
  const char* counter;
};
constexpr PhaseName kPhases[] = {
    {"engine.barrier_wait_ms", mlp::obs::kFitBarrierWaitNs},
    {"engine.delta_merge_ms", mlp::obs::kFitDeltaMergeNs},
    {"engine.replica_refresh_ms", mlp::obs::kFitReplicaRefreshNs},
    {"engine.delta_fold_ms", mlp::obs::kFitDeltaFoldNs},
    {"engine.alias_rebuild_ms", mlp::obs::kFitAliasRebuildNs},
    {"engine.shard_kernel_ms", mlp::obs::kFitShardKernelNs},
};

constexpr int kMinFits = 3;

}  // namespace

FitPhase::FitPhase(const RunOptions& options, const WorkloadSpec& spec,
                   const World& world, Outcome* out)
    : options_(options),
      spec_(spec),
      world_(world),
      out_(*out),
      config_(FitConfig(options.nproc, options.seed)),
      relationships_(static_cast<double>(world.relationships())) {
  out_.threads["fit"] = config_.num_threads;
  out_.sizes["following"] = world.data.graph.num_following();
  out_.sizes["tweeting"] = world.data.graph.num_tweeting();
  out_.sizes["unlabeled_users"] =
      static_cast<int64_t>(world.UnlabeledUsers().size());
}

void FitPhase::RunBlock(int round, double seconds) {
  const int64_t start = NowNs();
  do {
    if (options_.trace && round % 2 == 1) {
      DriveEngine();
    } else {
      FitOnce();
    }
  } while (SecondsSince(start) < seconds);
}

void FitPhase::FitOnce() {
  ++out_.attempted;
  const Counters before = Snapshot();
  const int64_t start = NowNs();
  auto fitted = FitModel(world_, config_);
  const double seconds = SecondsSince(start);
  const Counters after = Snapshot();
  if (!fitted.ok()) {
    ++out_.failed;
    out_.Check(false, "fit: " + fitted.status().ToString());
    return;
  }
  fit_s_.push_back(seconds);
  const double sweep_s = Delta(before, after, mlp::obs::kFitSweepNs) / 1e9;
  double sweeps = Delta(before, after, mlp::obs::kFitSweepsTotal);
  if (sweeps <= 0) {
    sweeps = config_.burn_in_iterations + config_.sampling_iterations;
  }
  rel_per_s_.push_back(relationships_ * sweeps /
                       (sweep_s > 0.0 ? sweep_s : seconds));
  const double proposed = Delta(before, after, mlp::obs::kFitMhProposedTotal);
  if (proposed > 0) {
    mh_ratio_.push_back(Delta(before, after, mlp::obs::kFitMhAcceptedTotal) /
                        proposed);
  }
  const auto& mask = fitted->checkpoint.activation.active;
  active_fraction_.push_back(
      mask.empty() ? 1.0
                   : static_cast<double>(
                         std::count(mask.begin(), mask.end(), 1)) /
                         static_cast<double>(mask.size()));
  if (first_homes_.empty()) {
    first_homes_ = fitted->result.home;
  } else if (fitted->result.home != first_homes_) {
    out_.Check(false,
               "two fits with the same seed and thread count predicted "
               "different homes");
  }
}

void FitPhase::DriveEngine() {
  const mlp::core::ModelInput input = world_.Input();
  const int64_t setup_start = NowNs();
  mlp::core::CandidateSpace space =
      mlp::core::CandidateSpace::Build(input, config_);
  mlp::core::RandomModels random_models =
      mlp::core::RandomModels::Learn(*input.graph);
  mlp::core::PowTable pow_table(input.distances, config_.alpha,
                                config_.distance_floor_miles);
  mlp::core::GibbsSampler sampler(&input, &config_, &space, &random_models,
                                  &pow_table);
  mlp::engine::ParallelGibbsEngine engine(&sampler, &input, &config_, &space);
  mlp::Pcg32 rng(config_.seed, 0x5bd1e995u);
  engine.Initialize(&rng);
  setup_ms_.push_back(SecondsSince(setup_start) * 1e3);

  const int sweeps = config_.burn_in_iterations + config_.sampling_iterations;
  for (int s = 0; s < sweeps; ++s) {
    const Counters before = Snapshot();
    const int64_t start = NowNs();
    engine.RunSweep(&rng);
    sweep_ms_.push_back(SecondsSince(start) * 1e3);
    const Counters after = Snapshot();
    const mlp::obs::FitProfile profile =
        mlp::obs::ComputeFitProfile(before, after, config_.num_threads);
    for (const PhaseName& phase : kPhases) {
      for (const mlp::obs::PhaseRow& row : profile.rows) {
        if (row.counter == phase.counter) {
          phase_ms_[phase.metric].push_back(row.wall_ms);
        }
      }
    }
    unattributed_pct_.push_back(100.0 - profile.accounted_pct);
    const std::vector<int64_t>& busy = engine.LastSweepThreadBusyNs();
    if (!busy.empty()) {
      const double total = static_cast<double>(
          std::accumulate(busy.begin(), busy.end(), int64_t{0}));
      const double mean = total / static_cast<double>(busy.size());
      if (mean > 0.0) {
        busy_max_over_mean_.push_back(
            static_cast<double>(*std::max_element(busy.begin(), busy.end())) /
            mean);
      }
    }
  }
}

void FitPhase::Finish() {
  while (static_cast<int>(fit_s_.size()) < kMinFits && out_.failed == 0) {
    FitOnce();
  }
  if (options_.trace && setup_ms_.empty()) DriveEngine();
  const double acc =
      first_homes_.empty() ? 0.0 : AccAt100mi(world_, first_homes_);
  out_.Check(acc >= spec_.acc_floor_pct,
             "ACC@100mi " + std::to_string(acc) + "% is below the floor " +
                 std::to_string(spec_.acc_floor_pct) + "%");
  out_.Detail("fits", static_cast<double>(fit_s_.size()), "count");

  if (!options_.trace) {
    out_.Add("fit_s", Median(fit_s_), "s");
    out_.Add("fit_rel_per_s", Median(rel_per_s_), "relationships/s");
    out_.Add("fit_acc_100mi_pct", acc, "%");
    return;
  }
  out_.Add("core.fit_setup_ms", Median(setup_ms_), "ms");
  out_.Add("engine.sweep_ms", Median(sweep_ms_), "ms");
  for (const PhaseName& phase : kPhases) {
    out_.Add(phase.metric, Median(phase_ms_[phase.metric]), "ms");
  }
  out_.Add("engine.unattributed_pct", Median(unattributed_pct_), "%");
  out_.Add("engine.busy_max_over_mean", Median(busy_max_over_mean_),
           "ratio");
  out_.Add("core.mh_accept_ratio", Median(mh_ratio_), "ratio");
  out_.Add("core.active_slot_fraction", Median(active_fraction_), "ratio");
  out_.Detail("traced.fit_s", Median(fit_s_), "s");
  out_.Detail("traced.fit_rel_per_s", Median(rel_per_s_), "relationships/s");
  out_.Detail("traced.fit_acc_100mi_pct", acc, "%");
  out_.Detail("engine_drives", static_cast<double>(setup_ms_.size()),
              "count");
}

}  // namespace perfbench
