#include "core/model.h"

#include <algorithm>
#include <cmath>

#include "common/hash.h"
#include "common/logging.h"
#include "core/candidate_space.h"
#include "core/pair_distance.h"
#include "core/pow_table.h"
#include "core/random_models.h"
#include "engine/parallel_gibbs.h"
#include "obs/fit_profile.h"
#include "obs/metrics.h"
#include "obs/process_stats.h"
#include "obs/trace.h"

namespace mlp {
namespace core {

namespace {

/// Tiles a call into consecutive stage spans: Next() closes the running
/// stage into its counter and opens another, and the destructor closes the
/// last one. Declared before every other local, it is destroyed after them,
/// so tearing down the call's working state is attributed too (to the
/// final stage, or to the stage an error return left from).
class StageClock {
 public:
  StageClock(obs::Counter* counter, const char* name)
      : counter_(counter), name_(name), start_ns_(obs::NowNs()) {}
  StageClock(const StageClock&) = delete;
  StageClock& operator=(const StageClock&) = delete;
  ~StageClock() { obs::EndSpan(counter_, name_, start_ns_); }

  void Next(obs::Counter* counter, const char* name) {
    obs::EndSpan(counter_, name_, start_ns_);
    counter_ = counter;
    name_ = name;
    start_ns_ = obs::NowNs();
  }

 private:
  obs::Counter* counter_;
  const char* name_;
  int64_t start_ns_;
};

constexpr int kEmHistogramBuckets = 3000;  // 1-mile buckets
constexpr double kEmMinPairs = 50.0;
constexpr double kAlphaMin = -2.0;
constexpr double kAlphaMax = -0.05;

// Memory-budget pruning escalation (FitOptions::mem_budget_mb): the first
// over-budget barrier turns pruning on at kBudgetInitialFloor; every
// further over-budget barrier multiplies the floor, capped where pruning
// would start eating clearly-supported slots.
constexpr double kBudgetInitialFloor = 0.02;
constexpr double kBudgetFloorGrowth = 1.5;
constexpr double kBudgetMaxFloor = 0.5;
}  // namespace

uint64_t FitFingerprint(const ModelInput& input, const MlpConfig& config,
                        const CandidateSpace& space) {
  Fnv1a64 f;
  // Config — every pre-pruning field, so a checkpoint can only resume the
  // exact same sweep program (thread count and seed included). The pruning
  // knobs stay out: they are sweep-time policy over this same universe,
  // and the byte stream below must stay identical to the pre-pruning
  // format so v1 snapshots keep verifying.
  f.Value<int32_t>(static_cast<int32_t>(config.source));
  f.Value(config.alpha);
  f.Value(config.beta);
  f.Value<uint8_t>(config.fit_power_law_from_data);
  f.Value(config.rho_f);
  f.Value(config.rho_t);
  f.Value<uint8_t>(config.model_noise);
  f.Value(config.tau);
  f.Value(config.supervision_boost);
  f.Value(config.delta);
  f.Value<uint8_t>(config.use_candidacy);
  f.Value<uint8_t>(config.use_supervision);
  f.Value<int32_t>(config.fallback_top_cities);
  f.Value<int32_t>(config.max_candidates);
  f.Value<int32_t>(config.burn_in_iterations);
  f.Value<int32_t>(config.sampling_iterations);
  f.Value<int32_t>(config.gibbs_em_rounds);
  f.Value(config.em_damping);
  f.Value(config.seed);
  f.Value(config.distance_floor_miles);
  f.Value<int32_t>(config.num_threads);
  f.Value<int32_t>(config.sync_every_sweeps);

  // Observations.
  const graph::SocialGraph& graph = *input.graph;
  f.Value<int32_t>(graph.num_users());
  f.Value<int32_t>(input.num_locations());
  f.Value<int32_t>(graph.num_venues());
  f.Value<int32_t>(graph.num_following());
  f.Value<int32_t>(graph.num_tweeting());
  for (graph::EdgeId s = 0; s < graph.num_following(); ++s) {
    f.Value(graph.following(s).follower);
    f.Value(graph.following(s).friend_user);
  }
  for (graph::EdgeId k = 0; k < graph.num_tweeting(); ++k) {
    f.Value(graph.tweeting(k).user);
    f.Value(graph.tweeting(k).venue);
  }
  f.Span(input.observed_home);

  // Derived candidate universe — the FULL per-user rows (never the pruned
  // view), hashed with the same per-row length prefixes Fnv1a64::Span
  // emitted when these lived in per-user vectors.
  f.Value<uint64_t>(static_cast<uint64_t>(space.num_users()));
  for (graph::UserId u = 0; u < space.num_users(); ++u) {
    const uint64_t count = static_cast<uint64_t>(space.full_count(u));
    f.Value<uint64_t>(count);
    if (count > 0) {
      f.Bytes(space.full_row(u), count * sizeof(geo::CityId));
    }
    f.Value<uint64_t>(count);
    if (count > 0) {
      f.Bytes(space.full_gamma_row(u), count * sizeof(double));
    }
  }
  return f.hash;
}

Status MlpModel::ValidateInput(const ModelInput& input) const {
  if (input.gazetteer == nullptr || input.graph == nullptr ||
      input.distances == nullptr) {
    return Status::InvalidArgument("ModelInput has null components");
  }
  if (!input.graph->finalized()) {
    return Status::FailedPrecondition("graph must be finalized before Fit");
  }
  if (static_cast<int>(input.observed_home.size()) !=
      input.graph->num_users()) {
    return Status::InvalidArgument("observed_home size != num_users");
  }
  for (geo::CityId c : input.observed_home) {
    if (c != geo::kInvalidCity && (c < 0 || c >= input.num_locations())) {
      return Status::InvalidArgument("observed home out of gazetteer range");
    }
  }
  if (config_.source != ObservationSource::kFollowingOnly) {
    if (input.venue_referents == nullptr) {
      return Status::InvalidArgument(
          "venue_referents required when tweeting observations are used");
    }
    if (static_cast<int>(input.venue_referents->size()) <
        input.graph->num_venues()) {
      return Status::InvalidArgument("venue_referents smaller than vocabulary");
    }
  }
  if (config_.burn_in_iterations < 0 || config_.sampling_iterations < 1) {
    return Status::InvalidArgument("need >=0 burn-in and >=1 sampling sweeps");
  }
  if (config_.rho_f < 0.0 || config_.rho_f >= 1.0 || config_.rho_t < 0.0 ||
      config_.rho_t >= 1.0) {
    return Status::InvalidArgument("rho_f/rho_t must be in [0, 1)");
  }
  if (config_.num_threads < 1 || config_.sync_every_sweeps < 1) {
    return Status::InvalidArgument(
        "num_threads and sync_every_sweeps must be >= 1");
  }
  if (config_.prune_floor < 0.0 || config_.prune_floor >= 1.0) {
    return Status::InvalidArgument("prune_floor must be in [0, 1)");
  }
  if (config_.prune_floor > 0.0 && config_.prune_patience < 1) {
    return Status::InvalidArgument("prune_patience must be >= 1");
  }
  return Status::OK();
}

Result<MlpResult> MlpModel::Fit(const ModelInput& input) {
  return Fit(input, FitOptions());
}

Result<MlpResult> MlpModel::Fit(const ModelInput& input,
                                const FitOptions& opts) {
  MLP_RETURN_NOT_OK(ValidateInput(input));
  MlpConfig config = config_;  // mutable: (α, β) evolve during Gibbs-EM

  // The single owner of the candidate universe for this fit: the sampler,
  // the arena layout, the engine's shard costs and the snapshot all read
  // through it (see src/core/README.md).
  CandidateSpace space = CandidateSpace::Build(input, config);
  // The fingerprint pass walks every edge and candidate row; skip it for
  // plain fits that neither resume nor export a checkpoint.
  const bool needs_fingerprint =
      opts.warm_start != nullptr || opts.checkpoint_out != nullptr;
  const uint64_t fingerprint =
      needs_fingerprint ? FitFingerprint(input, config_, space) : 0;

  FitProgress progress;
  if (opts.warm_start != nullptr) {
    if (opts.warm_start->fingerprint != fingerprint) {
      return Status::InvalidArgument(
          "warm-start checkpoint does not match this input/config "
          "(fingerprint mismatch)");
    }
    progress = opts.warm_start->progress;
    // Resume the evolved (α, β) instead of re-fitting from labeled pairs —
    // the initial fit is deterministic from the input, so the restored
    // values already embed it.
    config.alpha = progress.alpha;
    config.beta = progress.beta;
  } else {
    // Sec. 4.1: learn the location-based following model from labeled
    // pairs.
    if (config.fit_power_law_from_data &&
        config.source != ObservationSource::kTweetingOnly) {
      Result<stats::PowerLaw> fit = FitFollowingPowerLaw(
          *input.graph, input.observed_home, *input.distances);
      if (fit.ok()) {
        config.alpha = std::clamp(fit->alpha, kAlphaMin, kAlphaMax);
        config.beta = std::clamp(fit->beta, 1e-9, 1.0);
      }
      // Too little supervision to fit: keep the paper's defaults.
    }
    progress.alpha = config.alpha;
    progress.beta = config.beta;
  }

  RandomModels random_models = RandomModels::Learn(*input.graph);
  PowTable pow_table(input.distances, config.alpha,
                     config.distance_floor_miles);

  Pcg32 rng(config.seed, 0x5bd1e995u);
  GibbsSampler sampler(&input, &config, &space, &random_models, &pow_table);
  // Sweep driver: sequential passthrough at num_threads == 1 (bit-identical
  // to running the sampler directly), sharded delta-merge sweeps otherwise.
  // The engine also owns the sweep-time pruning barrier (MaybePrune).
  engine::ParallelGibbsEngine engine(&sampler, &input, &config, &space);
  if (opts.warm_start != nullptr) {
    // The activation state must land before the sampler state: RestoreState
    // validates every buffer against the space's (possibly compacted)
    // active layout.
    MLP_RETURN_NOT_OK(space.RestoreActivation(opts.warm_start->activation));
    MLP_RETURN_NOT_OK(sampler.RestoreState(opts.warm_start->sampler));
    rng.RestoreState(opts.warm_start->master_rng);
    MLP_RETURN_NOT_OK(
        engine.RestoreShardRngStates(opts.warm_start->shard_rngs));
    // A pruned fit resharded by candidate-product cost after each
    // compaction; re-deriving the shards from the restored space replays
    // the exact partition the uninterrupted run was using at the cut.
    engine.OnActivationRestored();
  } else {
    engine.Initialize(&rng);
  }

  const int rounds = std::max(0, config.gibbs_em_rounds) + 1;
  const int burn = config.burn_in_iterations;
  const int sampling = config.sampling_iterations;
  const int per_round = burn + sampling;
  // Budget accounting is global over the program, so a resumed fit counts
  // the checkpointed sweeps as already spent.
  auto sweeps_done = [&]() {
    return progress.round * per_round + progress.burn_in_done +
           progress.sampling_done;
  };
  auto budget_exhausted = [&]() {
    return opts.max_total_sweeps >= 0 &&
           sweeps_done() >= opts.max_total_sweeps;
  };

  // ---- memory accounting + budget enforcement (mem_budget_mb) ----
  // Exact AccountedBytes() walks, published as gauges so /statsz and
  // `mlpctl fit --profile` can watch the budget hold. The walk is
  // O(edges), so it runs at merged barriers only.
  obs::Registry& registry = obs::Registry::Global();
  obs::Gauge* const arena_bytes_gauge =
      registry.GetGauge(obs::kMemArenaBytes);
  obs::Gauge* const candidate_bytes_gauge =
      registry.GetGauge(obs::kMemCandidateBytes);
  obs::Gauge* const accounted_bytes_gauge =
      registry.GetGauge(obs::kMemFitAccountedBytes);
  obs::Gauge* const budget_bytes_gauge =
      registry.GetGauge(obs::kMemFitBudgetBytes);
  obs::Counter* const budget_tighten_total =
      registry.GetCounter(obs::kFitBudgetTightenTotal);
  const int64_t mem_budget_bytes =
      static_cast<int64_t>(std::max(0, opts.mem_budget_mb)) * 1024 * 1024;
  budget_bytes_gauge->Set(mem_budget_bytes);
  auto publish_accounting = [&]() {
    const int64_t candidate = space.AccountedBytes();
    const int64_t arena = sampler.AccountedBytes() + engine.AccountedBytes();
    candidate_bytes_gauge->Set(candidate);
    arena_bytes_gauge->Set(arena);
    accounted_bytes_gauge->Set(candidate + arena);
    obs::UpdateProcessRssGauges();
    return candidate + arena;
  };
  // Over budget at a merged burn-in barrier: ratchet the pruning schedule
  // (shared with the engine through `config`) so the following
  // MaybePrune barriers deactivate more slots. Enforcement never fires
  // during sampling — the accumulators need one fixed support — so the
  // footprint must be argued down during burn-in.
  auto maybe_tighten_budget = [&]() {
    if (mem_budget_bytes <= 0 || !engine.IsSynchronized()) return;
    if (publish_accounting() <= mem_budget_bytes) return;
    budget_tighten_total->Add(1);
    config.prune_floor =
        config.prune_floor <= 0.0
            ? kBudgetInitialFloor
            : std::min(kBudgetMaxFloor,
                       config.prune_floor * kBudgetFloorGrowth);
    config.prune_patience = 1;
    MLP_LOG(kInfo) << "fit over memory budget ("
                   << accounted_bytes_gauge->Value() / (1024 * 1024)
                   << " MB accounted > " << opts.mem_budget_mb
                   << " MB): prune_floor -> " << config.prune_floor;
  };

  bool budget_hit = false;
  while (progress.round < rounds && !budget_hit) {
    while (progress.burn_in_done < burn) {
      // Checkpoints are only cut at merged barriers: with
      // sync_every_sweeps > 1 the stop rolls forward to the next merge, so
      // the saved state is exactly the state an uninterrupted run has at
      // that barrier.
      if (budget_exhausted() && engine.IsSynchronized()) {
        budget_hit = true;
        break;
      }
      engine.RunSweep(&rng);
      ++progress.burn_in_done;
      maybe_tighten_budget();
      // Adaptive candidate pruning fires only at merged burn-in barriers,
      // so the sampled posterior (and the accumulators) always run over one
      // fixed support. No-op unless config.prune_floor > 0.
      engine.MaybePrune(sweeps_done());
    }
    if (budget_hit) break;
    engine.Synchronize();
    if (progress.sampling_done == 0) sampler.ResetAccumulators();
    while (progress.sampling_done < sampling) {
      if (budget_exhausted()) {  // always synchronized in this phase
        budget_hit = true;
        break;
      }
      engine.RunSweep(&rng);
      // Accumulation reads the global counts, so any pending replica
      // deltas must land first (no-op at sync_every_sweeps == 1).
      engine.Synchronize();
      sampler.AccumulateSample();
      ++progress.sampling_done;
    }
    if (budget_hit) break;

    if (progress.round + 1 < rounds &&
        config.source != ObservationSource::kTweetingOnly) {
      // Gibbs-EM M-step (Sec. 4.5): rebuild the Fig-3a curve with the
      // expected assignment distances as the numerator and the OBSERVED
      // labeled pair distances as the denominator. Both sides are
      // restricted to labeled users so the ratio compares consistent
      // populations (estimated homes of unlabeled users would bias the
      // denominator toward wherever the model currently errs).
      std::vector<double> edge_hist =
          sampler.AssignmentDistanceHistogram(kEmHistogramBuckets);
      std::vector<double> pair_hist = PairDistanceHistogram(
          input.observed_home, *input.distances, 1.0, kEmHistogramBuckets);
      Result<stats::PowerLaw> fit = stats::FitPowerLaw(
          stats::RatioCurve(edge_hist, pair_hist, kEmMinPairs));
      if (fit.ok()) {
        // Damped move on the slope α; see MlpConfig::em_damping.
        double damping = std::clamp(config.em_damping, 0.0, 1.0);
        double target_alpha = std::clamp(fit->alpha, kAlphaMin, kAlphaMax);
        config.alpha += damping * (target_alpha - config.alpha);
        // β by moment matching rather than the regression intercept: pick
        // the scale that preserves the observed location-edge mass,
        // Σ_d pairs(d)·β·d^α = Σ_d edges(d). The intercept-based β drifts
        // upward round over round (the assignment histogram concentrates
        // near the floor), which unbalances the μ update's noise branch.
        double edge_mass = 0.0, kernel_mass = 0.0;
        for (size_t d = 0; d < edge_hist.size(); ++d) {
          edge_mass += edge_hist[d];
          kernel_mass += pair_hist[d] * std::pow(static_cast<double>(d) + 0.5,
                                                 config.alpha);
        }
        if (edge_mass > 0.0 && kernel_mass > 0.0) {
          config.beta = std::clamp(edge_mass / kernel_mass, 1e-9, 1.0);
        }
        pow_table.Rebuild(config.alpha);
      }
    }
    ++progress.round;
    progress.burn_in_done = 0;
    progress.sampling_done = 0;
  }

  publish_accounting();
  progress.alpha = config.alpha;
  progress.beta = config.beta;
  if (opts.checkpoint_out != nullptr) {
    FitCheckpoint* ck = opts.checkpoint_out;
    ck->config = config_;
    ck->fingerprint = fingerprint;
    ck->complete = progress.round >= rounds;
    ck->progress = progress;
    sampler.SaveState(&ck->sampler);
    ck->master_rng = rng.SaveState();
    ck->shard_rngs = engine.ShardRngStates();
    ck->activation = space.SaveActivation();
  }

  MlpResult result = sampler.BuildResult();
  result.alpha = config.alpha;
  result.beta = config.beta;
  return result;
}

Result<MlpResult> MlpModel::ApplyDelta(const ModelInput& base_input,
                                       const ModelInput& merged_input,
                                       const MlpResult& base_result,
                                       const FitOptions& opts,
                                       DeltaReport* report_out) {
  // The ingest stages tile this call (src/stream/README.md). Migration and
  // resample set-up interleave: the chain is adopted between building the
  // warm machinery and partitioning it.
  obs::Registry& registry = obs::Registry::Global();
  obs::Counter* migrate_ns = registry.GetCounter(obs::kIngestMigrateNs);
  obs::Counter* setup_ns = registry.GetCounter(obs::kIngestResampleSetupNs);
  StageClock stage(migrate_ns, "ingest_migrate");

  MLP_RETURN_NOT_OK(ValidateInput(merged_input));
  if (opts.warm_start == nullptr) {
    return Status::InvalidArgument(
        "ApplyDelta requires options.warm_start (the base checkpoint)");
  }
  if (opts.delta_burn_sweeps < 0 || opts.delta_sampling_sweeps < 1) {
    return Status::InvalidArgument(
        "need >= 0 delta burn and >= 1 delta sampling sweeps");
  }
  const FitCheckpoint& base = *opts.warm_start;
  const graph::SocialGraph& old_graph = *base_input.graph;
  const graph::SocialGraph& new_graph = *merged_input.graph;
  const int old_users = old_graph.num_users();
  const int merged_users = new_graph.num_users();
  const int s_old = old_graph.num_following();
  const int s_new = new_graph.num_following();
  const int k_old = old_graph.num_tweeting();
  const int k_new = new_graph.num_tweeting();
  const bool use_following = config_.source != ObservationSource::kTweetingOnly;
  const bool use_tweeting = config_.source != ObservationSource::kFollowingOnly;
  if (merged_users < old_users || s_new < s_old || k_new < k_old) {
    return Status::InvalidArgument(
        "merged input does not extend the base input");
  }
  if (static_cast<int>(base_result.home.size()) != old_users ||
      (use_following &&
       static_cast<int>(base_result.following.size()) != s_old) ||
      (use_tweeting &&
       static_cast<int>(base_result.tweeting.size()) != k_old)) {
    return Status::InvalidArgument(
        "base result does not match the base input's shape");
  }
  if ((use_following &&
       (base.sampler.mu.size() != static_cast<size_t>(s_old) ||
        base.sampler.x_idx.size() != static_cast<size_t>(s_old) ||
        base.sampler.y_idx.size() != static_cast<size_t>(s_old))) ||
      (use_tweeting &&
       (base.sampler.nu.size() != static_cast<size_t>(k_old) ||
        base.sampler.z_idx.size() != static_cast<size_t>(k_old)))) {
    return Status::InvalidArgument(
        "base checkpoint sampler state does not match the base input");
  }
  // Counts extending is not enough: the chain is remapped edge index by
  // edge index, so the merged graph must carry the base edges as an
  // UNCHANGED prefix (stream::MergeDelta's contract). An interleaved or
  // reordered merge would silently pair assignments with the wrong edges.
  for (graph::EdgeId s = 0; s < s_old; ++s) {
    const graph::FollowingEdge& a = old_graph.following(s);
    const graph::FollowingEdge& b = new_graph.following(s);
    if (a.follower != b.follower || a.friend_user != b.friend_user) {
      return Status::InvalidArgument(
          "merged input does not carry the base following edges as an "
          "unchanged prefix");
    }
  }
  for (graph::EdgeId k = 0; k < k_old; ++k) {
    const graph::TweetingEdge& a = old_graph.tweeting(k);
    const graph::TweetingEdge& b = new_graph.tweeting(k);
    if (a.user != b.user || a.venue != b.venue) {
      return Status::InvalidArgument(
          "merged input does not carry the base tweeting edges as an "
          "unchanged prefix");
    }
  }
  for (graph::UserId u = 0; u < old_users; ++u) {
    if (merged_input.observed_home[u] != base_input.observed_home[u]) {
      return Status::InvalidArgument(
          "merged input changes an existing user's observed home — a delta "
          "may only append");
    }
  }

  // The base checkpoint must genuinely belong to `base_input` — the same
  // guard Fit's warm start applies, against the BASE universe.
  CandidateSpace old_space = CandidateSpace::Build(base_input, config_);
  if (FitFingerprint(base_input, config_, old_space) != base.fingerprint) {
    return Status::InvalidArgument(
        "base checkpoint does not match the base input/config "
        "(fingerprint mismatch)");
  }
  MLP_RETURN_NOT_OK(old_space.RestoreActivation(base.activation));
  const SuffStatsLayout& old_layout = old_space.layout();
  if (static_cast<int64_t>(base.sampler.phi.size()) != old_layout.phi_size() ||
      base.sampler.phi_total.size() != static_cast<size_t>(old_users) ||
      static_cast<int64_t>(base.sampler.venue_counts.size()) !=
          old_layout.venue_size() ||
      base.sampler.venue_counts_total.size() !=
          static_cast<size_t>(old_layout.num_venues > 0
                                  ? old_layout.num_locations
                                  : 0)) {
    return Status::InvalidArgument(
        "base checkpoint counts do not match the base candidate layout");
  }

  DeltaReport report;
  report.new_users = merged_users - old_users;
  report.new_following = s_new - s_old;
  report.new_tweeting = k_new - k_old;

  // Derive the merged candidate universe from the base one: BuildPriors is
  // per user and reads only the user's own label, its neighbors' labels
  // and its tweeted venues, and existing labels cannot change — so only
  // new users and endpoints of appended edges can get a different row.
  // Everyone else's row is carried verbatim (pruned slots stay pruned,
  // streaks continue).
  std::vector<uint8_t> touched(merged_users, 0);
  std::vector<graph::UserId> rederive;
  for (graph::EdgeId s = s_old; s < s_new; ++s) {
    const graph::FollowingEdge& edge = new_graph.following(s);
    rederive.push_back(edge.follower);
    rederive.push_back(edge.friend_user);
    if (use_following) {
      touched[edge.follower] = 1;
      touched[edge.friend_user] = 1;
    }
  }
  for (graph::EdgeId k = k_old; k < k_new; ++k) {
    rederive.push_back(new_graph.tweeting(k).user);
    if (use_tweeting) touched[new_graph.tweeting(k).user] = 1;
  }
  for (graph::UserId u = old_users; u < merged_users; ++u) {
    rederive.push_back(u);
    touched[u] = 1;
  }
  std::sort(rederive.begin(), rederive.end());
  rederive.erase(std::unique(rederive.begin(), rederive.end()),
                 rederive.end());
  // Stale rows (the user's γ changed, so it must resample).
  std::vector<graph::UserId> changed;
  CandidateSpace space = CandidateSpace::Extend(old_space, merged_input,
                                                config_, rederive, &changed);
  report.migrated_rows = static_cast<int32_t>(changed.size());
  for (graph::UserId u : changed) touched[u] = 1;

  // Migrate the chain. A user whose row and activation were carried keeps
  // its active row slot for slot, so its assignments carry over as they
  // are; only the assignments of stale rows are re-found by city in the
  // merged active row. A vanished slot (the row lost that city, or
  // carried it pruned) redirects to the user's best prior slot — the user
  // is stale anyway and resamples immediately.
  auto redirect_slot = [&](graph::UserId u) -> int32_t {
    const CandidateView& view = space.view(u);
    int best = 0;
    double best_gamma = -1.0;
    for (int l = 0; l < view.size(); ++l) {
      if (view.gamma[l] > best_gamma) {
        best_gamma = view.gamma[l];
        best = l;
      }
    }
    return best;
  };
  auto remap = [&](graph::UserId u, int32_t* slot) -> Status {
    const CandidateView& old_view = old_space.view(u);
    if (*slot < 0 || *slot >= old_view.size()) {
      return Status::InvalidArgument(
          "base checkpoint assignment index out of candidate range");
    }
    const int nl = space.SlotOf(u, old_view.candidates[*slot]);
    if (nl >= 0) {
      *slot = nl;
    } else {
      *slot = redirect_slot(u);
      ++report.redirected_assignments;
    }
    return Status::OK();
  };
  MigratedChain chain;
  chain.home_change_per_sweep = base.sampler.home_change_per_sweep;
  chain.venue_counts = base.sampler.venue_counts;
  chain.venue_counts_total = base.sampler.venue_counts_total;
  if (use_following) {
    chain.mu = base.sampler.mu;
    chain.x_idx = base.sampler.x_idx;
    chain.y_idx = base.sampler.y_idx;
  }
  if (use_tweeting) {
    chain.nu = base.sampler.nu;
    chain.z_idx = base.sampler.z_idx;
  }
  for (graph::UserId u : changed) {
    if (use_following) {
      for (graph::EdgeId s : new_graph.OutEdges(u)) {
        if (s < s_old) MLP_RETURN_NOT_OK(remap(u, &chain.x_idx[s]));
      }
      for (graph::EdgeId s : new_graph.InEdges(u)) {
        if (s < s_old) MLP_RETURN_NOT_OK(remap(u, &chain.y_idx[s]));
      }
    }
    if (use_tweeting) {
      for (graph::EdgeId k : new_graph.TweetEdges(u)) {
        if (k >= k_old) continue;
        const int32_t old_slot = chain.z_idx[k];
        MLP_RETURN_NOT_OK(remap(u, &chain.z_idx[k]));
        const geo::CityId from = old_space.view(u).candidates[old_slot];
        const geo::CityId to = space.view(u).candidates[chain.z_idx[k]];
        if (chain.nu[k] == 0 && from != to) {
          // A redirected location-based tweet moves its venue count.
          const graph::VenueId v = new_graph.tweeting(k).venue;
          const int64_t venues = space.layout().num_venues;
          chain.venue_counts[static_cast<int64_t>(from) * venues + v] -= 1.0;
          chain.venue_counts_total[from] -= 1.0;
          chain.venue_counts[static_cast<int64_t>(to) * venues + v] += 1.0;
          chain.venue_counts_total[to] += 1.0;
        }
      }
    }
  }
  for (uint8_t t : touched) report.touched_users += t;

  // A genuinely empty delta is a strict no-op: base result and checkpoint
  // come back unchanged, so re-snapshotting is bit-identical.
  if (report.touched_users == 0) {
    report.user_resampled.assign(merged_users, 0);
    report.following_resampled.assign(use_following ? s_new : 0, 0);
    report.tweeting_resampled.assign(use_tweeting ? k_new : 0, 0);
    report.shards_total =
        config_.num_threads <= 1 ? 1 : config_.num_threads;
    report.phi_offset = space.layout().phi_offset;
    report.candidates = space.active_candidates();
    if (opts.checkpoint_out != nullptr) *opts.checkpoint_out = base;
    if (report_out != nullptr) *report_out = std::move(report);
    return base_result;
  }

  // Counts: every untouched user's ϕ row is the base row (same slots,
  // same assignments), moved to its merged offset in contiguous runs; the
  // touched users' rows are rebuilt from the chain on adoption.
  for (graph::UserId u = 0; u < merged_users; ++u) {
    if (touched[u]) chain.recount.push_back(u);
  }
  const SuffStatsLayout& layout = space.layout();
  chain.phi.assign(layout.phi_size(), 0.0);
  auto carry_phi = [&](graph::UserId begin, graph::UserId end) {
    if (begin >= end) return;
    std::copy(base.sampler.phi.begin() + old_layout.phi_offset[begin],
              base.sampler.phi.begin() + old_layout.phi_offset[end],
              chain.phi.begin() + layout.phi_offset[begin]);
  };
  graph::UserId run_begin = 0;
  for (graph::UserId u : chain.recount) {
    if (u >= old_users) break;
    carry_phi(run_begin, u);
    run_begin = u + 1;
  }
  carry_phi(run_begin, old_users);
  chain.phi_total = base.sampler.phi_total;
  chain.phi_total.resize(merged_users, 0.0);
  stage.Next(setup_ns, "ingest_resample_setup");

  // Warm machinery over the merged world. (α, β) resume from the base
  // fit's evolved values, exactly like Fit's warm-start path.
  MlpConfig config = config_;
  config.alpha = base.progress.alpha;
  config.beta = base.progress.beta;
  RandomModels random_models = RandomModels::Learn(*merged_input.graph);
  PowTable pow_table(merged_input.distances, config.alpha,
                     config.distance_floor_miles);
  GibbsSampler sampler(&merged_input, &config, &space, &random_models,
                       &pow_table);
  // Ownership for the resample pass: the cost-weighted partition over the
  // merged graph's ACTIVE candidate products, with the touched users
  // packed into the fewest shards their cost warrants
  // (GraphSharder::PartitionGrouped). Touched work still spreads across
  // those dedicated shards' threads, while the rest of the world stays in
  // shards the resample never selects — the partition is a
  // parallelization artifact, so concentrating the hot set changes
  // nothing about the chain's validity, only how little of it reruns.
  std::vector<engine::Shard> partition;
  if (config.num_threads > 1) {
    std::vector<double> cost(merged_users, 0.0);
    if (use_following) {
      for (graph::EdgeId s = 0; s < s_new; ++s) {
        const graph::FollowingEdge& edge = new_graph.following(s);
        cost[edge.follower] +=
            static_cast<double>(space.view(edge.follower).size()) *
            static_cast<double>(space.view(edge.friend_user).size());
      }
    }
    if (use_tweeting) {
      for (graph::EdgeId t = 0; t < k_new; ++t) {
        const graph::TweetingEdge& edge = new_graph.tweeting(t);
        cost[edge.user] += static_cast<double>(space.view(edge.user).size());
      }
    }
    double total_cost = 0.0;
    double touched_cost = 0.0;
    for (graph::UserId u = 0; u < merged_users; ++u) {
      total_cost += cost[u];
      if (touched[u]) touched_cost += cost[u];
    }
    const int threads = config.num_threads;
    const int touched_shards =
        total_cost > 0.0
            ? std::clamp(static_cast<int>(std::ceil(
                             touched_cost / total_cost * threads)),
                         1, threads)
            : 1;
    partition = engine::GraphSharder::PartitionGrouped(
        new_graph, threads, touched_shards, cost, touched);
  }
  engine::ParallelGibbsEngine engine(&sampler, &merged_input, &config, &space,
                                     std::move(partition));
  stage.Next(migrate_ns, "ingest_migrate");

  // Appended edges draw their seed assignments from a stream derived from
  // (seed, delta shape) — a pure function of the inputs, so ingesting a
  // loaded snapshot replays byte-for-byte the same chain as ingesting the
  // in-memory checkpoint.
  Pcg32 init_rng(
      config.seed ^ (0x9e3779b97f4a7c15ULL *
                     (static_cast<uint64_t>(s_new - s_old) + 1)),
      0x94d049bb133111ebULL + 2 * (static_cast<uint64_t>(k_new - k_old) + 1));
  MLP_RETURN_NOT_OK(sampler.AdoptMigratedChain(std::move(chain), &init_rng));
  stage.Next(setup_ns, "ingest_resample_setup");

  Pcg32 rng(config.seed, 0x5bd1e995u);
  rng.RestoreState(base.master_rng);
  MLP_RETURN_NOT_OK(engine.RestoreShardRngStates(base.shard_rngs));
  const int num_shards =
      engine.num_threads() <= 1 ? 1 : static_cast<int>(engine.shards().size());
  std::vector<uint8_t> shard_touched(num_shards, 0);
  if (num_shards == 1) {
    shard_touched[0] = 1;
  } else {
    for (int k = 0; k < num_shards; ++k) {
      for (graph::UserId u : engine.shards()[k].users) {
        if (touched[u]) shard_touched[k] = 1;
      }
    }
  }
  std::vector<int> shard_set;
  for (int k = 0; k < num_shards; ++k) {
    if (shard_touched[k]) shard_set.push_back(k);
  }
  report.shards_total = num_shards;
  report.shards_touched = static_cast<int32_t>(shard_set.size());
  MLP_RETURN_NOT_OK(engine.BeginShardResample(shard_set));
  stage.Next(registry.GetCounter(obs::kIngestResampleNs), "ingest_resample");

  // Accumulators are fresh from the adoption. Only the pass's own rows
  // move, so only they accumulate; the held rows are closed in one step
  // below.
  for (int it = 0; it < opts.delta_burn_sweeps; ++it) {
    engine.ResampleShards(&rng);
  }
  for (int it = 0; it < opts.delta_sampling_sweeps; ++it) {
    engine.ResampleShards(&rng);
    sampler.AccumulateSample(engine.resample_users(),
                             engine.resample_following(),
                             engine.resample_tweeting());
  }
  // Result merge, through the teardown of the warm machinery.
  stage.Next(registry.GetCounter(obs::kIngestResultMergeNs),
             "ingest_result_merge");
  report.user_resampled = engine.resample_user_mask();
  report.following_resampled = engine.resample_following_mask();
  report.tweeting_resampled = engine.resample_tweeting_mask();

  // Merge: resampled users/edges take the refreshed posterior; everything
  // else keeps the base fit's rows verbatim (their counts never moved).
  // Every new user and edge is touched, hence resampled.
  MlpResult result = base_result;
  result.profiles.resize(merged_users);
  result.home.resize(merged_users);
  result.following.resize(use_following ? s_new : 0);
  result.tweeting.resize(use_tweeting ? k_new : 0);
  sampler.BuildResultRows(engine.resample_users(), engine.resample_following(),
                          engine.resample_tweeting(), &result);

  if (opts.checkpoint_out != nullptr) {
    FitCheckpoint* ck = opts.checkpoint_out;
    ck->config = config_;
    ck->fingerprint = FitFingerprint(merged_input, config_, space);
    ck->complete = base.complete;
    ck->progress = base.progress;
    // The held rows' accumulators, in closed form: they equal what
    // accumulating every row in every sampling sweep would have summed.
    sampler.CloseHeldAccumulators(report.user_resampled,
                                  report.following_resampled,
                                  report.tweeting_resampled);
    sampler.MoveStateTo(&ck->sampler);
    ck->master_rng = rng.SaveState();
    ck->shard_rngs = engine.ShardRngStates();
    ck->activation = space.SaveActivation();
  }
  engine.EndShardResample();
  report.phi_offset = space.layout().phi_offset;
  report.candidates = space.active_candidates();
  if (report_out != nullptr) *report_out = std::move(report);
  return result;
}

}  // namespace core
}  // namespace mlp
