#ifndef MLP_CORE_CANDIDATE_SPACE_H_
#define MLP_CORE_CANDIDATE_SPACE_H_

#include <cstdint>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "core/input.h"
#include "core/model_config.h"
#include "core/priors.h"
#include "core/suff_stats.h"
#include "stats/alias_table.h"

namespace mlp {
namespace core {

/// Read-only view of one user's ACTIVE candidate row inside a
/// CandidateSpace: sorted candidate cities, their (renormalized) γ prior
/// and its sum. The pointers alias the space's flat buffers and are
/// refreshed by every compaction — hold the space, not the view, across
/// sync barriers.
struct CandidateView {
  const geo::CityId* candidates = nullptr;
  const double* gamma = nullptr;
  int count = 0;
  double gamma_sum = 0.0;

  int size() const { return count; }
  /// Active slot of `city`, or -1. Same binary search as every other
  /// candidate→slot lookup (FindCandidateSlot).
  int IndexOf(geo::CityId city) const {
    return FindCandidateSlot(candidates, count, city);
  }
};

/// One sweep-time pruning compaction, kept for observability and persisted
/// in snapshot v2 so a resumed fit knows the full deactivation lineage.
struct PruneEvent {
  int32_t sweep = 0;        // global sweep index the barrier fired at
  int32_t deactivated = 0;  // slots deactivated at that barrier
};

/// The persistable activation state of a CandidateSpace, relative to the
/// FULL universe (which is a pure function of (input, config) and is never
/// stored). An empty `active` mask means "fully active" — exactly how
/// snapshot v1 files, which predate pruning, are interpreted.
struct CandidateActivation {
  std::vector<uint8_t> active;       // per full slot; empty = all active
  std::vector<int32_t> cold_streak;  // per full slot; empty = all zero
  uint64_t layout_version = 0;
  std::vector<PruneEvent> history;
};

/// Slot remapping produced by one PruneStep compaction, expressed over the
/// PREVIOUS active layout so the sampler can move its arena values and
/// chain indices into the new one.
struct CompactionPlan {
  std::vector<int64_t> old_offset;  // active CSR prefix before compaction
  std::vector<int32_t> remap;       // old active slot -> new local index, -1
};

/// Single owner of the candidate universe (ISSUE 3 / ROADMAP "candidate-set
/// pruning"). Holds, for every user:
///   - the FULL candidate row built once from the Sec-4.3 candidacy rules
///     (BuildPriors) — immutable, rebuildable from (input, config), and the
///     thing FitFingerprint binds a checkpoint to;
///   - a per-slot ACTIVE mask plus the derived compacted CSR (sorted
///     cities, renormalized γ, per-user γ sums) that the sampler, the
///     SuffStatsArena layout, the engine's shard costs and the snapshot's
///     candidate section are all views of;
///   - a monotonically increasing `layout_version` bumped by every
///     compaction, so downstream consumers (engine replicas today,
///     streaming updates and the serving layer per ROADMAP) can detect a
///     stale layout instead of desynchronizing.
///
/// Ownership rule: nothing else copies the candidate lists. UserPrior is
/// the construction-time artifact consumed by Build; GibbsSampler,
/// SuffStatsArena (through layout()), ParallelGibbsEngine and
/// io::MakeModelSnapshot all read through this class.
class CandidateSpace {
 public:
  /// Builds the full universe via BuildPriors(input, config) and starts
  /// fully active (layout_version 0). The active view is then bit-identical
  /// to the priors BuildPriors returned.
  static CandidateSpace Build(const ModelInput& input, const MlpConfig& config);

  /// The space of a delta-merged world (core::MlpModel::ApplyDelta),
  /// derived from `base` — the space of the world `merged` extends, its
  /// activation restored — instead of rebuilt: BuildPriors is per user, so
  /// only the rows the delta reaches can differ. Users in `rederive`
  /// (ascending; every user at or past base.num_users() must be listed)
  /// get BuildUserPrior rows over `merged`; everyone else keeps base's full
  /// row, activation and cold streaks verbatim. A re-derived existing row
  /// that differs from base's is appended to `*changed`: each surviving
  /// city keeps its activation and streak, new cities start active, and
  /// the whole row reopens if nothing in it would stay active. New users
  /// start fully active. `layout_version` is base's + 1 — one ingest is
  /// one layout generation — and the prune history carries over.
  static CandidateSpace Extend(const CandidateSpace& base,
                               const ModelInput& merged,
                               const MlpConfig& config,
                               const std::vector<graph::UserId>& rederive,
                               std::vector<graph::UserId>* changed);

  CandidateSpace() = default;
  /// Move-only: views_ holds raw pointers into the flat buffers, which
  /// vector moves preserve but copies would leave aliasing the source.
  CandidateSpace(CandidateSpace&&) = default;
  CandidateSpace& operator=(CandidateSpace&&) = default;
  CandidateSpace(const CandidateSpace&) = delete;
  CandidateSpace& operator=(const CandidateSpace&) = delete;

  // ---- full (immutable) universe ----
  int num_users() const { return static_cast<int>(full_offset_.size()) - 1; }
  int64_t full_size() const { return full_offset_.back(); }
  int full_count(graph::UserId u) const {
    return static_cast<int>(full_offset_[u + 1] - full_offset_[u]);
  }
  const geo::CityId* full_row(graph::UserId u) const {
    return full_candidates_.data() + full_offset_[u];
  }
  const double* full_gamma_row(graph::UserId u) const {
    return full_gamma_.data() + full_offset_[u];
  }
  double full_gamma_sum(graph::UserId u) const { return full_gamma_sum_[u]; }

  // ---- active view ----
  /// Arena shape over the active slots. The object lives inside the space,
  /// so arenas bound to &layout() stay bound across compactions (the
  /// offsets mutate in place; value buffers are rebuilt by the sampler).
  const SuffStatsLayout& layout() const { return layout_; }
  const CandidateView& view(graph::UserId u) const { return views_[u]; }
  /// Every user's active candidates, concatenated in layout() order — the
  /// city behind each flat ϕ slot.
  const std::vector<geo::CityId>& active_candidates() const {
    return candidates_;
  }
  uint64_t layout_version() const { return version_; }
  int64_t active_size() const { return layout_.phi_size(); }
  /// Fraction of the full universe still active (1.0 before any prune).
  double ActiveFraction() const;
  const std::vector<PruneEvent>& history() const { return history_; }

  /// Active slot of `city` for user `u`, or -1. THE candidate→slot lookup:
  /// all callers route through here (or the view's IndexOf) so there is a
  /// single binary-search implementation in the codebase.
  int SlotOf(graph::UserId u, geo::CityId city) const {
    return views_[u].IndexOf(city);
  }

  // ---- adaptive pruning ----
  /// One sync-barrier pruning pass against the merged global counts:
  /// updates every active slot's below-floor streak ((ϕ+γ)/(ϕ_tot+Σγ)
  /// against config.prune_floor) and deactivates slots cold for
  /// config.prune_patience consecutive barriers. A slot survives
  /// unconditionally while it holds live assignments (ϕ > 0), is the
  /// user's current posterior argmax, or carries a supervision-boosted γ.
  /// Returns true iff anything was deactivated, in which case the active
  /// view has been compacted, γ renormalized over the survivors (per-user
  /// Σγ preserved), `layout_version` bumped, and `plan` filled so the
  /// sampler can follow (GibbsSampler::ApplyCompaction).
  bool PruneStep(const SuffStatsArena& stats, const MlpConfig& config,
                 int32_t sweep, CompactionPlan* plan);

  /// Exact allocated bytes of the space: full universe, activation state
  /// and the derived active view (offsets, candidates, γ, per-user views).
  int64_t AccountedBytes() const {
    return VectorBytes(full_offset_) + VectorBytes(full_candidates_) +
           VectorBytes(full_gamma_) + VectorBytes(full_gamma_sum_) +
           VectorBytes(active_) + VectorBytes(cold_streak_) +
           VectorBytes(history_) + VectorBytes(layout_.phi_offset) +
           VectorBytes(candidates_) + VectorBytes(gamma_) +
           VectorBytes(gamma_sum_) + VectorBytes(active_full_idx_) +
           VectorBytes(views_);
  }

  // ---- persistence (snapshot v2) ----
  CandidateActivation SaveActivation() const;
  /// Restores a persisted activation state onto a freshly built space:
  /// validates the mask against the full universe, then rebuilds the
  /// compacted view. An empty mask (v1 snapshots) restores fully active.
  Status RestoreActivation(const CandidateActivation& activation);

 private:
  /// Rebuilds the active CSR, γ (renormalized when a row lost slots) and
  /// the per-user views from the mask.
  void RebuildActiveView();

  // Full universe (set once by Build).
  std::vector<int64_t> full_offset_;
  std::vector<geo::CityId> full_candidates_;
  std::vector<double> full_gamma_;
  std::vector<double> full_gamma_sum_;
  int32_t num_locations_ = 0;
  int32_t num_venues_ = 0;

  // Activation state.
  std::vector<uint8_t> active_;       // per full slot
  std::vector<int32_t> cold_streak_;  // per full slot
  uint64_t version_ = 0;
  std::vector<PruneEvent> history_;

  // Derived active view.
  SuffStatsLayout layout_;
  std::vector<geo::CityId> candidates_;    // flat, active slots
  std::vector<double> gamma_;              // flat, active slots
  std::vector<double> gamma_sum_;          // per user
  std::vector<int64_t> active_full_idx_;   // active slot -> full slot
  std::vector<CandidateView> views_;
};

/// Per-user O(1) proposal draws for the parallel engine's alias-MH fast
/// kernels (GibbsSampler::Sample*EdgeFast): one Walker alias table per
/// ACTIVE candidate row, all stored flat over the space's layout, built
/// from epoch-stale θ̃ weights (ϕ + γ at the last merged sync barrier).
///
/// The stored per-slot weight `Weight(u, slot)` is exposed alongside the
/// draw so the Metropolis–Hastings acceptance ratio can correct the
/// staleness exactly: proposals are drawn from the stale distribution, the
/// target uses live replica counts, and α = min(1, t(l')·ŵ(l) /
/// (t(l)·ŵ(l'))) keeps the chain's stationary distribution exact for the
/// current counts. γ > 0 on every active slot (BuildPriors floors it at
/// config.tau), so the stale proposal's support always covers the target's.
///
/// Epoch-rebuild invariants (see src/engine/README.md): the engine rebuilds
/// every row at each merged sync barrier, after every compaction (the
/// layout changed — Bind first), and after a warm-start restore. Rebuilds
/// of disjoint user ranges are thread-safe; draws are safe concurrently
/// with no writer.
class ProposalTables {
 public:
  /// (Re)binds to the space's current active layout and sizes the flat
  /// buffers. Rows hold garbage until RebuildRange covers them.
  void Bind(const CandidateSpace* space);

  bool bound() const { return space_ != nullptr; }
  uint64_t layout_version() const { return layout_version_; }

  /// Rebuilds users [u_begin, u_end) from the merged counts in `arena`.
  /// Weights are ϕ + γ clamped at zero (deferred-sync folds can leave a
  /// replica transiently below a stale global row; see the engine README).
  void RebuildRange(const SuffStatsArena& arena, graph::UserId u_begin,
                    graph::UserId u_end, stats::AliasBuildScratch* scratch);

  /// One O(1) draw of an active slot of user `u` from the stale θ̃ row.
  int Sample(graph::UserId u, Pcg32* rng) const {
    const int64_t off = space_->layout().phi_offset[u];
    const int n = space_->layout().candidate_count(u);
    if (n <= 1) return 0;
    return stats::AliasTable::SampleFrom(prob_.data() + off,
                                         alias_.data() + off, n, rng);
  }

  /// The stale weight the row was built from (unnormalized within the row).
  double Weight(graph::UserId u, int slot) const {
    return w_[space_->layout().phi_offset[u] + slot];
  }

  int64_t AccountedBytes() const {
    return VectorBytes(prob_) + VectorBytes(alias_) + VectorBytes(w_);
  }

 private:
  const CandidateSpace* space_ = nullptr;
  uint64_t layout_version_ = 0;
  std::vector<double> prob_;     // flat, layout.phi_size()
  std::vector<int32_t> alias_;   // flat, layout.phi_size()
  std::vector<double> w_;        // flat: the stale weights themselves
};

}  // namespace core
}  // namespace mlp

#endif  // MLP_CORE_CANDIDATE_SPACE_H_
