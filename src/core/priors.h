#ifndef MLP_CORE_PRIORS_H_
#define MLP_CORE_PRIORS_H_

#include <algorithm>
#include <vector>

#include "core/input.h"
#include "core/model_config.h"

namespace mlp {
namespace core {

/// THE candidate→slot lookup: binary search over one sorted candidate row.
/// Every caller — UserPrior::IndexOf, CandidateSpace::SlotOf and the view
/// accessors — delegates here, so there is exactly one implementation to
/// keep correct (no per-file linear probes or re-rolled searches).
inline int FindCandidateSlot(const geo::CityId* sorted, int count,
                             geo::CityId city) {
  const geo::CityId* end = sorted + count;
  const geo::CityId* it = std::lower_bound(sorted, end, city);
  if (it == end || *it != city) return -1;
  return static_cast<int>(it - sorted);
}

/// Per-user prior derived in Sec. 4.3: the candidacy vector λ_i (which
/// locations are candidates at all) and the Dirichlet parameter
/// γ_i = η_i × Λ × γ + τ·λ_i restricted to those candidates.
///
/// This is the CONSTRUCTION-TIME artifact of BuildPriors. During a fit the
/// single owner of the candidate universe is core::CandidateSpace
/// (candidate_space.h), which flattens these rows into its CSR and hands
/// out views; the sampler, arena and engine never touch UserPrior again.
struct UserPrior {
  /// Candidate locations, sorted ascending by CityId.
  std::vector<geo::CityId> candidates;
  /// γ_{i,l} for each candidate (parallel to `candidates`).
  std::vector<double> gamma;
  double gamma_sum = 0.0;

  int size() const { return static_cast<int>(candidates.size()); }

  /// Index of `city` in `candidates`, or -1. Delegates to FindCandidateSlot.
  int IndexOf(geo::CityId city) const {
    return FindCandidateSlot(candidates.data(), size(), city);
  }
};

/// Builds candidacy vectors and priors for every user.
///
/// A location is a candidate for u_i iff it is "observed from u_i's
/// following and tweeting relationships" (Sec. 4.3): a neighbor's observed
/// home, a referent of a tweeted venue, or u_i's own observed home. Sources
/// are filtered by `config.source` so MLP_U and MLP_C see only their own
/// evidence. Users with no observed candidate fall back to the
/// `fallback_top_cities` most populous locations (by total candidate
/// frequency over labeled users). With `config.use_candidacy == false`
/// every location is a candidate (the ablation the paper argues against on
/// efficiency grounds).
std::vector<UserPrior> BuildPriors(const ModelInput& input,
                                   const MlpConfig& config);

/// The fallback candidates of a user with no observed candidate: the
/// `config.fallback_top_cities` most populous cities.
std::vector<int> FallbackCities(const ModelInput& input,
                                const MlpConfig& config);

/// BuildPriors' row for user `u` alone. A row reads only u's own label,
/// its neighbors' labels and its tweeted venues, so a delta ingest
/// re-derives just the rows the delta reaches (CandidateSpace::Extend).
/// `fallback` is FallbackCities(input, config); `scratch` is reusable
/// working storage.
UserPrior BuildUserPrior(const ModelInput& input, const MlpConfig& config,
                         const std::vector<int>& fallback, graph::UserId u,
                         std::vector<geo::CityId>* scratch);

}  // namespace core
}  // namespace mlp

#endif  // MLP_CORE_PRIORS_H_
