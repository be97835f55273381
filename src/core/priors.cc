#include "core/priors.h"

#include <algorithm>

#include "common/logging.h"
#include "stats/discrete.h"

namespace mlp {
namespace core {

std::vector<int> FallbackCities(const ModelInput& input,
                                const MlpConfig& config) {
  return stats::TopK(input.gazetteer->PopulationWeights(),
                     config.fallback_top_cities);
}

UserPrior BuildUserPrior(const ModelInput& input, const MlpConfig& config,
                         const std::vector<int>& fallback, graph::UserId u,
                         std::vector<geo::CityId>* scratch_buffer) {
  const graph::SocialGraph& graph = *input.graph;
  const bool use_following =
      config.source != ObservationSource::kTweetingOnly;
  const bool use_tweeting =
      config.source != ObservationSource::kFollowingOnly;
  std::vector<geo::CityId>& scratch = *scratch_buffer;
  scratch.clear();

  if (!config.use_candidacy) {
    scratch.reserve(input.num_locations());
    for (geo::CityId c = 0; c < input.num_locations(); ++c) {
      scratch.push_back(c);
    }
  } else {
    if (input.IsLabeled(u)) scratch.push_back(input.observed_home[u]);
    if (use_following) {
      for (graph::EdgeId s : graph.OutEdges(u)) {
        graph::UserId other = graph.following(s).friend_user;
        if (input.IsLabeled(other)) {
          scratch.push_back(input.observed_home[other]);
        }
      }
      for (graph::EdgeId s : graph.InEdges(u)) {
        graph::UserId other = graph.following(s).follower;
        if (input.IsLabeled(other)) {
          scratch.push_back(input.observed_home[other]);
        }
      }
    }
    if (use_tweeting && input.venue_referents != nullptr) {
      for (graph::EdgeId k : graph.TweetEdges(u)) {
        graph::VenueId v = graph.tweeting(k).venue;
        for (geo::CityId c : (*input.venue_referents)[v]) {
          scratch.push_back(c);
        }
      }
    }
    if (scratch.empty()) {
      for (int c : fallback) scratch.push_back(c);
    }
  }

  std::sort(scratch.begin(), scratch.end());
  if (config.use_candidacy && config.max_candidates > 0 &&
      static_cast<int>(scratch.size()) > config.max_candidates) {
    // Keep the most frequently observed candidates (scratch holds one
    // entry per observation, so run lengths are the frequencies).
    std::vector<std::pair<double, geo::CityId>> freq;
    for (size_t a = 0; a < scratch.size();) {
      size_t b = a;
      while (b < scratch.size() && scratch[b] == scratch[a]) ++b;
      freq.emplace_back(static_cast<double>(b - a), scratch[a]);
      a = b;
    }
    std::sort(freq.begin(), freq.end(), [](const auto& x, const auto& y) {
      if (x.first != y.first) return x.first > y.first;
      return x.second < y.second;
    });
    std::vector<geo::CityId> kept;
    kept.reserve(config.max_candidates);
    for (const auto& [count, city] : freq) {
      if (static_cast<int>(kept.size()) >= config.max_candidates) break;
      kept.push_back(city);
    }
    if (input.IsLabeled(u) &&
        std::find(kept.begin(), kept.end(), input.observed_home[u]) ==
            kept.end()) {
      kept.back() = input.observed_home[u];
    }
    std::sort(kept.begin(), kept.end());
    scratch = std::move(kept);
  } else {
    scratch.erase(std::unique(scratch.begin(), scratch.end()), scratch.end());
  }

  UserPrior prior;
  prior.candidates = scratch;
  prior.gamma.assign(prior.candidates.size(), config.tau);
  if (config.use_supervision && input.IsLabeled(u)) {
    int idx = prior.IndexOf(input.observed_home[u]);
    // The observed home is in the candidate set by construction when
    // candidacy is on; with candidacy off it is trivially present.
    MLP_CHECK(idx >= 0);
    prior.gamma[idx] += config.supervision_boost;
  }
  prior.gamma_sum = 0.0;
  for (double g : prior.gamma) prior.gamma_sum += g;
  return prior;
}

std::vector<UserPrior> BuildPriors(const ModelInput& input,
                                   const MlpConfig& config) {
  const int num_users = input.num_users();
  MLP_CHECK(static_cast<int>(input.observed_home.size()) == num_users);
  const std::vector<int> fallback = FallbackCities(input, config);
  std::vector<UserPrior> priors;
  priors.reserve(num_users);
  std::vector<geo::CityId> scratch;
  for (graph::UserId u = 0; u < num_users; ++u) {
    priors.push_back(BuildUserPrior(input, config, fallback, u, &scratch));
  }
  return priors;
}

}  // namespace core
}  // namespace mlp
