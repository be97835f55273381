// Seeded inputs and the layers that turn them into a served model: synth
// writes the world CSVs, io loads them, core fits, serve renders.
#ifndef PERFBENCH_WORLD_H_
#define PERFBENCH_WORLD_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "core/input.h"
#include "core/model.h"
#include "geo/distance_matrix.h"
#include "geo/gazetteer.h"
#include "io/dataset_io.h"
#include "text/venue_vocab.h"

namespace perfbench {

/// A world as the program sees it: the embedded gazetteer and venue
/// vocabulary plus the dataset loaded from CSVs (the `mlpctl` layout).
/// Heap-allocated because ModelInput keeps pointers into it.
struct World {
  mlp::geo::Gazetteer gazetteer = mlp::geo::Gazetteer::FromEmbedded();
  mlp::geo::CityDistanceMatrix distances{gazetteer, 1.0};
  mlp::text::VenueVocabulary vocab =
      mlp::text::VenueVocabulary::Build(gazetteer);
  std::vector<std::vector<mlp::geo::CityId>> referents =
      vocab.ReferentTable();
  mlp::io::LoadedDataset data;

  /// Full-supervision input (every registered home observed), the
  /// `mlpctl fit` convention.
  mlp::core::ModelInput Input() const;
  /// Unlabeled users (no parsed registered city): the ACC@100mi population.
  std::vector<mlp::graph::UserId> UnlabeledUsers() const;
  std::vector<mlp::geo::CityId> TrueHomes() const;
  int64_t relationships() const {
    return static_cast<int64_t>(data.graph.num_following()) +
           data.graph.num_tweeting();
  }
};

/// Timings of one world set-up, in seconds.
struct WorldTimes {
  double generate_s = 0.0;  // synth::GenerateWorld + io::SaveDataset
  double load_s = 0.0;      // io::LoadDataset (+ gazetteer/vocabulary)
};

/// Generates the `users`-user world for `seed` into `dir` (created) as the
/// dataset CSVs, then loads it back through io. Same seed, same bytes.
mlp::Result<std::unique_ptr<World>> MakeWorld(int users, uint64_t seed,
                                              const std::string& dir,
                                              WorldTimes* times);

/// The default `mlpctl fit` program (10 burn-in + 14 sampling sweeps) at
/// `threads` threads.
mlp::core::MlpConfig FitConfig(int threads, uint64_t seed);

/// ACC@100mi (percent) of `homes` against the world's ground truth over its
/// unlabeled users.
double AccAt100mi(const World& world,
                  const std::vector<mlp::geo::CityId>& homes);

/// A fitted model: the checkpoint and result a served model derives from.
struct FittedModel {
  mlp::core::FitCheckpoint checkpoint;
  mlp::core::MlpResult result;
};
mlp::Result<FittedModel> FitModel(const World& world,
                                  const mlp::core::MlpConfig& config);

/// Writes `count` new users as one delta batch directory (the stream
/// layer's CSV layout) whose ids start at `first_id`: half labeled, each
/// following two existing users and one earlier user of the same batch,
/// tweeting three venues. Deterministic in `seed`.
void WriteDeltaBatch(const std::string& dir, int first_id, int count,
                     int base_users, int num_venues, uint64_t seed);

/// Keys drawn from a Zipf(s) law over a seeded permutation of [0, n), or
/// uniformly when s == 0.
class KeySampler {
 public:
  KeySampler(int n, double s, uint64_t seed);
  /// Maps a uniform draw u in [0, 1) to a key.
  int Draw(double u) const;

 private:
  std::vector<double> cdf_;  // empty: uniform
  std::vector<int> perm_;
  int n_;
};

/// Reads a whole file; empty on error.
std::string ReadFile(const std::string& path);

}  // namespace perfbench

#endif  // PERFBENCH_WORLD_H_
