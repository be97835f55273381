#include "world.h"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "bench.h"
#include "common/random.h"
#include "eval/cross_validation.h"
#include "eval/metrics.h"
#include "synth/world_generator.h"

namespace perfbench {

namespace fs = std::filesystem;

mlp::core::ModelInput World::Input() const {
  mlp::core::ModelInput input;
  input.gazetteer = &gazetteer;
  input.graph = &data.graph;
  input.distances = &distances;
  input.venue_referents = &referents;
  input.observed_home = mlp::eval::RegisteredHomes(data.graph);
  return input;
}

std::vector<mlp::graph::UserId> World::UnlabeledUsers() const {
  std::vector<mlp::graph::UserId> users;
  for (mlp::graph::UserId u = 0; u < data.graph.num_users(); ++u) {
    if (!data.graph.is_labeled(u)) users.push_back(u);
  }
  return users;
}

std::vector<mlp::geo::CityId> World::TrueHomes() const {
  std::vector<mlp::geo::CityId> homes;
  homes.reserve(data.truth.profiles.size());
  for (const auto& profile : data.truth.profiles) {
    homes.push_back(profile.home());
  }
  return homes;
}

mlp::Result<std::unique_ptr<World>> MakeWorld(int users, uint64_t seed,
                                              const std::string& dir,
                                              WorldTimes* times) {
  const int64_t gen_start = NowNs();
  mlp::synth::WorldConfig config;
  config.num_users = users;
  config.seed = seed;
  MLP_ASSIGN_OR_RETURN(mlp::synth::SyntheticWorld generated,
                       mlp::synth::GenerateWorld(config));
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) return mlp::Status::IOError("mkdir " + dir + ": " + ec.message());
  MLP_RETURN_NOT_OK(
      mlp::io::SaveDataset(dir, *generated.graph, &generated.truth));
  times->generate_s = SecondsSince(gen_start);

  const int64_t load_start = NowNs();
  auto world = std::make_unique<World>();
  MLP_ASSIGN_OR_RETURN(world->data,
                       mlp::io::LoadDataset(dir, world->vocab.size()));
  times->load_s = SecondsSince(load_start);
  if (!world->data.has_truth) {
    return mlp::Status::InvalidArgument("generated world lost its truth");
  }
  return world;
}

mlp::core::MlpConfig FitConfig(int threads, uint64_t seed) {
  mlp::core::MlpConfig config;
  config.burn_in_iterations = 10;
  config.sampling_iterations = 14;
  config.num_threads = std::max(1, threads);
  config.seed = seed;
  return config;
}

double AccAt100mi(const World& world,
                  const std::vector<mlp::geo::CityId>& homes) {
  return 100.0 * mlp::eval::AccuracyWithin(homes, world.TrueHomes(),
                                           world.UnlabeledUsers(),
                                           world.distances, 100.0);
}

mlp::Result<FittedModel> FitModel(const World& world,
                                  const mlp::core::MlpConfig& config) {
  FittedModel fitted;
  mlp::core::FitOptions options;
  options.checkpoint_out = &fitted.checkpoint;
  const mlp::core::ModelInput input = world.Input();
  MLP_ASSIGN_OR_RETURN(fitted.result,
                       mlp::core::MlpModel(config).Fit(input, options));
  return fitted;
}

void WriteDeltaBatch(const std::string& dir, int first_id, int count,
                     int base_users, int num_venues, uint64_t seed) {
  fs::create_directories(dir);
  mlp::Pcg32 rng(seed, 0x2545f4914f6cdd1dULL);
  std::ofstream users(dir + "/users.csv");
  std::ofstream following(dir + "/following.csv");
  std::ofstream tweeting(dir + "/tweeting.csv");
  users << "handle,profile_location,registered_city\n";
  following << "follower,friend\n";
  tweeting << "user,venue\n";
  for (int i = 0; i < count; ++i) {
    const int id = first_id + i;
    const int city = i % 2 == 0 ? static_cast<int>(rng.UniformU32(40)) : -1;
    users << "pb_" << seed << "_" << id << ",," << city << "\n";
    for (int e = 0; e < 2; ++e) {
      following << id << ","
                << rng.UniformU32(static_cast<uint32_t>(base_users)) << "\n";
    }
    if (i > 0) following << id << "," << first_id + rng.UniformU32(i) << "\n";
    for (int t = 0; t < 3; ++t) {
      tweeting << id << ","
               << rng.UniformU32(static_cast<uint32_t>(num_venues)) << "\n";
    }
  }
}

KeySampler::KeySampler(int n, double s, uint64_t seed) : n_(n) {
  if (s <= 0.0) return;
  perm_.resize(n);
  for (int i = 0; i < n; ++i) perm_[i] = i;
  mlp::Pcg32 rng(seed, 0x9e3779b97f4a7c15ULL);
  for (int i = n - 1; i > 0; --i) {
    std::swap(perm_[i], perm_[rng.UniformU32(static_cast<uint32_t>(i + 1))]);
  }
  cdf_.resize(n);
  double total = 0.0;
  for (int i = 0; i < n; ++i) {
    total += 1.0 / std::pow(static_cast<double>(i + 1), s);
    cdf_[i] = total;
  }
  for (double& c : cdf_) c /= total;
}

int KeySampler::Draw(double u) const {
  if (cdf_.empty()) {
    return std::min(n_ - 1, static_cast<int>(u * static_cast<double>(n_)));
  }
  const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
  const size_t rank =
      std::min(static_cast<size_t>(it - cdf_.begin()), cdf_.size() - 1);
  return perm_[rank];
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

}  // namespace perfbench
