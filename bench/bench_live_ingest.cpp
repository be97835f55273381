// Live ingest+serve daemon (ISSUE 10 / ROADMAP "one-process ingest+serve
// daemon"): measures what a query client experiences while the
// stream::LiveIngestor applies spooled delta batches and swaps models
// under it, versus a quiet server:
//   - serve p50/p99 idle vs. DURING live ingest (the ≤2× acceptance gate),
//   - swap-visible staleness (now − batch spool mtime at swap),
//   - ingest throughput (mean apply time per batch).
// Queries run through ModelServer::Handle() — routing, fragment lookup and
// rendering against the pinned model, no socket noise.
// Results land in BENCH_live.json for the CI bench-regression gate.
//
// Env overrides: MLP_BENCH_LIVE_USERS (default 1500),
// MLP_BENCH_LIVE_THREADS (query threads, default 2),
// MLP_BENCH_LIVE_BATCHES (default 3), MLP_BENCH_LIVE_BATCH_USERS
// (default 10), MLP_BENCH_SEED, MLP_BENCH_JSON_DIR.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "common/random.h"
#include "core/model.h"
#include "eval/metrics.h"
#include "io/model_snapshot.h"
#include "obs/fit_profile.h"
#include "obs/metrics.h"
#include "serve/model_server.h"
#include "serve/read_model.h"
#include "stream/live_ingest.h"
#include "synth/world_generator.h"

namespace {

using namespace mlp;

namespace fs = std::filesystem;

// A localized burst delta written as spool CSVs: `count` new users (half
// labeled) with ids starting at `first_id`, following hub accounts in the
// base world, plus a few tweets each — the bench_streaming_ingest burst
// shape, expressed through the spool protocol.
void WriteBurstBatch(const fs::path& dir, int first_id, int count,
                     int base_users, int base_venues, uint64_t seed) {
  fs::create_directories(dir);
  Pcg32 rng(seed, 0x7fb5d329728ea185ULL);
  const int hubs = 4;
  std::vector<int> hub_ids;
  for (int h = 0; h < hubs; ++h) {
    hub_ids.push_back(
        static_cast<int>(rng.UniformU32(static_cast<uint32_t>(base_users))));
  }
  std::ofstream users(dir / "users.csv");
  std::ofstream following(dir / "following.csv");
  std::ofstream tweeting(dir / "tweeting.csv");
  users << "handle,profile_location,registered_city\n";
  following << "follower,friend\n";
  tweeting << "user,venue\n";
  for (int i = 0; i < count; ++i) {
    const int id = first_id + i;
    const int city = i % 2 == 0 ? static_cast<int>(rng.UniformU32(40)) : -1;
    users << "live_burst_" << id << ",," << city << "\n";
    for (int e = 0; e < 2; ++e) {
      following << id << ","
                << hub_ids[rng.UniformU32(static_cast<uint32_t>(hubs))]
                << "\n";
    }
    for (int t = 0; t < 3; ++t) {
      tweeting << id << ","
               << rng.UniformU32(static_cast<uint32_t>(base_venues)) << "\n";
    }
  }
}

struct LatencyStats {
  double p50_us = 0.0;
  double p99_us = 0.0;
  double qps = 0.0;
  uint64_t requests = 0;
};

LatencyStats Summarize(std::vector<int64_t>& latencies_ns, double seconds) {
  LatencyStats stats;
  stats.requests = latencies_ns.size();
  if (latencies_ns.empty()) return stats;
  std::sort(latencies_ns.begin(), latencies_ns.end());
  // Nanosecond samples, microsecond reporting: Handle() renders in
  // fractional microseconds, so integer-µs buckets would quantize the 2×
  // ratio gate into noise.
  auto at = [&](double q) {
    const size_t i = static_cast<size_t>(
        q * static_cast<double>(latencies_ns.size() - 1));
    return static_cast<double>(latencies_ns[i]) / 1e3;
  };
  stats.p50_us = at(0.5);
  stats.p99_us = at(0.99);
  stats.qps =
      seconds > 0.0 ? static_cast<double>(latencies_ns.size()) / seconds : 0.0;
  return stats;
}

// Hammers Handle() from `threads` threads until `stop` flips, collecting
// per-request microseconds. Only base-world ids are queried, so every
// request is a 200 across all generations.
LatencyStats Hammer(serve::ModelServer& server, int threads, int base_users,
                    std::atomic<bool>& stop) {
  std::vector<std::vector<int64_t>> lanes(threads);
  std::vector<std::thread> workers;
  const auto start = std::chrono::steady_clock::now();
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      Pcg32 rng(977 + t, 0x9e3779b97f4a7c15ULL);
      serve::HttpRequest request;
      request.method = "GET";
      std::vector<int64_t>& lane = lanes[t];
      while (!stop.load(std::memory_order_acquire)) {
        request.target =
            "/v1/user/" +
            std::to_string(rng.UniformU32(static_cast<uint32_t>(base_users)));
        const auto t0 = std::chrono::steady_clock::now();
        const serve::HttpResponse response = server.Handle(request);
        const auto t1 = std::chrono::steady_clock::now();
        if (response.status == 200) {
          lane.push_back(
              std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
                  .count());
        }
      }
    });
  }
  // The caller decides when the phase ends by flipping `stop`; we just
  // wait for the lanes to drain.
  for (std::thread& worker : workers) worker.join();
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  std::vector<int64_t> all;
  for (std::vector<int64_t>& lane : lanes) {
    all.insert(all.end(), lane.begin(), lane.end());
  }
  return Summarize(all, seconds);
}

}  // namespace

int main() {
  const int users =
      static_cast<int>(bench::EnvInt("MLP_BENCH_LIVE_USERS", 1500));
  const int threads =
      static_cast<int>(bench::EnvInt("MLP_BENCH_LIVE_THREADS", 2));
  const int batches =
      static_cast<int>(bench::EnvInt("MLP_BENCH_LIVE_BATCHES", 3));
  const int batch_users =
      static_cast<int>(bench::EnvInt("MLP_BENCH_LIVE_BATCH_USERS", 10));

  synth::WorldConfig world_config = bench::BenchWorldConfig();
  world_config.num_users = users;
  std::printf("generating %d-user power-law world...\n", users);
  Result<synth::SyntheticWorld> world = synth::GenerateWorld(world_config);
  if (!world.ok()) {
    std::fprintf(stderr, "world generation failed: %s\n",
                 world.status().ToString().c_str());
    return 1;
  }
  std::vector<std::vector<geo::CityId>> referents =
      world->vocab->ReferentTable();
  core::ModelInput input;
  input.gazetteer = world->gazetteer.get();
  input.graph = world->graph.get();
  input.distances = world->distances.get();
  input.venue_referents = &referents;
  input.observed_home = eval::RegisteredHomes(*world->graph);

  core::MlpConfig config = bench::BenchMlpConfig();
  std::printf("base fit (%d sweeps)...\n",
              config.burn_in_iterations + config.sampling_iterations);
  core::FitCheckpoint checkpoint;
  core::FitOptions fit_options;
  fit_options.checkpoint_out = &checkpoint;
  Result<core::MlpResult> result = core::MlpModel(config).Fit(input,
                                                              fit_options);
  if (!result.ok()) {
    std::fprintf(stderr, "fit failed: %s\n",
                 result.status().ToString().c_str());
    return 1;
  }

  io::ModelSnapshot snapshot =
      io::MakeModelSnapshot(input, checkpoint, *result);
  Result<serve::ReadModel> model = serve::ReadModel::Build(
      snapshot, *world->graph, input.gazetteer);
  if (!model.ok()) {
    std::fprintf(stderr, "read model build failed: %s\n",
                 model.status().ToString().c_str());
    return 1;
  }
  serve::ServeOptions serve_options;
  serve::ModelServer server(std::move(*model), serve_options);

  // ---- idle phase: a quiet server, no watcher attached ----
  std::printf("idle phase: %d query threads...\n", threads);
  std::atomic<bool> idle_stop{false};
  LatencyStats idle;
  {
    std::thread timer([&] {
      std::this_thread::sleep_for(std::chrono::milliseconds(1500));
      idle_stop.store(true, std::memory_order_release);
    });
    idle = Hammer(server, threads, users, idle_stop);
    timer.join();
  }

  // ---- live phase: same hammer while the daemon applies `batches` ----
  const fs::path spool =
      fs::temp_directory_path() / "mlp_bench_live_spool";
  fs::remove_all(spool);
  fs::create_directories(spool);
  stream::LiveIngestOptions live_options;
  live_options.spool_dir = spool.string();
  live_options.poll_ms = 20;
  stream::LiveIngestor ingestor(&server, input, checkpoint, *result,
                                live_options);
  Status started = ingestor.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "live ingestor start failed: %s\n",
                 started.ToString().c_str());
    return 1;
  }

  obs::Registry& registry = obs::Registry::Global();
  const obs::Histogram::Snapshot apply_before =
      registry.GetHistogram(obs::kIngestApplyNs, obs::IngestApplyNsBounds())
          ->GetSnapshot();

  std::printf("live phase: %d batches x %d users under query load...\n",
              batches, batch_users);
  std::atomic<bool> live_stop{false};
  LatencyStats live;
  {
    std::thread writer([&] {
      for (int b = 0; b < batches; ++b) {
        const std::string name =
            "batch-" + std::to_string(1000 + b);  // lexicographic order
        WriteBurstBatch(spool / ("tmp." + name),
                        users + b * batch_users, batch_users, users,
                        world->graph->num_venues(), 31 + b);
        fs::rename(spool / ("tmp." + name), spool / name);
        // One in flight at a time: the spool depth stays honest and every
        // batch's staleness clock starts at its own rename.
        if (!ingestor.WaitForApplied(b + 1, 120000)) {
          std::fprintf(stderr, "batch %d never applied\n", b);
          break;
        }
      }
      live_stop.store(true, std::memory_order_release);
    });
    live = Hammer(server, threads, users, live_stop);
    writer.join();
  }
  const uint64_t applied = ingestor.batches_applied();
  ingestor.Stop();

  const obs::Histogram::Snapshot apply_after =
      registry.GetHistogram(obs::kIngestApplyNs, obs::IngestApplyNsBounds())
          ->GetSnapshot();
  const uint64_t apply_count = apply_after.count - apply_before.count;
  const double apply_total_s =
      static_cast<double>(apply_after.sum - apply_before.sum) / 1e9;
  const double mean_apply_ms =
      apply_count > 0 ? apply_total_s * 1e3 / static_cast<double>(apply_count)
                      : 0.0;
  const double apply_per_sec =
      apply_total_s > 0.0 ? static_cast<double>(apply_count) / apply_total_s
                          : 0.0;
  const double p99_ratio =
      idle.p99_us > 0.0 ? live.p99_us / idle.p99_us : 0.0;

  std::printf(
      "\nidle:  p50 %.2fus  p99 %.2fus  %.0f qps (%llu requests)\n"
      "live:  p50 %.2fus  p99 %.2fus  %.0f qps (%llu requests)\n"
      "p99 during/idle: %.2fx   batches applied: %llu\n"
      "mean apply: %.1fms (%.2f batches/s)   max swap staleness: %lldms\n",
      idle.p50_us, idle.p99_us, idle.qps,
      static_cast<unsigned long long>(idle.requests), live.p50_us,
      live.p99_us, live.qps, static_cast<unsigned long long>(live.requests),
      p99_ratio, static_cast<unsigned long long>(applied), mean_apply_ms,
      apply_per_sec,
      static_cast<long long>(ingestor.max_swap_staleness_ms()));

  bench::BenchJson json;
  json.Set("bench", std::string("live_ingest"));
  json.Set("users", static_cast<int64_t>(users));
  json.Set("query_threads", static_cast<int64_t>(threads));
  json.Set("batches", static_cast<int64_t>(batches));
  json.Set("batch_users", static_cast<int64_t>(batch_users));
  json.Set("hardware_threads",
           static_cast<int64_t>(std::thread::hardware_concurrency()));
  json.Set("idle_p50_us", idle.p50_us);
  json.Set("idle_p99_us", idle.p99_us);
  json.Set("idle_qps", idle.qps);
  json.Set("live_p50_us", live.p50_us);
  json.Set("live_p99_us", live.p99_us);
  json.Set("live_qps", live.qps);
  json.Set("p99_during_over_idle", p99_ratio);
  json.Set("batches_applied", static_cast<int64_t>(applied));
  json.Set("mean_apply_ms", mean_apply_ms);
  json.Set("apply_batches_per_sec", apply_per_sec);
  json.Set("max_swap_staleness_ms",
           static_cast<int64_t>(ingestor.max_swap_staleness_ms()));
  json.WriteTo(bench::BenchJsonPath("BENCH_live.json"));

  fs::remove_all(spool);
  return applied == static_cast<uint64_t>(batches) ? 0 : 1;
}
