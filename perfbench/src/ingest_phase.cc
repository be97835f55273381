// The ingest blocks: the served model is handed to stream::LiveIngestor,
// which applies one 10-user delta batch per block, renamed into its spool
// on a fixed schedule. Uniform-key queries run at a fixed rate beside the
// writes, and a poller times each batch from its rename until a socket
// query first returns one of its new users. After the rounds the same
// batches are replayed offline; the replay must reproduce the live model
// byte for byte. Traced, the replay also times each stage (load, merge,
// apply, snapshot, read-model build, swap).
#include <chrono>
#include <cmath>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "core/model.h"
#include "io/model_snapshot.h"
#include "obs/fit_profile.h"
#include "obs/metrics.h"
#include "serve/read_model.h"
#include "served.h"
#include "stream/delta_batch.h"
#include "stream/delta_ingest.h"
#include "stream/live_ingest.h"
#include "workloads.h"

namespace perfbench {

namespace {

namespace fs = std::filesystem;

constexpr int kBatchUsers = 10;
constexpr double kQueryRate = 8000.0;  // req/s, well below the ladder's top
constexpr double kRenameS = 0.1;       // rename, from block start
constexpr int kTimeoutMs = 2000;
constexpr double kWindowS = 0.25;  // p99 window
constexpr int kVisibleTimeoutMs = 90000;

std::string BatchName(int k) {
  char name[32];
  std::snprintf(name, sizeof(name), "batch-%04d", k);
  return name;
}

// Stage timings of one offline replay step, in ms (swap in µs).
struct ReplayStages {
  std::vector<double> load_ms, merge_ms, apply_ms, snapshot_ms, build_ms,
      swap_us, resampled_over_touched, rendered_over_changed;
};

// Fragments of `next` whose bytes differ from `prev` (new ids count).
int64_t ChangedFragments(const mlp::serve::ReadModel& prev,
                         const mlp::serve::ReadModel& next) {
  int64_t changed = 0;
  for (int u = 0; u < next.num_users(); ++u) {
    if (u >= prev.num_users() || prev.UserJson(u) != next.UserJson(u)) {
      ++changed;
    }
  }
  for (int e = 0; e < next.num_edges(); ++e) {
    if (e >= prev.num_edges() || prev.EdgeJson(e) != next.EdgeJson(e)) {
      ++changed;
    }
  }
  return changed;
}

}  // namespace

IngestPhase::IngestPhase(const RunOptions& options, const WorkloadSpec& spec,
                         Served& served, Clients& clients, int batches,
                         Outcome* out)
    : options_(options),
      spec_(spec),
      served_(served),
      clients_(clients),
      out_(*out),
      batches_(batches),
      spool_(options.work_dir + "/spool"),
      stream_seed_(options.seed * 104729 + 3),
      base_input_(served.world->Input()),
      visible_ms_(batches, -1.0) {
  QueryMix mix;
  mix.edge_share = 0.3;
  // Keys are drawn from the base world only, so every query is a 200 on
  // every generation.
  make_ = MakeQueryMaker(served.world->data.graph, mix, 0.0, stream_seed_);
  out_.threads["ingest_watcher"] = 1;
  out_.sizes["batch_users"] = kBatchUsers;
  out_.sizes["batches"] = batches;
  out_.sizes["ingest_query_rate_rps"] = static_cast<int64_t>(kQueryRate);
}

mlp::Status IngestPhase::Start() {
  // Stage every batch before timing starts; the blocks only rename them.
  std::error_code ec;
  fs::create_directories(spool_, ec);
  if (ec) return mlp::Status::IOError("mkdir " + spool_ + ": " + ec.message());
  for (int k = 0; k < batches_; ++k) {
    WriteDeltaBatch(spool_ + "/tmp." + BatchName(k),
                    spec_.users + k * kBatchUsers, kBatchUsers, spec_.users,
                    served_.world->vocab.size(),
                    WorldSeed(options_) + 31 * k + 7);
  }
  // The generation before the first batch, kept only to count changed
  // fragments in the traced replay.
  if (options_.trace) base_model_ = served_.server->model();
  mlp::stream::LiveIngestOptions ingest_options;
  ingest_options.spool_dir = spool_;
  ingestor_ = std::make_unique<mlp::stream::LiveIngestor>(
      served_.server.get(), base_input_,
      std::move(served_.snapshot.checkpoint),
      std::move(served_.snapshot.result), ingest_options);
  return ingestor_->Start();
}

void IngestPhase::RunBlock(int round, double seconds) {
  const int k = round;
  if (k >= batches_) return;
  // The rename lands kRenameS into the block plus a dither that walks
  // through one poll interval of the ingestor, so the batches meet its
  // poll at spread-out points and the median visibility does not hang on
  // where one run's schedule happens to fall against the poll.
  const double poll_s = mlp::stream::LiveIngestOptions().poll_ms / 1e3;
  const double golden = 0.6180339887498949;
  const double rename_s =
      kRenameS + poll_s * (k * golden - std::floor(k * golden));
  const std::string before =
      options_.trace ? Fetch(clients_.aux, "/statsz") : std::string();

  PhaseSpec phase;
  phase.rate = kQueryRate;
  phase.seconds = seconds;
  phase.timeout_ms = kTimeoutMs;
  phase.stream_seed = stream_seed_ + k;
  phase.server = served_.server.get();
  phase.sample_every =
      std::max(1, static_cast<int>(kQueryRate * seconds / 100));

  // The poller renames the batch on schedule, then probes its first new
  // user every 2 ms on the aux connection. When the batch is still not
  // visible at the end of the block, the block waits for it.
  const int64_t start = NowNs();
  std::thread poller([&] {
    std::this_thread::sleep_for(std::chrono::nanoseconds(
        start + static_cast<int64_t>(rename_s * 1e9) - NowNs()));
    std::error_code ec;
    fs::rename(spool_ + "/tmp." + BatchName(k), spool_ + "/" + BatchName(k),
               ec);
    const int64_t renamed_ns = NowNs();
    if (ec) {
      errors_.push_back("rename of " + BatchName(k) + ": " + ec.message());
      return;
    }
    Request probe;
    probe.target = "/v1/user/" + std::to_string(spec_.users + k * kBatchUsers);
    std::string body;
    while (NowNs() - renamed_ns < int64_t{kVisibleTimeoutMs} * 1000000) {
      if (clients_.aux.RoundTrip(probe, NowNs() + 5000000000LL, &body) ==
          200) {
        visible_ms_[k] = static_cast<double>(NowNs() - renamed_ns) / 1e6;
        return;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });
  const PhaseStats block = RunOpenLoop(phase, clients_.queries, make_);
  poller.join();
  MergeStats(&stats_, block);
  if (options_.trace) {
    const std::string after = Fetch(clients_.aux, "/statsz");
    const double hits = StatszValue(after, "cache_hits") -
                        StatszValue(before, "cache_hits");
    cache_hits_ += hits;
    cache_lookups_ += hits + StatszValue(after, "cache_misses") -
                      StatszValue(before, "cache_misses");
  }
}

QueryTally IngestPhase::Finish() {
  mlp::serve::ModelServer& server = *served_.server;
  for (const std::string& error : errors_) out_.Check(false, error);
  std::vector<double> visible;
  for (int k = 0; k < batches_; ++k) {
    out_.Check(visible_ms_[k] >= 0, BatchName(k) + " never became visible");
    if (visible_ms_[k] >= 0) visible.push_back(visible_ms_[k]);
  }
  out_.Check(ingestor_->WaitForApplied(batches_, kVisibleTimeoutMs),
             "not every batch was applied");
  out_.Check(ingestor_->batches_failed() == 0, "a batch was quarantined");
  for (int k = 0; k < batches_; ++k) {
    for (int i = 0; i < kBatchUsers; ++i) {
      const int u = spec_.users + k * kBatchUsers + i;
      out_.Check(
          !Fetch(clients_.aux, "/v1/user/" + std::to_string(u)).empty(),
          "new user " + std::to_string(u) + " is not served");
    }
  }
  out_.Check(stats_.bodies_matched == stats_.bodies_checked,
             stats_.body_error);
  out_.Check(stats_.non2xx == 0, std::to_string(stats_.non2xx) +
                                     " requests were answered with a "
                                     "non-2xx status");
  out_.Check(stats_.bodies_checked >= 200 || stats_.ok < 200,
             "fewer than 200 bodies sampled");
  const std::string live_path = options_.work_dir + "/live.snap";
  out_.Check(ingestor_->SaveSnapshot(live_path).ok(), "live snapshot failed");
  ingestor_.reset();

  // Offline replay of the same batches (now in spool/done/), from the
  // snapshot the server was started with.
  ReplayStages stages;
  auto base =
      mlp::io::LoadModelSnapshot(options_.work_dir + "/model.snap");
  if (!base.ok()) {
    out_.Check(false, "replay base: " + base.status().ToString());
    return {};
  }
  mlp::core::ModelInput input = base_input_;
  mlp::core::FitCheckpoint checkpoint = std::move(base->checkpoint);
  mlp::core::MlpResult result = std::move(base->result);
  std::unique_ptr<mlp::graph::SocialGraph> graph;
  std::shared_ptr<const mlp::serve::ReadModel> prev_model = base_model_;
  base_model_.reset();
  for (int k = 0; k < batches_; ++k) {
    const std::string dir = spool_ + "/done/" + BatchName(k);
    int64_t t = NowNs();
    auto delta = mlp::stream::LoadDeltaBatch(dir);
    stages.load_ms.push_back(SecondsSince(t) * 1e3);
    if (!delta.ok()) {
      out_.Check(false, "replay load: " + delta.status().ToString());
      break;
    }
    // One path in both modes: stream::ApplyDeltaBatch. Its merge time is
    // the ingest_merge_ns counter it already records (the live ingestor
    // is stopped, so nothing else adds to it); the rest is the apply.
    mlp::obs::Counter* merge_ns =
        mlp::obs::Registry::Global().GetCounter(mlp::obs::kIngestMergeNs);
    const uint64_t merge_before = merge_ns->Value();
    t = NowNs();
    auto applied =
        mlp::stream::ApplyDeltaBatch(input, checkpoint, result, *delta);
    const double call_ms = SecondsSince(t) * 1e3;
    if (!applied.ok()) {
      out_.Check(false, "replay apply: " + applied.status().ToString());
      break;
    }
    mlp::stream::IngestOutput step = std::move(*applied);
    if (options_.trace) {
      const double merge_ms =
          static_cast<double>(merge_ns->Value() - merge_before) / 1e6;
      stages.merge_ms.push_back(merge_ms);
      stages.apply_ms.push_back(call_ms - merge_ms);
      int64_t resampled = 0;
      for (uint8_t r : step.report.user_resampled) resampled += r;
      stages.resampled_over_touched.push_back(
          static_cast<double>(resampled) /
          std::max<int32_t>(1, step.report.touched_users));

      mlp::core::ModelInput merged_input = input;
      merged_input.graph = step.merged_graph.get();
      merged_input.observed_home = step.merged_observed_home;
      t = NowNs();
      const mlp::io::ModelSnapshot snapshot =
          mlp::io::MakeModelSnapshot(merged_input, step.checkpoint,
                                     step.result);
      stages.snapshot_ms.push_back(SecondsSince(t) * 1e3);
      t = NowNs();
      auto model = mlp::serve::ReadModel::Build(
          snapshot, *step.merged_graph, &served_.world->gazetteer);
      stages.build_ms.push_back(SecondsSince(t) * 1e3);
      if (!model.ok()) {
        out_.Check(false, "replay build: " + model.status().ToString());
        break;
      }
      const double rendered = model->num_users() + model->num_edges();
      const double changed =
          static_cast<double>(ChangedFragments(*prev_model, *model));
      stages.rendered_over_changed.push_back(rendered /
                                             std::max(1.0, changed));
      t = NowNs();
      server.SwapReadModel(std::move(*model));
      stages.swap_us.push_back(SecondsSince(t) * 1e6);
      prev_model = server.model();
    }
    graph = std::move(step.merged_graph);
    input.graph = graph.get();
    input.observed_home = std::move(step.merged_observed_home);
    checkpoint = std::move(step.checkpoint);
    result = std::move(step.result);
  }
  const std::string offline_path = options_.work_dir + "/offline.snap";
  out_.Check(mlp::io::SaveModelSnapshot(
                 offline_path,
                 mlp::io::MakeModelSnapshot(input, checkpoint, result))
                 .ok(),
             "offline snapshot failed");
  const std::string live_bytes = ReadFile(live_path);
  out_.Check(!live_bytes.empty() && live_bytes == ReadFile(offline_path),
             "the live snapshot differs from the offline replay");

  out_.attempted += stats_.attempted + batches_;
  out_.failed +=
      stats_.failed + (batches_ - static_cast<int64_t>(visible.size()));
  out_.Detail("ingest_query_samples",
              static_cast<double>(stats_.latency_us.size()), "count");
  out_.Detail("ingest_query_ok", static_cast<double>(stats_.ok), "count");
  out_.Detail("ingest_bodies_checked",
              static_cast<double>(stats_.bodies_checked), "count");
  out_.Detail("ingest_visible_max_ms", Percentile(visible, 1.0), "ms");
  // Query latency beside the writes depends on how the host schedules the
  // apply against the readers, and spread too much between runs to carry
  // a bound: p50 and p99 are per-layer figures, and details here.
  const double p99 = stats_.p99_us(kWindowS);
  const QueryTally tally{stats_.attempted, stats_.ok};
  if (!options_.trace) {
    out_.Add("ingest_visible_ms", Median(visible), "ms");
    out_.Detail("ingest_query_p50_us", stats_.p50_us(), "us");
    out_.Detail("ingest_query_p99_us", p99, "us");
    return tally;
  }

  const double staged = Median(stages.load_ms) + Median(stages.merge_ms) +
                        Median(stages.apply_ms) + Median(stages.snapshot_ms) +
                        Median(stages.build_ms) + Median(stages.swap_us) / 1e3;
  out_.Add("stream.load_ms", Median(stages.load_ms), "ms");
  out_.Add("stream.merge_ms", Median(stages.merge_ms), "ms");
  out_.Add("core.apply_delta_ms", Median(stages.apply_ms), "ms");
  out_.Add("core.resampled_over_touched",
           Median(stages.resampled_over_touched), "ratio");
  out_.Add("io.make_snapshot_ms", Median(stages.snapshot_ms), "ms");
  out_.Add("serve.read_model_build_ms", Median(stages.build_ms), "ms");
  out_.Add("serve.rendered_over_changed",
           Median(stages.rendered_over_changed), "ratio");
  out_.Add("serve.swap_us", Median(stages.swap_us), "us");
  out_.Add("stream.pickup_wait_ms", Median(visible) - staged, "ms");
  out_.Add("serve.ingest_cache_hit_ratio",
           cache_lookups_ > 0 ? cache_hits_ / cache_lookups_ : 0.0, "ratio");
  out_.Add("serve.ingest_query_p50_us", stats_.p50_us(), "us");
  out_.Add("serve.ingest_query_p99_us", p99, "us");
  out_.Detail("traced.ingest_visible_ms", Median(visible), "ms");
  out_.Detail("stages_sum_ms", staged, "ms");
  return tally;
}

}  // namespace perfbench
