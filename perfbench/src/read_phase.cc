// The read blocks: Zipf-skewed point and batch queries against the served
// model at default ServeOptions, at a fixed base rate — no fitting and no
// swaps while measuring. They give the CPU cost and latency of a request.
// Traced, /metricsz and /statsz are scraped around each block, and after
// the rounds a fixed rate ladder climbs until a rung misses the latency
// limit, fails a request or lets the generator fall behind; the last rung
// that held is serve.query_max_rps.
#include <algorithm>
#include <string>
#include <vector>

#include "obs/request_trace.h"
#include "served.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr double kZipfS = 1.0;
constexpr double kBaseRate = 20000.0;  // req/s over all query connections
// Ladder rungs in req/s; p99 must stay within kLatencyLimitUs.
constexpr double kLadder[] = {10000, 15000, 20000, 25000, 30000,
                              35000, 40000, 45000, 50000, 55000};
constexpr double kLatencyLimitUs = 2000.0;
constexpr int kTimeoutMs = 2000;
constexpr double kWindowS = 0.1;  // p99 window of the base rate
constexpr double kRungS = 0.4;
constexpr int kRungTries = 3;

using Scrape = ReadPhase::Scrape;

Scrape ScrapeServer(HttpConn& conn) {
  Scrape s;
  const std::string metrics = Fetch(conn, "/metricsz");
  s.requests = PromValue(metrics, "serve_requests_total");
  for (int i = 0; i < mlp::obs::kNumRequestStages; ++i) {
    s.stage_ns[i] = PromValue(
        metrics, mlp::obs::RequestStageCounterName(
                     static_cast<mlp::obs::RequestStage>(i)));
  }
  const std::string stats = Fetch(conn, "/statsz");
  s.cache_hits = StatszValue(stats, "cache_hits");
  s.cache_misses = StatszValue(stats, "cache_misses");
  return s;
}

void AddDelta(const Scrape& before, const Scrape& after, Scrape* sum) {
  sum->requests += after.requests - before.requests;
  for (int i = 0; i < mlp::obs::kNumRequestStages; ++i) {
    sum->stage_ns[i] += after.stage_ns[i] - before.stage_ns[i];
  }
  sum->cache_hits += after.cache_hits - before.cache_hits;
  sum->cache_misses += after.cache_misses - before.cache_misses;
}

}  // namespace

ReadPhase::ReadPhase(const RunOptions& options, Served& served,
                     Clients& clients, Outcome* out)
    : options_(options),
      served_(served),
      clients_(clients),
      out_(*out),
      stream_seed_(options.seed * 7919 + 17) {
  QueryMix mix;
  mix.batch_share = 0.005;
  mix.edge_share = 0.295;
  make_ = MakeQueryMaker(served.world->data.graph, mix, kZipfS,
                         stream_seed_);
  // ModelServer runs a connection pool and a batch pool of this size.
  out_.threads["server"] = served.serve_options.threads;
  out_.threads["server_batch_pool"] = served.serve_options.threads;
  out_.sizes["read_base_rate_rps"] = static_cast<int64_t>(kBaseRate);
  out_.sizes["latency_limit_us"] = static_cast<int64_t>(kLatencyLimitUs);
}

void ReadPhase::RunBlock(int round, double seconds) {
  PhaseSpec base;
  base.rate = kBaseRate;
  base.seconds = seconds;
  base.timeout_ms = kTimeoutMs;
  base.stream_seed = stream_seed_ + round;
  base.server = served_.server.get();
  // About 100 bodies a block, so that every workload checks 200 or more.
  base.sample_every =
      std::max(1, static_cast<int>(kBaseRate * seconds / 100));
  base.idle = &clients_.aux;
  base.idle_failed = &idle_failed_;
  const Scrape before = options_.trace ? ScrapeServer(clients_.aux) : Scrape();
  const double cpu_before = ProcessCpuSeconds();
  const PhaseStats block = RunOpenLoop(base, clients_.queries, make_);
  block_cpu_us_.push_back((ProcessCpuSeconds() - cpu_before) * 1e6 /
                          static_cast<double>(
                              std::max<int64_t>(1, block.attempted)));
  if (options_.trace) AddDelta(before, ScrapeServer(clients_.aux), &scraped_);
  MergeStats(&stats_, block);
}

QueryTally ReadPhase::Finish() {
  mlp::serve::ModelServer& server = *served_.server;
  // The ladder, traced only: it stops at the first rung that fails all its
  // tries (retries absorb a dip; above capacity the backlog grows and
  // every try fails).
  double max_rps = 0.0;
  int64_t ladder_attempted = 0;
  int64_t ladder_non2xx = 0;
  for (double rate : kLadder) {
    if (!options_.trace) break;
    bool holds = false;
    for (int attempt = 0; attempt < kRungTries && !holds; ++attempt) {
      PhaseSpec rung;
      rung.rate = rate;
      rung.seconds = kRungS;
      rung.timeout_ms = kTimeoutMs;
      rung.stream_seed = stream_seed_ + 1000 + ladder_attempted;
      const PhaseStats s = RunOpenLoop(rung, clients_.queries, make_);
      ladder_attempted += s.attempted;
      ladder_non2xx += s.non2xx;
      const double p99 = s.p99_us(rung.seconds / 5);
      holds = s.failed == 0 && p99 <= kLatencyLimitUs &&
              s.lag_growth_us() <= kLatencyLimitUs;
      const std::string name = "ladder_" +
                               std::to_string(static_cast<int>(rate)) +
                               "_try" + std::to_string(attempt + 1);
      out_.Detail(name + "_p99_us", p99, "us");
      out_.Detail(name + "_failed", static_cast<double>(s.failed), "count");
    }
    if (!holds) break;
    max_rps = rate;
  }

  // Output checks: bodies byte-equal to the served generation, and every
  // answer a 2xx (the server sheds no load, so any other status is wrong).
  // Timeouts and transport errors are not wrong answers: they count as
  // failed requests in query_ok_pct and fail a ladder rung.
  out_.Check(stats_.bodies_matched == stats_.bodies_checked,
             stats_.body_error);
  out_.Check(stats_.bodies_checked >= 200 || stats_.ok < 200,
             "fewer than 200 bodies sampled");
  out_.Check(stats_.non2xx + ladder_non2xx == 0,
             std::to_string(stats_.non2xx + ladder_non2xx) +
                 " requests were answered with a non-2xx status");
  out_.Check(idle_failed_ == 0, "the idle keep-alive client failed");
  out_.attempted += stats_.attempted;
  out_.failed += stats_.failed;
  out_.Detail("read_query_samples",
              static_cast<double>(stats_.latency_us.size()), "count");
  out_.Detail("read_query_ok", static_cast<double>(stats_.ok), "count");
  out_.Detail("read_bodies_checked",
              static_cast<double>(stats_.bodies_checked), "count");
  out_.Detail("read_blocks", static_cast<double>(block_cpu_us_.size()),
              "count");

  // CPU time of the whole process (server, generator and idle client) per
  // base-rate request, median over the blocks. Socket latency on a host
  // whose hypervisor is busy with other guests pays for every wake-up of
  // an idle vCPU and can climb from tens of µs to ms, and the p50, p99 and
  // ladder top then spread too much between runs to carry a bound: they
  // are per-layer figures, and details here. CPU time is not charged for
  // those waits.
  const double cpu_us = Median(block_cpu_us_);
  const double p99 = stats_.p99_us(kWindowS);
  const QueryTally tally{stats_.attempted, stats_.ok};
  if (!options_.trace) {
    out_.Add("query_cpu_us", cpu_us, "us");
    out_.Detail("read_query_p50_us", stats_.p50_us(), "us");
    out_.Detail("read_query_p99_us", p99, "us");
    return tally;
  }

  const InProcess in_process =
      MeasureInProcess(server, make_, stream_seed_, 20000);
  const double requests = std::max(1.0, scraped_.requests);
  out_.Add("serve.lookup_ns", in_process.lookup_ns, "ns");
  out_.Add("serve.handle_us", in_process.handle_us, "us");
  out_.Add("serve.transport_us", stats_.p50_us() - in_process.handle_us,
           "us");
  // The batch_queue_wait stage is left out: the mix's 8-key batches stay
  // below RequestBatcher's parallel threshold and run inline, which the
  // server counts as zero wait, so the series reads 0 on every run.
  const char* stage_metrics[mlp::obs::kNumRequestStages] = {
      "serve.stage_parse_ns", "serve.stage_cache_lookup_ns", nullptr,
      "serve.stage_render_ns", "serve.stage_write_ns"};
  for (int i = 0; i < mlp::obs::kNumRequestStages; ++i) {
    if (stage_metrics[i] == nullptr) continue;
    out_.Add(stage_metrics[i], scraped_.stage_ns[i] / requests, "ns");
  }
  const double lookups = scraped_.cache_hits + scraped_.cache_misses;
  out_.Add("serve.cache_hit_ratio",
           lookups > 0 ? scraped_.cache_hits / lookups : 0.0, "ratio");
  out_.Add("serve.gen_lag_ms", Percentile(stats_.lag_us, 0.99) / 1e3, "ms");
  out_.Add("serve.query_p50_us", stats_.p50_us(), "us");
  out_.Add("serve.query_p99_us", p99, "us");
  out_.Add("serve.query_max_rps", max_rps, "req/s");
  out_.Detail("traced.query_cpu_us", cpu_us, "us");
  return tally;
}

}  // namespace perfbench
