// The workloads, and the rounds their blocks run in.
#include <algorithm>

#include "workloads.h"

namespace perfbench {

namespace {

// ACC@100mi floors, from seeds 1-30 of the default program at 4 threads:
// 72.0-90.0% at 800 users (66-97 unlabeled users each, so sampling
// spreads it) and 91.5-94.9% at 5k users. The floors sit about 7 and 3.5
// points below the lowest seed, so a fit that locates users worse fails
// the run even when it got faster.
const WorkloadSpec kWorkloads[] = {
    // Fits are short: the engine's dispatch, barrier and merge cost more
    // than the kernels. A batch is visible in about 0.5 s.
    {"small", 800, 9, 65.0, 1.2},
    // The sampling kernels do most of a fit; ReadModel::Build and the
    // warm resample make up most of the ~1.8 s until a batch is visible.
    {"large", 5000, 3, 88.0, 2.6},
};

// Shares of a round, in the order its blocks run. The ingest block is the
// workload's batch period, which sets the round's length.
constexpr double kFitShare = 0.3;
constexpr double kReadShare = 0.2;
constexpr double kIngestShare = 0.5;

}  // namespace

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : kWorkloads) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

Outcome RunWorkload(const RunOptions& options, const WorkloadSpec& spec) {
  Outcome out;
  out.sizes["users"] = spec.users;
  // The served model is fitted at nproc - 2 threads, and so is every
  // batch's apply: during ingest the writes get their cores and the reads
  // keep theirs, so query latency measures the program's interference,
  // not an oversubscribed CPU.
  const int base_fit_threads = std::max(1, options.nproc - 2);
  out.threads["base_fit"] = base_fit_threads;
  Served served;
  const mlp::Status setup = SetUpServed(options, spec.users, base_fit_threads,
                                        spec.setup_reps, &served);
  if (!setup.ok()) {
    out.Check(false, "set-up: " + setup.ToString());
    return out;
  }
  out.Detail("setup_fit_s", served.fit_s, "s");
  out.Detail("setup_read_model_build_ms", served.build_ms, "ms");
  out.Detail("setup_peak_rss_mb", PeakRssMb(), "MB");

  // The load generator: nproc - 2 query connections, each on its own
  // thread, plus one aux connection, so with the main thread at most nproc
  // threads and connections.
  Clients clients;
  clients.queries =
      OpenConnections(served.server->port(), std::max(1, options.nproc - 2));
  clients.aux.Connect(served.server->port());
  out.threads["query_connections"] = static_cast<int>(clients.queries.size());
  out.threads["aux_connections"] = 1;

  const double round_s = spec.batch_period_s / kIngestShare;
  const int rounds =
      std::max(1, static_cast<int>(options.seconds / round_s));
  out.sizes["rounds"] = rounds;
  out.Detail("round_s", round_s, "s");
  FitPhase fit(options, spec, *served.world, &out);
  ReadPhase read(options, served, clients, &out);
  IngestPhase ingest(options, spec, served, clients, rounds, &out);
  const mlp::Status started = ingest.Start();
  if (!started.ok()) {
    out.Check(false, "live ingest start: " + started.ToString());
    return out;
  }
  for (int r = 0; r < rounds; ++r) {
    fit.RunBlock(r, kFitShare * round_s);
    read.RunBlock(r, kReadShare * round_s);
    ingest.RunBlock(r, spec.batch_period_s);
  }
  // Read before the checks: the offline replay and the snapshot
  // comparison are the benchmark's own work, not the program's.
  const double peak_rss_mb = PeakRssMb();
  fit.Finish();
  const QueryTally reads = read.Finish();
  const QueryTally writes = ingest.Finish();
  served.server->Stop();

  // A failed request (timeout or transport error) is the share of queries
  // not answered; reported as the answered share because a 0 cannot be
  // bounded.
  const int64_t queries = reads.attempted + writes.attempted;
  const double ok_pct =
      queries > 0 ? 100.0 * static_cast<double>(reads.ok + writes.ok) /
                        static_cast<double>(queries)
                  : 0.0;
  if (!options.trace) {
    out.Add("setup_s", served.setup_s, "s");
    out.Add("query_ok_pct", ok_pct, "%");
    out.Add("peak_rss_mb", peak_rss_mb, "MB");
  } else {
    out.Add("io.dataset_load_ms", served.load_ms, "ms");
    out.Detail("traced.setup_s", served.setup_s, "s");
    out.Detail("traced.query_ok_pct", ok_pct, "%");
    out.Detail("traced.peak_rss_mb", peak_rss_mb, "MB");
  }
  return out;
}

}  // namespace perfbench
