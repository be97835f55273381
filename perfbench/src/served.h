// Set-up of every workload: a seeded world, a fitted model
// saved and loaded the way `mlpctl fit --save` / `mlpctl serve --load` do,
// and a running ModelServer on an ephemeral loopback port.
#ifndef PERFBENCH_SERVED_H_
#define PERFBENCH_SERVED_H_

#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "io/model_snapshot.h"
#include "loadgen.h"
#include "serve/model_server.h"
#include "world.h"

namespace perfbench {

struct Served {
  std::unique_ptr<World> world;
  mlp::io::ModelSnapshot snapshot;  // as loaded back from disk
  std::unique_ptr<mlp::serve::ModelServer> server;
  mlp::serve::ServeOptions serve_options;
  int fit_threads = 1;  // of the base fit, and so of every delta apply

  // Set-up timings, medians over the repeats of the whole set-up.
  double setup_s = 0.0;
  double load_ms = 0.0;   // io::LoadDataset
  double build_ms = 0.0;  // serve::ReadModel::Build
  double fit_s = 0.0;     // the base fit
};

/// The whole set-up, `reps` times: generates and loads a `users`-user
/// world, fits it at `fit_threads` and saves the snapshot
/// (`mlpctl fit --save`), reloads the snapshot, builds the read model and
/// starts a server at default ServeOptions on an ephemeral port
/// (`mlpctl serve --load`). The last world and server are kept.
mlp::Status SetUpServed(const RunOptions& options, int users, int fit_threads,
                        int reps, Served* served);

/// The requests of one workload's key stream. A batch asks for 8 users
/// and 8 edges.
struct QueryMix {
  double batch_share = 0.0;  // POST /v1/batch
  double edge_share = 0.3;   // GET /v1/edge/{src}/{dst}; rest GET /v1/user
};
RequestMaker MakeQueryMaker(const mlp::graph::SocialGraph& graph,
                            const QueryMix& mix, double zipf_s,
                            uint64_t seed);

/// Opens `n` keep-alive connections to the server.
std::vector<std::unique_ptr<HttpConn>> OpenConnections(int port, int n);

/// Median ns of ReadModel lookups (UserJson / FindEdge + EdgeJson) and
/// median µs of in-process ModelServer::Handle over `count` requests of
/// the key stream `make` produces from `stream_seed`.
struct InProcess {
  double lookup_ns = 0.0;
  double handle_us = 0.0;
};
InProcess MeasureInProcess(mlp::serve::ModelServer& server,
                           const RequestMaker& make, uint64_t stream_seed,
                           int count);

}  // namespace perfbench

#endif  // PERFBENCH_SERVED_H_
