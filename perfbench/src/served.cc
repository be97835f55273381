#include "served.h"

#include "serve/read_model.h"

namespace perfbench {

// Keeps the compiler from dropping the timed lookups.
volatile size_t g_keep = 0;

constexpr int kBatchKeys = 8;  // users and edges per POST /v1/batch

mlp::Status SetUpServed(const RunOptions& options, int users, int fit_threads,
                        int reps, Served* served) {
  // `mlpctl fit --save`: fit, then write the snapshot; the fitted state
  // is dropped before serving, which reads the snapshot back.
  const std::string path = options.work_dir + "/model.snap";
  served->fit_threads = fit_threads;
  served->serve_options.port = 0;
  std::vector<double> setup_s, load_ms, fit_s, build_ms;
  for (int r = 0; r < reps; ++r) {
    if (served->server != nullptr) {
      served->server->Stop();
      served->server.reset();
    }
    WorldTimes times;
    MLP_ASSIGN_OR_RETURN(served->world,
                         MakeWorld(users, WorldSeed(options),
                                   options.work_dir + "/world", &times));
    load_ms.push_back(times.load_s * 1e3);
    const int64_t fit_start = NowNs();
    const mlp::core::MlpConfig config = FitConfig(fit_threads, options.seed);
    MLP_ASSIGN_OR_RETURN(FittedModel fitted,
                         FitModel(*served->world, config));
    fit_s.push_back(SecondsSince(fit_start));
    MLP_RETURN_NOT_OK(mlp::io::SaveModelSnapshot(
        path, mlp::io::MakeModelSnapshot(served->world->Input(),
                                         fitted.checkpoint, fitted.result)));

    MLP_ASSIGN_OR_RETURN(served->snapshot, mlp::io::LoadModelSnapshot(path));
    const int64_t build_start = NowNs();
    MLP_ASSIGN_OR_RETURN(
        mlp::serve::ReadModel model,
        mlp::serve::ReadModel::Build(served->snapshot,
                                     served->world->data.graph,
                                     &served->world->gazetteer));
    build_ms.push_back(SecondsSince(build_start) * 1e3);
    served->server = std::make_unique<mlp::serve::ModelServer>(
        std::move(model), served->serve_options);
    MLP_RETURN_NOT_OK(served->server->Start());
    setup_s.push_back(times.generate_s + times.load_s +
                      SecondsSince(fit_start));
  }
  served->setup_s = Median(setup_s);
  served->load_ms = Median(load_ms);
  served->fit_s = Median(fit_s);
  served->build_ms = Median(build_ms);
  return mlp::Status::OK();
}

RequestMaker MakeQueryMaker(const mlp::graph::SocialGraph& graph,
                            const QueryMix& mix, double zipf_s,
                            uint64_t seed) {
  auto users = std::make_shared<KeySampler>(graph.num_users(), zipf_s, seed);
  auto edges =
      std::make_shared<KeySampler>(graph.num_following(), zipf_s, seed + 1);
  const mlp::graph::SocialGraph* g = &graph;
  return [users, edges, g, mix](mlp::Pcg32& rng) {
    Request request;
    auto draw_edge = [&]() {
      const mlp::graph::FollowingEdge& e =
          g->following(edges->Draw(rng.NextDouble()));
      return std::make_pair(static_cast<int>(e.follower),
                            static_cast<int>(e.friend_user));
    };
    const double pick = rng.NextDouble();
    if (pick < mix.batch_share) {
      request.kind = Request::kBatch;
      request.method = "POST";
      request.target = "/v1/batch";
      request.body = "{\"users\":[";
      for (int i = 0; i < kBatchKeys; ++i) {
        request.users.push_back(users->Draw(rng.NextDouble()));
        if (i > 0) request.body += ',';
        request.body += std::to_string(request.users.back());
      }
      request.body += "],\"edges\":[";
      for (int i = 0; i < kBatchKeys; ++i) {
        request.edges.push_back(draw_edge());
        if (i > 0) request.body += ',';
        request.body += "[" + std::to_string(request.edges.back().first) +
                        "," + std::to_string(request.edges.back().second) +
                        "]";
      }
      request.body += "]}";
    } else if (pick < mix.batch_share + mix.edge_share) {
      request.kind = Request::kEdge;
      request.edges.push_back(draw_edge());
      request.target = "/v1/edge/" + std::to_string(request.edges[0].first) +
                       "/" + std::to_string(request.edges[0].second);
    } else {
      request.kind = Request::kUser;
      request.users.push_back(users->Draw(rng.NextDouble()));
      request.target = "/v1/user/" + std::to_string(request.users[0]);
    }
    return request;
  };
}

std::vector<std::unique_ptr<HttpConn>> OpenConnections(int port, int n) {
  std::vector<std::unique_ptr<HttpConn>> conns;
  for (int i = 0; i < n; ++i) {
    conns.push_back(std::make_unique<HttpConn>());
    conns.back()->Connect(port);
  }
  return conns;
}

InProcess MeasureInProcess(mlp::serve::ModelServer& server,
                           const RequestMaker& make, uint64_t stream_seed,
                           int count) {
  std::vector<Request> requests;
  mlp::Pcg32 rng(stream_seed, 1);
  for (int i = 0; i < count; ++i) requests.push_back(make(rng));
  const std::shared_ptr<const mlp::serve::ReadModel> model = server.model();

  // Lookups are tens of ns: time chunks and take the median chunk mean.
  constexpr int kChunk = 64;
  std::vector<double> lookup_ns;
  size_t sink = 0;
  for (size_t begin = 0; begin + kChunk <= requests.size(); begin += kChunk) {
    int lookups = 0;
    const int64_t start = NowNs();
    for (size_t i = begin; i < begin + kChunk; ++i) {
      for (int u : requests[i].users) {
        sink += model->UserJson(u).size();
        ++lookups;
      }
      for (const auto& e : requests[i].edges) {
        sink += model->EdgeJson(model->FindEdge(e.first, e.second)).size();
        ++lookups;
      }
    }
    lookup_ns.push_back(static_cast<double>(NowNs() - start) /
                        std::max(1, lookups));
  }

  std::vector<double> handle_us;
  for (const Request& r : requests) {
    mlp::serve::HttpRequest request;
    request.method = r.method;
    request.target = r.target;
    request.body = r.body;
    const int64_t start = NowNs();
    const mlp::serve::HttpResponse response = server.Handle(request);
    handle_us.push_back(static_cast<double>(NowNs() - start) / 1e3);
    sink += response.body.size();
  }
  g_keep = sink;
  InProcess result;
  result.lookup_ns = Median(lookup_ns);
  result.handle_us = Median(handle_us);
  return result;
}

}  // namespace perfbench
