#ifndef MLP_SERVE_MODEL_SERVER_H_
#define MLP_SERVE_MODEL_SERVER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>

#include "common/result.h"
#include "engine/thread_pool.h"
#include "obs/metrics.h"
#include "obs/request_trace.h"
#include "obs/ring_log.h"
#include "serve/http_server.h"
#include "serve/json.h"
#include "serve/read_model.h"

namespace mlp {
namespace serve {

/// Server knobs (the `mlpctl serve` flags map 1:1 onto these).
struct ServeOptions {
  /// TCP port to bind on 127.0.0.1; 0 picks an ephemeral port.
  int port = 8080;
  /// Worker threads serving connections.
  int threads = 4;
  /// Profile entries served per user (ReadModelOptions::top_k).
  int top_k = 10;
  /// Structured JSON access log, one line per request (`mlpctl serve
  /// --access_log[=path]`). With a path the lines are appended to that
  /// file (flushed per line); with the bare flag they go through
  /// MLP_LOG(kInfo).
  bool access_log = false;
  std::string access_log_path;
  /// Requests whose total time crosses this many microseconds are retained
  /// (with their stage breakdown) in the GET /debug/slowz ring; <= 0
  /// disables slow-request capture.
  int64_t slow_request_us = 10000;
  /// How many slow-request traces /debug/slowz retains.
  int slow_ring_capacity = 64;
};

/// The online query front end over one fitted model (ISSUE 4 / ROADMAP
/// "serving layer"): an immutable ReadModel behind a minimal HTTP/1.1
/// server. The request path is HttpServer → ModelServer → ReadModel: every
/// /v1 read answers straight from the model's pre-rendered JSON fragments
/// (a point query is one substring copy, a batch a concatenation of them).
///
/// Endpoints (all JSON; see src/serve/README.md for shapes):
///   GET  /v1/user/{id}         posterior location profile + home of a user
///   GET  /v1/edge/{src}/{dst}  following-relationship explanation
///   POST /v1/batch             {"users":[...],"edges":[[s,d],...]}
///   GET  /healthz              liveness
///   GET  /statsz               server/model counters (?format=csv for CSV)
///   GET  /metricsz             Prometheus text exposition (scrape target)
///   GET  /statusz              human-readable HTML dashboard (QPS,
///                              per-endpoint p50/p99, model
///                              generation/staleness, RSS)
///   GET  /debug/slowz          last-N slow requests with stage breakdowns
///
/// Threading: connections run on `conn_pool_`, and each request is
/// answered inline on its connection's thread. Each ReadModel is immutable
/// after Build; the server publishes the CURRENT one behind an atomic
/// shared_ptr so streaming ingest can swap in a post-delta model while the
/// server runs (SwapReadModel): every request pins one (model, generation)
/// snapshot up front and renders entirely against it, so in-flight queries
/// finish on the model they started with and the swap never blocks the
/// data path.
class ModelServer {
 public:
  ModelServer(ReadModel model, const ServeOptions& options);

  ModelServer(const ModelServer&) = delete;
  ModelServer& operator=(const ModelServer&) = delete;
  ~ModelServer();

  /// Binds and starts serving. Returns the bound port via port().
  Status Start();
  int port() const { return http_.port(); }
  bool running() const { return http_.running(); }

  /// Graceful shutdown: stop accepting, finish in-flight requests, drain
  /// the pool. Safe to call from a signal-driven main loop; idempotent.
  void Stop();

  /// Atomically publishes `model` as the serving view (streaming ingest:
  /// the post-delta snapshot's ReadModel). Requests that already pinned
  /// the previous model finish on it — the shared_ptr keeps it alive until
  /// the last one returns — while every new request sees the new model.
  /// Refreshes the mem_readmodel_bytes gauge. Safe to call from any
  /// thread, any number of times.
  void SwapReadModel(ReadModel model);

  /// Pins and returns the currently published model.
  std::shared_ptr<const ReadModel> model() const;
  /// Monotonic publish counter, starting at 1; reported by /statsz as
  /// "model_generation" so operators can observe ingest swaps land.
  uint64_t model_generation() const;

  uint64_t requests_served() const { return http_.requests_served(); }
  uint64_t connections_accepted() const {
    return http_.connections_accepted();
  }

  /// The request router — exposed so tests can exercise routing and
  /// rendering without sockets. Creates a local RequestTrace and runs the
  /// full HandleTraced + FinishRequest pipeline (histograms, access log,
  /// slow ring), minus the socket-level parse/write stages.
  HttpResponse Handle(const HttpRequest& request);

  /// The traced request path: counts the request, routes it, and lets each
  /// layer attribute its stages into `*trace` (never null). The HTTP
  /// server calls this as its handler.
  HttpResponse HandleTraced(const HttpRequest& request,
                            obs::RequestTrace* trace);
  /// Completion hook: finishes the trace (idempotent), labels its outcome
  /// ok/error, records the per-endpoint latency histograms, stage counters
  /// and error counters, captures slow requests into the /debug/slowz
  /// ring, and emits the access-log line.
  void FinishRequest(const HttpRequest& request, const HttpResponse& response,
                     obs::RequestTrace& trace);

 private:
  /// One published (model, generation) pair — swapped as a unit so a
  /// request's trace always names the generation it rendered from.
  struct Published {
    std::shared_ptr<const ReadModel> model;
    uint64_t generation = 1;
  };

  std::shared_ptr<const Published> Pin() const;
  /// Publishes `model` under `generation` and refreshes the
  /// mem_readmodel_bytes gauge, so a scraper sees the served model's
  /// footprint without ever visiting /statsz.
  void Publish(ReadModel model, uint64_t generation);

  /// The /v1 reads. `rest` is the target after the endpoint prefix;
  /// `route_start_ns` is when routing began: the route stage runs until
  /// the ids are decoded, then lookup and render are charged in turn.
  HttpResponse HandleUser(const ReadModel& model, std::string_view rest,
                          obs::RequestTrace* trace, int64_t route_start_ns);
  HttpResponse HandleEdge(const ReadModel& model, std::string_view rest,
                          obs::RequestTrace* trace, int64_t route_start_ns);
  HttpResponse HandleBatch(const ReadModel& model, const HttpRequest& request,
                           obs::RequestTrace* trace, int64_t route_start_ns);
  HttpResponse HandleStats(const Published& published,
                           std::string_view query);
  HttpResponse HandleMetrics(const Published& published);
  HttpResponse HandleStatusz(const Published& published);
  HttpResponse HandleSlowz();
  /// The actual router; HandleTraced() wraps it with request counting and
  /// labels the trace with endpoint/generation.
  HttpResponse Route(const HttpRequest& request, obs::RequestTrace* trace);
  /// Appends one structured JSON access-log line for a finished request.
  void WriteAccessLog(const HttpRequest& request,
                      const obs::RequestTrace& trace);
  /// Seconds since the last SwapReadModel (or Start, before any swap).
  double SecondsSinceLastSwap() const;

  /// Swapped atomically (std::atomic_load/atomic_store on shared_ptr).
  std::shared_ptr<const Published> published_;
  /// Serializes SwapReadModel calls (unique, monotonic generations);
  /// never touched on the request path.
  std::mutex swap_mu_;
  ServeOptions options_;
  engine::ThreadPool conn_pool_;
  HttpServer http_;
  std::atomic<bool> stopped_{false};

  std::atomic<uint64_t> user_queries_{0};
  std::atomic<uint64_t> edge_queries_{0};
  std::atomic<uint64_t> batch_queries_{0};
  std::atomic<uint64_t> batches_{0};
  std::atomic<uint64_t> errors_{0};
  std::atomic<uint64_t> swaps_{0};
  std::chrono::steady_clock::time_point start_time_;
  /// steady_clock ns of the last model publish (Start or SwapReadModel) —
  /// deliberately not obs::NowNs(), so /statusz staleness survives
  /// obs::SetEnabled(false).
  std::atomic<int64_t> last_swap_ns_{0};

  /// Slow-request retention (GET /debug/slowz); only requests crossing
  /// options_.slow_request_us ever touch it.
  obs::RingLog slow_ring_;
  /// Access log sink when options_.access_log names a path; lines are
  /// serialized by access_log_mu_ and flushed per line.
  std::FILE* access_log_file_ = nullptr;
  std::mutex access_log_mu_;

  // Registry-owned handles (process-lifetime; see src/obs/README.md).
  obs::Counter* requests_total_;
  obs::Histogram* request_latency_us_;
  // Per-endpoint latency histograms (error responses are counted, not
  // histogrammed).
  obs::Histogram* user_latency_us_;
  obs::Histogram* edge_latency_us_;
  obs::Histogram* batch_latency_us_;
  obs::Histogram* other_latency_us_;
  obs::Counter* user_errors_total_;
  obs::Counter* edge_errors_total_;
  obs::Counter* batch_errors_total_;
  obs::Counter* other_errors_total_;
  obs::Counter* slow_requests_total_;
  obs::Gauge* mem_readmodel_bytes_;
  // serve_stage_*_ns, indexed by obs::RequestStage.
  obs::Counter* stage_ns_total_[obs::kNumRequestStages];
};

}  // namespace serve
}  // namespace mlp

#endif  // MLP_SERVE_MODEL_SERVER_H_
