#include "serve/model_server.h"

#include <cstdlib>
#include <limits>
#include <string_view>
#include <utility>

#include "common/logging.h"
#include "common/string_util.h"
#include "io/table_printer.h"
#include "obs/fit_profile.h"
#include "obs/metrics.h"
#include "obs/process_stats.h"
#include "obs/trace.h"
#include "serve/request_batcher.h"

namespace mlp {
namespace serve {

namespace {

HttpResponse ErrorResponse(int status, const std::string& message) {
  JsonWriter w;
  w.BeginObject();
  w.Key("error");
  w.String(message);
  w.EndObject();
  HttpResponse response;
  response.status = status;
  response.body = std::move(w).Take();
  return response;
}

/// Parses a non-negative decimal id occupying all of `text`; -1 otherwise.
int64_t ParseId(std::string_view text) {
  if (text.empty() || text.size() > 18) return -1;
  int64_t value = 0;
  for (char c : text) {
    if (c < '0' || c > '9') return -1;
    value = value * 10 + (c - '0');
  }
  return value;
}

/// Narrows an id to graph::UserId without wrap-around: anything outside
/// [0, INT32_MAX] becomes kInvalidUser, which every lookup rejects —
/// /v1/user/4294967296 must be a 404, not user 0.
graph::UserId NarrowUserId(int64_t id) {
  if (id < 0 || id > std::numeric_limits<int32_t>::max()) {
    return graph::kInvalidUser;
  }
  return static_cast<graph::UserId>(id);
}

/// steady_clock nanoseconds — independent of the obs::Enabled() switch
/// (model staleness must stay observable with tracing off).
int64_t SteadyNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Charges the time since `since_ns` to `stage` and returns now, so
/// back-to-back stages cost one clock read per boundary. A no-op (and 0)
/// with obs disabled.
int64_t EndStage(obs::RequestTrace* trace, obs::RequestStage stage,
                 int64_t since_ns) {
  const int64_t now_ns = obs::NowNs();
  if (since_ns > 0) trace->AddStageNs(stage, now_ns - since_ns);
  return now_ns;
}

/// A 200 whose body is one pre-rendered fragment, timed as render.
HttpResponse FragmentResponse(std::string_view fragment,
                              obs::RequestTrace* trace, int64_t since_ns) {
  HttpResponse response;
  response.body.assign(fragment.data(), fragment.size());
  EndStage(trace, obs::RequestStage::kRender, since_ns);
  return response;
}

/// Latency bounds shared by the per-endpoint histograms (same scale as
/// serve_request_latency_us).
std::vector<int64_t> LatencyBoundsUs() {
  return {100,   250,   500,    1000,   2500,  5000,
          10000, 25000, 50000, 100000, 250000, 1000000};
}

}  // namespace

ModelServer::ModelServer(ReadModel model, const ServeOptions& options)
    : options_(options),
      conn_pool_(std::max(1, options.threads)),
      http_(&conn_pool_),
      slow_ring_(static_cast<size_t>(std::max(1, options.slow_ring_capacity))),
      requests_total_(
          obs::Registry::Global().GetCounter("serve_requests_total")),
      request_latency_us_(obs::Registry::Global().GetHistogram(
          "serve_request_latency_us", LatencyBoundsUs())),
      user_latency_us_(obs::Registry::Global().GetHistogram(
          "serve_user_latency_us", LatencyBoundsUs())),
      edge_latency_us_(obs::Registry::Global().GetHistogram(
          "serve_edge_latency_us", LatencyBoundsUs())),
      batch_latency_us_(obs::Registry::Global().GetHistogram(
          "serve_batch_latency_us", LatencyBoundsUs())),
      other_latency_us_(obs::Registry::Global().GetHistogram(
          "serve_other_latency_us", LatencyBoundsUs())),
      user_errors_total_(
          obs::Registry::Global().GetCounter("serve_user_errors_total")),
      edge_errors_total_(
          obs::Registry::Global().GetCounter("serve_edge_errors_total")),
      batch_errors_total_(
          obs::Registry::Global().GetCounter("serve_batch_errors_total")),
      other_errors_total_(
          obs::Registry::Global().GetCounter("serve_other_errors_total")),
      slow_requests_total_(
          obs::Registry::Global().GetCounter("serve_slow_requests_total")),
      mem_readmodel_bytes_(
          obs::Registry::Global().GetGauge(obs::kMemReadModelBytes)) {
  for (int s = 0; s < obs::kNumRequestStages; ++s) {
    stage_ns_total_[s] = obs::Registry::Global().GetCounter(
        obs::RequestStageCounterName(static_cast<obs::RequestStage>(s)));
  }
  Publish(std::move(model), 1);
}

ModelServer::~ModelServer() { Stop(); }

Status ModelServer::Start() {
  start_time_ = std::chrono::steady_clock::now();
  last_swap_ns_.store(SteadyNs());
  if (options_.access_log && !options_.access_log_path.empty()) {
    access_log_file_ = std::fopen(options_.access_log_path.c_str(), "a");
    if (access_log_file_ == nullptr) {
      return Status::IOError("cannot open access log " +
                             options_.access_log_path);
    }
  }
  return http_.Start(
      options_.port,
      [this](const HttpRequest& request, obs::RequestTrace* trace) {
        return HandleTraced(request, trace);
      },
      [this](const HttpRequest& request, const HttpResponse& response,
             obs::RequestTrace& trace) {
        FinishRequest(request, response, trace);
      });
}

void ModelServer::Stop() {
  if (stopped_.exchange(true)) return;
  http_.Stop();
  conn_pool_.Drain();
  if (access_log_file_ != nullptr) {
    std::fclose(access_log_file_);
    access_log_file_ = nullptr;
  }
}

std::shared_ptr<const ModelServer::Published> ModelServer::Pin() const {
  // atomic_load on the shared_ptr: lock-free on the data path against
  // concurrent SwapReadModel stores, and the returned pin keeps the model
  // alive for the whole request even if a swap lands mid-render.
  return std::atomic_load(&published_);
}

void ModelServer::Publish(ReadModel model, uint64_t generation) {
  auto fresh = std::make_shared<Published>();
  fresh->model = std::make_shared<const ReadModel>(std::move(model));
  fresh->generation = generation;
  mem_readmodel_bytes_->Set(fresh->model->AccountedBytes());
  std::atomic_store(&published_,
                    std::shared_ptr<const Published>(std::move(fresh)));
}

void ModelServer::SwapReadModel(ReadModel model) {
  // Swaps serialize on a control-plane mutex: two concurrent swaps must
  // not mint the same generation or publish out of order. The data path
  // never takes this lock — requests only atomic_load the published pair.
  std::lock_guard<std::mutex> lock(swap_mu_);
  Publish(std::move(model), Pin()->generation + 1);
  swaps_.fetch_add(1);
  last_swap_ns_.store(SteadyNs());
}

double ModelServer::SecondsSinceLastSwap() const {
  const int64_t last = last_swap_ns_.load();
  if (last == 0) return 0.0;
  return static_cast<double>(SteadyNs() - last) / 1e9;
}

std::shared_ptr<const ReadModel> ModelServer::model() const {
  return Pin()->model;
}

uint64_t ModelServer::model_generation() const { return Pin()->generation; }

// --------------------------------------------------------------- routing

HttpResponse ModelServer::HandleUser(const ReadModel& model,
                                     std::string_view rest,
                                     obs::RequestTrace* trace,
                                     int64_t route_start_ns) {
  user_queries_.fetch_add(1);
  int64_t id = ParseId(rest);
  if (id < 0) {
    errors_.fetch_add(1);
    return ErrorResponse(400, "user id must be a non-negative integer");
  }
  int64_t clock_ns =
      EndStage(trace, obs::RequestStage::kRoute, route_start_ns);
  std::string_view fragment = model.UserJson(NarrowUserId(id));
  clock_ns = EndStage(trace, obs::RequestStage::kLookup, clock_ns);
  if (fragment.empty()) {
    errors_.fetch_add(1);
    return ErrorResponse(404, StringPrintf("no user %lld",
                                           static_cast<long long>(id)));
  }
  return FragmentResponse(fragment, trace, clock_ns);
}

HttpResponse ModelServer::HandleEdge(const ReadModel& model,
                                     std::string_view rest,
                                     obs::RequestTrace* trace,
                                     int64_t route_start_ns) {
  edge_queries_.fetch_add(1);
  size_t slash = rest.find('/');
  if (slash == std::string_view::npos) {
    errors_.fetch_add(1);
    return ErrorResponse(400, "expected /v1/edge/{src}/{dst}");
  }
  int64_t src = ParseId(rest.substr(0, slash));
  int64_t dst = ParseId(rest.substr(slash + 1));
  if (src < 0 || dst < 0) {
    errors_.fetch_add(1);
    return ErrorResponse(400, "edge endpoints must be non-negative integers");
  }
  int64_t clock_ns =
      EndStage(trace, obs::RequestStage::kRoute, route_start_ns);
  std::string_view fragment = model.EdgeJson(
      model.FindEdge(NarrowUserId(src), NarrowUserId(dst)));
  clock_ns = EndStage(trace, obs::RequestStage::kLookup, clock_ns);
  if (fragment.empty()) {
    errors_.fetch_add(1);
    return ErrorResponse(
        404, StringPrintf("no following relationship %lld -> %lld",
                          static_cast<long long>(src),
                          static_cast<long long>(dst)));
  }
  return FragmentResponse(fragment, trace, clock_ns);
}

HttpResponse ModelServer::HandleBatch(const ReadModel& model,
                                      const HttpRequest& request,
                                      obs::RequestTrace* trace,
                                      int64_t route_start_ns) {
  Result<JsonValue> parsed = ParseJson(request.body);
  if (!parsed.ok()) {
    errors_.fetch_add(1);
    return ErrorResponse(400, parsed.status().message());
  }
  if (!parsed->is_object()) {
    errors_.fetch_add(1);
    return ErrorResponse(400, "batch body must be a JSON object");
  }
  BatchRequest batch;
  if (const JsonValue* users = parsed->Find("users")) {
    if (!users->is_array()) {
      errors_.fetch_add(1);
      return ErrorResponse(400, "\"users\" must be an array of ids");
    }
    batch.users.reserve(users->items.size());
    for (const JsonValue& item : users->items) {
      batch.users.push_back(NarrowUserId(item.AsInt(-1)));
    }
  }
  if (const JsonValue* edges = parsed->Find("edges")) {
    if (!edges->is_array()) {
      errors_.fetch_add(1);
      return ErrorResponse(400, "\"edges\" must be an array of [src,dst]");
    }
    batch.edges.reserve(edges->items.size());
    for (const JsonValue& item : edges->items) {
      if (!item.is_array() || item.items.size() != 2) {
        errors_.fetch_add(1);
        return ErrorResponse(400, "each edge must be a [src,dst] pair");
      }
      batch.edges.emplace_back(NarrowUserId(item.items[0].AsInt(-1)),
                               NarrowUserId(item.items[1].AsInt(-1)));
    }
  }
  batches_.fetch_add(1);
  batch_queries_.fetch_add(batch.users.size() + batch.edges.size());
  EndStage(trace, obs::RequestStage::kRoute, route_start_ns);

  HttpResponse response;
  response.body = RenderBatchJson(model, batch, trace);
  return response;
}

HttpResponse ModelServer::HandleStats(const Published& published,
                                      std::string_view query) {
  const ReadModel& model = *published.model;
  const double uptime =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    start_time_)
          .count();
  std::vector<std::pair<std::string, std::string>> rows;
  auto add = [&](const std::string& key, const std::string& value) {
    rows.emplace_back(key, value);
  };
  add("users", std::to_string(model.num_users()));
  add("following_edges", std::to_string(model.num_edges()));
  add("model_generation", std::to_string(published.generation));
  add("model_swaps", std::to_string(swaps_.load()));
  add("active_candidate_slots",
      std::to_string(model.active_candidate_slots()));
  add("candidate_layout_version",
      std::to_string(model.candidate_layout_version()));
  add("mean_profile_entries",
      StringPrintf("%.2f", model.mean_profile_entries()));
  add("alpha", StringPrintf("%.4f", model.alpha()));
  add("beta", StringPrintf("%.6f", model.beta()));
  add("fit_complete", model.fit_complete() ? "1" : "0");
  // Memory picture (ISSUE 8): the read model's exact owned footprint next
  // to the live process RSS. mmap-backed models account only resident
  // structures — the gap between RSS and the snapshot size is the point.
  add("mmap_backed", model.mmap_backed() ? "1" : "0");
  obs::UpdateProcessRssGauges();
  add("mem_readmodel_bytes", std::to_string(model.AccountedBytes()));
  add("mem_process_rss_bytes", std::to_string(obs::ProcessRssBytes()));
  add("mem_process_peak_rss_bytes",
      std::to_string(obs::ProcessPeakRssBytes()));
  add("threads", std::to_string(conn_pool_.size()));
  add("uptime_seconds", StringPrintf("%.1f", uptime));
  add("requests_served", std::to_string(http_.requests_served()));
  add("connections_accepted", std::to_string(http_.connections_accepted()));
  add("user_queries", std::to_string(user_queries_.load()));
  add("edge_queries", std::to_string(edge_queries_.load()));
  add("batch_lookups", std::to_string(batch_queries_.load()));
  add("batches_executed", std::to_string(batches_.load()));
  add("errors", std::to_string(errors_.load()));
  add("conn_queue_depth", std::to_string(conn_pool_.queue_depth()));
  // Live ingest daemon (ISSUE 10): the spool watcher's registry metrics,
  // surfaced here so the CI live-pipeline job (and operators) can poll a
  // single JSON endpoint for swap progress and quarantine counts. All
  // zero when no --spool watcher is attached.
  obs::Registry& registry = obs::Registry::Global();
  add("live_spool_depth",
      std::to_string(registry.GetGauge(obs::kIngestSpoolDepth)->Value()));
  add("live_batches_applied",
      std::to_string(
          registry.GetCounter(obs::kIngestLiveBatchesTotal)->Value()));
  add("live_batches_failed",
      std::to_string(
          registry.GetCounter(obs::kIngestFailedBatchesTotal)->Value()));
  add("live_swap_staleness_ms",
      std::to_string(
          registry.GetGauge(obs::kIngestSwapStalenessMs)->Value()));

  HttpResponse response;
  if (query == "format=csv" || query == "format=table") {
    io::TablePrinter table({"stat", "value"});
    for (const auto& [key, value] : rows) table.AddRow({key, value});
    const bool csv = query == "format=csv";
    response.content_type = csv ? "text/csv" : "text/plain";
    response.body = csv ? table.ToCsv() : table.ToString();
    return response;
  }
  // Default: the same rows as a flat JSON object (values kept as the
  // strings the table renders — /statsz is an operator surface, not an API
  // contract).
  JsonWriter w;
  w.BeginObject();
  for (const auto& [key, value] : rows) {
    w.Key(key);
    w.String(value);
  }
  w.EndObject();
  response.body = std::move(w).Take();
  return response;
}

HttpResponse ModelServer::HandleMetrics(const Published& published) {
  // Everything the process-wide registry holds (fit/ingest phase counters,
  // the request-latency histograms, the read-model footprint gauge set at
  // each publish), plus server-local stats rendered in the same exposition
  // format.
  // Every scrape sees the memory picture as of this scrape, not as of the
  // last /statsz visit: refresh VmRSS/VmHWM before rendering.
  obs::UpdateProcessRssGauges();
  std::string body = obs::Registry::Global().RenderPrometheus();
  auto counter = [&](const char* name, uint64_t value) {
    body += StringPrintf("# TYPE %s counter\n%s %llu\n", name, name,
                         static_cast<unsigned long long>(value));
  };
  auto gauge = [&](const char* name, int64_t value) {
    body += StringPrintf("# TYPE %s gauge\n%s %lld\n", name, name,
                         static_cast<long long>(value));
  };
  counter("serve_errors_total", errors_.load());
  counter("serve_model_swaps_total", swaps_.load());
  gauge("serve_conn_queue_depth", conn_pool_.queue_depth());
  gauge("serve_model_generation", static_cast<int64_t>(published.generation));
  gauge("serve_seconds_since_last_swap",
        static_cast<int64_t>(SecondsSinceLastSwap()));
  HttpResponse response;
  response.content_type = "text/plain; version=0.0.4";
  response.body = std::move(body);
  return response;
}

HttpResponse ModelServer::HandleStatusz(const Published& published) {
  const ReadModel& model = *published.model;
  obs::UpdateProcessRssGauges();
  const double uptime =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    start_time_)
          .count();
  const uint64_t requests = http_.requests_served();
  const double qps = uptime > 0.0 ? static_cast<double>(requests) / uptime
                                  : 0.0;

  std::string body;
  body +=
      "<!DOCTYPE html><html><head><title>mlp /statusz</title>"
      "<style>body{font-family:monospace;margin:2em}"
      "table{border-collapse:collapse;margin-bottom:1.5em}"
      "td,th{border:1px solid #999;padding:4px 10px;text-align:right}"
      "th{background:#eee}td:first-child,th:first-child{text-align:left}"
      "</style></head><body><h1>mlp model server</h1>\n";

  body += "<h2>server</h2><table>\n";
  auto row = [&](const char* key, const std::string& value) {
    body += StringPrintf("<tr><td>%s</td><td>%s</td></tr>\n", key,
                         value.c_str());
  };
  row("uptime_seconds", StringPrintf("%.1f", uptime));
  row("qps", StringPrintf("%.2f", qps));
  row("requests_served", std::to_string(requests));
  row("errors", std::to_string(errors_.load()));
  row("model_generation", std::to_string(published.generation));
  row("model_swaps", std::to_string(swaps_.load()));
  row("seconds_since_last_swap",
      StringPrintf("%.1f", SecondsSinceLastSwap()));
  row("model_users", std::to_string(model.num_users()));
  row("vm_rss_bytes", std::to_string(obs::ProcessRssBytes()));
  row("vm_hwm_bytes", std::to_string(obs::ProcessPeakRssBytes()));
  row("slow_requests_captured", std::to_string(slow_ring_.total_pushed()));
  body += "</table>\n";

  // Live ingest daemon (ISSUE 10): spool health at a glance. Rendered only
  // when a watcher has ever touched the registry (applied or failed at
  // least one batch, or has a non-empty spool) — a plain static server
  // keeps its dashboard uncluttered.
  obs::Registry& registry = obs::Registry::Global();
  const int64_t live_depth = registry.GetGauge(obs::kIngestSpoolDepth)->Value();
  const uint64_t live_applied =
      registry.GetCounter(obs::kIngestLiveBatchesTotal)->Value();
  const uint64_t live_failed =
      registry.GetCounter(obs::kIngestFailedBatchesTotal)->Value();
  if (live_depth > 0 || live_applied > 0 || live_failed > 0) {
    body += "<h2>live ingest</h2><table>\n";
    row("spool_depth", std::to_string(live_depth));
    row("batches_applied", std::to_string(live_applied));
    row("batches_failed", std::to_string(live_failed));
    row("swap_staleness_ms",
        std::to_string(
            registry.GetGauge(obs::kIngestSwapStalenessMs)->Value()));
    const obs::Histogram::Snapshot apply_snap =
        registry.GetHistogram(obs::kIngestApplyNs, obs::IngestApplyNsBounds())
            ->GetSnapshot();
    row("mean_apply_ms",
        StringPrintf("%.1f", apply_snap.count > 0
                                 ? static_cast<double>(apply_snap.sum) /
                                       static_cast<double>(apply_snap.count) /
                                       1e6
                                 : 0.0));
    body += "</table>\n";
  }

  body +=
      "<h2>latency by endpoint (µs)</h2><table>\n"
      "<tr><th>endpoint</th><th>count</th><th>p50</th><th>p99</th></tr>\n";
  auto latency_row = [&](const char* label, const obs::Histogram* histogram) {
    const obs::Histogram::Snapshot snap = histogram->GetSnapshot();
    body += StringPrintf(
        "<tr><td>%s</td><td>%llu</td><td>%.0f</td><td>%.0f</td></tr>\n",
        label, static_cast<unsigned long long>(snap.count),
        obs::HistogramQuantile(snap, 0.5), obs::HistogramQuantile(snap, 0.99));
  };
  latency_row("all", request_latency_us_);
  latency_row("user", user_latency_us_);
  latency_row("edge", edge_latency_us_);
  latency_row("batch", batch_latency_us_);
  latency_row("other", other_latency_us_);
  body += "</table>\n";

  body +=
      "<p>more: <a href=\"/statsz\">/statsz</a> "
      "<a href=\"/metricsz\">/metricsz</a> "
      "<a href=\"/debug/slowz\">/debug/slowz</a></p></body></html>\n";

  HttpResponse response;
  response.content_type = "text/html; charset=utf-8";
  response.body = std::move(body);
  return response;
}

HttpResponse ModelServer::HandleSlowz() {
  const std::vector<obs::RequestTraceRecord> records = slow_ring_.Snapshot();
  JsonWriter w;
  w.BeginObject();
  w.Key("threshold_us");
  w.Int(options_.slow_request_us);
  w.Key("capacity");
  w.Int(static_cast<int64_t>(slow_ring_.capacity()));
  w.Key("total_captured");
  w.Int(static_cast<int64_t>(slow_ring_.total_pushed()));
  w.Key("count");
  w.Int(static_cast<int64_t>(records.size()));
  w.Key("requests");
  w.BeginArray();
  for (const obs::RequestTraceRecord& r : records) {
    w.BeginObject();
    w.Key("id");
    w.Int(static_cast<int64_t>(r.id));
    w.Key("method");
    w.String(r.method);
    w.Key("target");
    w.String(r.target);
    w.Key("status");
    w.Int(r.status);
    w.Key("endpoint");
    w.String(r.endpoint);
    w.Key("outcome");
    w.String(r.outcome);
    w.Key("generation");
    w.Int(static_cast<int64_t>(r.generation));
    w.Key("total_us");
    w.Int(r.total_ns / 1000);
    w.Key("stages");
    w.BeginObject();
    for (int s = 0; s < obs::kNumRequestStages; ++s) {
      const auto stage = static_cast<obs::RequestStage>(s);
      w.Key(std::string(obs::RequestStageName(stage)) + "_us");
      w.Int(r.stage_ns[s] / 1000);
    }
    w.EndObject();
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  HttpResponse response;
  response.body = std::move(w).Take();
  return response;
}

void ModelServer::WriteAccessLog(const HttpRequest& request,
                                 const obs::RequestTrace& trace) {
  JsonWriter w;
  w.BeginObject();
  w.Key("ts_us");
  w.Int(trace.start_ns() / 1000);
  w.Key("id");
  w.Int(static_cast<int64_t>(trace.id()));
  w.Key("method");
  w.String(request.method);
  w.Key("target");
  w.String(request.target);
  w.Key("status");
  w.Int(trace.status());
  w.Key("endpoint");
  w.String(trace.endpoint());
  w.Key("outcome");
  w.String(trace.outcome());
  w.Key("generation");
  w.Int(static_cast<int64_t>(trace.generation()));
  w.Key("total_us");
  w.Int(trace.total_ns() / 1000);
  for (int s = 0; s < obs::kNumRequestStages; ++s) {
    const auto stage = static_cast<obs::RequestStage>(s);
    w.Key(std::string(obs::RequestStageName(stage)) + "_us");
    w.Int(trace.stage_ns(stage) / 1000);
  }
  w.EndObject();
  const std::string line = std::move(w).Take();
  if (access_log_file_ != nullptr) {
    // One locked fputs+flush per request: the log is line-atomic and
    // survives a crash up to the last completed request.
    std::lock_guard<std::mutex> lock(access_log_mu_);
    std::fputs(line.c_str(), access_log_file_);
    std::fputc('\n', access_log_file_);
    std::fflush(access_log_file_);
  } else {
    MLP_LOG(kInfo) << "access " << line;
  }
}

HttpResponse ModelServer::Handle(const HttpRequest& request) {
  obs::RequestTrace trace;
  HttpResponse response = HandleTraced(request, &trace);
  trace.set_status(response.status);
  FinishRequest(request, response, trace);
  return response;
}

HttpResponse ModelServer::HandleTraced(const HttpRequest& request,
                                       obs::RequestTrace* trace) {
  requests_total_->Add(1);
  return Route(request, trace);
}

void ModelServer::FinishRequest(const HttpRequest& request,
                                const HttpResponse& response,
                                obs::RequestTrace& trace) {
  trace.Finish();  // idempotent; the socket path already finished it
  if (obs::Enabled()) {
    const int64_t total_us = trace.total_ns() / 1000;
    request_latency_us_->Record(total_us);
    for (int s = 0; s < obs::kNumRequestStages; ++s) {
      const int64_t ns = trace.stage_ns(static_cast<obs::RequestStage>(s));
      if (ns > 0) stage_ns_total_[s]->Add(static_cast<uint64_t>(ns));
    }
    const std::string_view endpoint = trace.endpoint();
    if (response.status >= 400) {
      trace.set_outcome("error");
      obs::Counter* errors = other_errors_total_;
      if (endpoint == "user") errors = user_errors_total_;
      else if (endpoint == "edge") errors = edge_errors_total_;
      else if (endpoint == "batch") errors = batch_errors_total_;
      errors->Add(1);
    } else {
      trace.set_outcome("ok");
      obs::Histogram* latency = other_latency_us_;
      if (endpoint == "user") latency = user_latency_us_;
      else if (endpoint == "edge") latency = edge_latency_us_;
      else if (endpoint == "batch") latency = batch_latency_us_;
      latency->Record(total_us);
    }
    if (options_.slow_request_us > 0 && total_us >= options_.slow_request_us) {
      slow_requests_total_->Add(1);
      slow_ring_.Push(obs::MakeRecord(trace, request.method, request.target));
    }
  }
  if (options_.access_log) WriteAccessLog(request, trace);
}

HttpResponse ModelServer::Route(const HttpRequest& request,
                                obs::RequestTrace* trace) {
  const int64_t route_start_ns = obs::NowNs();
  const std::string_view target = request.target;
  const size_t qmark = target.find('?');
  const std::string_view path = target.substr(0, qmark);
  const std::string_view query =
      qmark == std::string_view::npos ? std::string_view()
                                      : target.substr(qmark + 1);

  // Pin one (model, generation) snapshot for the whole request: a
  // concurrent SwapReadModel can land at any point from here on and this
  // request still renders consistently from the model it started with.
  const std::shared_ptr<const Published> published = Pin();
  trace->set_generation(published->generation);

  if (path == "/healthz") {
    trace->set_endpoint("health");
    JsonWriter w;
    w.BeginObject();
    w.Key("status");
    w.String("ok");
    w.Key("model");
    w.String("loaded");
    w.Key("users");
    w.Int(published->model->num_users());
    w.EndObject();
    HttpResponse response;
    response.body = std::move(w).Take();
    return response;
  }
  if (path == "/statsz") {
    trace->set_endpoint("stats");
    return HandleStats(*published, query);
  }
  if (path == "/metricsz") {
    trace->set_endpoint("metrics");
    return HandleMetrics(*published);
  }
  if (path == "/statusz") {
    trace->set_endpoint("statusz");
    return HandleStatusz(*published);
  }
  if (path == "/debug/slowz") {
    trace->set_endpoint("slowz");
    return HandleSlowz();
  }

  constexpr char kUserPrefix[] = "/v1/user/";
  constexpr char kEdgePrefix[] = "/v1/edge/";
  if (path.rfind(kUserPrefix, 0) == 0) {
    trace->set_endpoint("user");
    if (request.method != "GET") {
      errors_.fetch_add(1);
      return ErrorResponse(405, "use GET");
    }
    return HandleUser(*published->model, path.substr(sizeof(kUserPrefix) - 1),
                      trace, route_start_ns);
  }
  if (path.rfind(kEdgePrefix, 0) == 0) {
    trace->set_endpoint("edge");
    if (request.method != "GET") {
      errors_.fetch_add(1);
      return ErrorResponse(405, "use GET");
    }
    return HandleEdge(*published->model, path.substr(sizeof(kEdgePrefix) - 1),
                      trace, route_start_ns);
  }
  if (path == "/v1/batch") {
    trace->set_endpoint("batch");
    if (request.method != "POST") {
      errors_.fetch_add(1);
      return ErrorResponse(405, "use POST");
    }
    return HandleBatch(*published->model, request, trace, route_start_ns);
  }
  errors_.fetch_add(1);
  return ErrorResponse(404, "unknown endpoint " + std::string(path));
}

}  // namespace serve
}  // namespace mlp
