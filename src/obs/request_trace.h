#ifndef MLP_OBS_REQUEST_TRACE_H_
#define MLP_OBS_REQUEST_TRACE_H_

#include <cstdint>
#include <string>

#include "obs/trace.h"

namespace mlp {
namespace obs {

/// The per-request stages the serving layer attributes time to (ISSUE 9).
/// The set is fixed: a stage is an index into a flat array on the trace,
/// so recording costs two clock reads and one add — no maps, no strings.
/// The indices are stable (benchmarks read the counters by position).
enum class RequestStage : int {
  kParse = 0,   // socket read + HTTP parse of the request
  kLookup = 1,  // ReadModel id -> pre-rendered fragment resolution
  kRoute = 2,   // target split, model pin, id / batch-body decode
  kRender = 3,  // response body assembly from the fragments
  kWrite = 4,   // response serialization + socket write
};
inline constexpr int kNumRequestStages = 5;

/// Stable display name ("parse", "lookup", ...) for logs and /debug
/// surfaces.
const char* RequestStageName(RequestStage stage);

// Per-stage aggregate counters (accumulate nanoseconds across requests),
// scraped from /metricsz and summarized by /statusz.
inline constexpr char kServeStageParseNs[] = "serve_stage_parse_ns";
inline constexpr char kServeStageLookupNs[] = "serve_stage_lookup_ns";
inline constexpr char kServeStageRouteNs[] = "serve_stage_route_ns";
inline constexpr char kServeStageRenderNs[] = "serve_stage_render_ns";
inline constexpr char kServeStageWriteNs[] = "serve_stage_write_ns";

/// The canonical counter name for `stage` (same order as RequestStage).
const char* RequestStageCounterName(RequestStage stage);

/// Request-scoped trace context: a process-monotonic request id plus
/// per-stage nanosecond timings. Created by serve::HttpServer when a
/// request's first byte arrives and threaded through ModelServer →
/// ReadModel; each layer accumulates into the stage it owns. One trace belongs to one request and is only ever
/// touched by the thread serving it — no locking anywhere.
///
/// Cost discipline: when obs::Enabled() is false NowNs() returns 0, so
/// every stage timer degenerates to branch-only work; the id assignment
/// (one relaxed fetch_add) always happens because the access log correlates
/// on it regardless of the tracing switch.
class RequestTrace {
 public:
  /// Assigns the next request id and stamps start_ns = NowNs().
  RequestTrace();

  RequestTrace(const RequestTrace&) = delete;
  RequestTrace& operator=(const RequestTrace&) = delete;

  uint64_t id() const { return id_; }
  int64_t start_ns() const { return start_ns_; }
  /// Rebases the request start (serve::HttpServer moves it back to the
  /// request's first byte, so keep-alive idle time never counts).
  void RebaseStart(int64_t start_ns) {
    if (start_ns > 0) start_ns_ = start_ns;
  }

  void AddStageNs(RequestStage stage, int64_t ns) {
    if (ns > 0) stage_ns_[static_cast<int>(stage)] += ns;
  }
  int64_t stage_ns(RequestStage stage) const {
    return stage_ns_[static_cast<int>(stage)];
  }

  /// Static strings only (endpoint/outcome label the per-endpoint
  /// histograms; nothing is copied on the hot path).
  void set_endpoint(const char* endpoint) { endpoint_ = endpoint; }
  const char* endpoint() const { return endpoint_; }
  void set_outcome(const char* outcome) { outcome_ = outcome; }
  const char* outcome() const { return outcome_; }

  void set_status(int status) { status_ = status; }
  int status() const { return status_; }

  /// The model generation the request rendered against (access-log field).
  void set_generation(uint64_t generation) { generation_ = generation; }
  uint64_t generation() const { return generation_; }

  /// Stamps the end of the request and returns total_ns (0 when obs is
  /// disabled). Idempotent: a second call returns the first total.
  int64_t Finish();
  int64_t total_ns() const { return total_ns_; }

  /// RAII stage timer; ~10ns when enabled, branch-only when disabled.
  class StageTimer {
   public:
    StageTimer(RequestTrace* trace, RequestStage stage)
        : trace_(trace), stage_(stage), start_ns_(NowNs()) {}
    StageTimer(const StageTimer&) = delete;
    StageTimer& operator=(const StageTimer&) = delete;
    ~StageTimer() {
      if (trace_ != nullptr && start_ns_ > 0) {
        trace_->AddStageNs(stage_, NowNs() - start_ns_);
      }
    }

   private:
    RequestTrace* trace_;
    RequestStage stage_;
    int64_t start_ns_;
  };

 private:
  uint64_t id_;
  int64_t start_ns_;
  int64_t total_ns_ = 0;
  bool finished_ = false;
  int64_t stage_ns_[kNumRequestStages] = {0, 0, 0, 0, 0};
  const char* endpoint_ = "other";
  const char* outcome_ = "none";
  int status_ = 0;
  uint64_t generation_ = 0;
};

}  // namespace obs
}  // namespace mlp

#endif  // MLP_OBS_REQUEST_TRACE_H_
