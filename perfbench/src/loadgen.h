// Open-loop HTTP load generator over loopback sockets. Each query
// connection has its own thread and a fixed send schedule; latency is
// measured from the scheduled send time, so a stall also charges the
// requests queued behind it, and how late the generator ran is reported.
#ifndef PERFBENCH_LOADGEN_H_
#define PERFBENCH_LOADGEN_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "serve/model_server.h"
#include "serve/read_model.h"

namespace perfbench {

/// One request plus the keys its expected body derives from.
struct Request {
  enum Kind { kUser, kEdge, kBatch, kOther };
  Kind kind = kOther;
  std::string method = "GET";
  std::string target;
  std::string body;
  std::vector<int> users;                  // kUser (one) / kBatch
  std::vector<std::pair<int, int>> edges;  // kEdge (one) / kBatch
};

/// The body a ReadModel serves for `request` (kUser/kEdge/kBatch).
std::string ExpectedBody(const mlp::serve::ReadModel& model,
                         const Request& request);

/// A keep-alive HTTP/1.1 client connection with a per-request deadline.
class HttpConn {
 public:
  HttpConn() = default;
  HttpConn(const HttpConn&) = delete;
  HttpConn& operator=(const HttpConn&) = delete;
  ~HttpConn() { Close(); }

  bool Connect(int port);
  /// Sends `request` and reads the response until `deadline_ns` (steady
  /// clock). Returns the HTTP status, or -1 on error or timeout — the
  /// connection is then closed and the next call reconnects.
  int RoundTrip(const Request& request, int64_t deadline_ns,
                std::string* body);
  void Close();

 private:
  int port_ = 0;
  int fd_ = -1;
  std::string buffer_;
};

/// A body captured for the output check, with the models that were
/// published just before the send and just after the response.
struct BodySample {
  Request request;
  std::string body;
  std::shared_ptr<const mlp::serve::ReadModel> before;
  std::shared_ptr<const mlp::serve::ReadModel> after;
};

/// What one open-loop phase saw. The per-request vectors are parallel.
struct PhaseStats {
  double seconds = 0.0;  // scheduled window
  int64_t attempted = 0;
  int64_t ok = 0;
  int64_t failed = 0;    // non-2xx, error or timeout
  int64_t non2xx = 0;    // of those, answered with a status outside 2xx
  std::vector<double> sched_s;     // scheduled send, from phase start
  std::vector<double> latency_us;  // from scheduled send to response
  std::vector<double> lag_us;      // actual send - scheduled send
  std::vector<BodySample> samples;  // a lane's, until checked
  int64_t bodies_checked = 0;
  int64_t bodies_matched = 0;
  std::string body_error;  // the first body that matched no generation

  double p50_us() const;
  /// Median over `window_s` windows of each window's p99: a dip of the
  /// host that stalls one window does not decide the figure, a slowdown
  /// that shows in most windows does.
  double p99_us(double window_s) const;
  /// Median lag over the last quarter of the phase minus that over the
  /// first quarter: grows without bound when the server cannot keep up
  /// with the offered rate, stays near 0 through a short stall.
  double lag_growth_us() const;
};

using RequestMaker = std::function<Request(mlp::Pcg32& rng)>;

/// One open-loop phase: `conns.size()` threads, each on its own
/// connection, send `make`'s requests at `rate / conns` req/s for
/// `seconds`. A request not answered within `timeout_ms` of its scheduled
/// send fails. When `server` is set, every `sample_every`-th request of a
/// connection has its body checked against the models published just
/// before its send and just after its response: it must be byte-equal to
/// the fragment of one of them (bodies_checked, bodies_matched).
/// When `idle` is set, the calling thread keeps that connection alive with
/// a GET /healthz each second while the phase runs (the mostly-idle
/// keep-alive client); its failures add to `*idle_failed`.
struct PhaseSpec {
  double rate = 1000.0;
  double seconds = 1.0;
  int timeout_ms = 2000;
  uint64_t stream_seed = 1;
  int sample_every = 0;
  mlp::serve::ModelServer* server = nullptr;
  HttpConn* idle = nullptr;
  int64_t* idle_failed = nullptr;
};
PhaseStats RunOpenLoop(const PhaseSpec& spec,
                       std::vector<std::unique_ptr<HttpConn>>& conns,
                       const RequestMaker& make);

/// Appends phase `b` to `a`: counters add up, and b's send times move to
/// after a's window on a's time axis. Samples are not carried over.
void MergeStats(PhaseStats* a, const PhaseStats& b);

/// Fetches `target` over `conn` and returns the body ("" on failure). A
/// transport failure is retried once on a new connection.
std::string Fetch(HttpConn& conn, const std::string& target);
/// Value of `name` in a Prometheus text exposition (0 when absent).
double PromValue(const std::string& text, const std::string& name);
/// Numeric value of "key" in /statsz's flat JSON object (0 when absent).
double StatszValue(const std::string& json, const std::string& key);

}  // namespace perfbench

#endif  // PERFBENCH_LOADGEN_H_
