#ifndef MLP_SERVE_HTTP_SERVER_H_
#define MLP_SERVE_HTTP_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_set>

#include "common/result.h"
#include "engine/thread_pool.h"
#include "obs/request_trace.h"

namespace mlp {
namespace serve {

/// One parsed HTTP/1.1 request (the subset the serving layer needs:
/// request line, Content-Length bodies, Connection header).
struct HttpRequest {
  std::string method;  // "GET", "POST", ...
  std::string target;  // raw request target, e.g. "/v1/user/3?pretty=1"
  std::string body;
  bool keep_alive = true;
};

/// Response the handler fills in; the server adds the status line,
/// Content-Type/Content-Length and Connection headers.
struct HttpResponse {
  int status = 200;
  std::string content_type = "application/json";
  std::string body;
};

/// Request handler. The server creates one obs::RequestTrace per request
/// (request id + parse time already recorded) and hands it to the handler,
/// which attributes its own stages (route, lookup, render) and labels the
/// endpoint. Never null.
using HttpHandler =
    std::function<HttpResponse(const HttpRequest&, obs::RequestTrace*)>;

/// Invoked after the response bytes have been written (write stage and
/// total time are final at this point). This is where the model server
/// hangs its access log, latency histograms and slow-request ring — the
/// hook runs on the connection's pool thread, so it must be cheap.
using HttpCompletionHook = std::function<void(
    const HttpRequest&, const HttpResponse&, obs::RequestTrace&)>;

/// Minimal HTTP/1.1 server over plain POSIX sockets — no external
/// dependencies. One dedicated accept thread; each accepted connection is
/// dispatched onto the shared engine::ThreadPool and served with
/// keep-alive until the peer closes, errors, sends "Connection: close", or
/// the server stops. Read timeouts bound how long an idle keep-alive
/// connection can pin a worker.
///
/// Lifecycle: Start() binds/listens (port 0 picks an ephemeral port,
/// readable via port()), Stop() closes the listener, wakes every open
/// connection and blocks until all of them have unwound — after which the
/// caller can safely Drain() the pool.
class HttpServer {
 public:
  /// `pool` is borrowed and must outlive the server.
  explicit HttpServer(engine::ThreadPool* pool);
  ~HttpServer();

  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  /// Binds 127.0.0.1:`port` (0 = ephemeral) and starts accepting.
  /// `on_complete` (optional) fires once per request after the response
  /// has been written, with the finished trace.
  Status Start(int port, HttpHandler handler,
               HttpCompletionHook on_complete = nullptr);
  /// The bound port; 0 before Start.
  int port() const { return port_; }
  bool running() const { return running_.load(); }

  /// Graceful stop, idempotent: no new connections, in-flight requests
  /// finish, blocked reads are woken via shutdown(2).
  void Stop();

  uint64_t requests_served() const { return requests_served_.load(); }
  uint64_t connections_accepted() const { return connections_.load(); }

 private:
  void AcceptLoop();
  void ServeConnection(int fd);
  /// Reads one request off `fd` into `*request`, using `*buffer` as the
  /// connection's carry-over buffer. Returns false on EOF/timeout/parse
  /// error (connection should close). `*first_byte_ns` is set to the
  /// obs::NowNs() timestamp at which this request's first byte was
  /// available (0 when observability is disabled) — the keep-alive idle
  /// wait before it is deliberately excluded from request timing.
  bool ReadRequest(int fd, std::string* buffer, HttpRequest* request,
                   int64_t* first_byte_ns);

  engine::ThreadPool* pool_;
  HttpHandler handler_;
  HttpCompletionHook on_complete_;
  std::atomic<int> listen_fd_{-1};
  int port_ = 0;
  std::thread accept_thread_;
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};
  std::atomic<uint64_t> requests_served_{0};
  std::atomic<uint64_t> connections_{0};

  std::mutex mu_;
  std::condition_variable idle_cv_;
  std::unordered_set<int> open_fds_;
  int active_connections_ = 0;
};

/// Blocking keep-alive HTTP/1.1 client connection — the test/bench/
/// selfcheck counterpart of HttpServer (and the reason the smoke tests
/// need no curl). Not thread-safe; one connection per caller thread.
class HttpClient {
 public:
  static Result<HttpClient> Connect(const std::string& host, int port);

  HttpClient(HttpClient&& other) noexcept;
  HttpClient& operator=(HttpClient&& other) noexcept;
  HttpClient(const HttpClient&) = delete;
  HttpClient& operator=(const HttpClient&) = delete;
  ~HttpClient();

  /// Sends one request and blocks for the full response.
  Result<HttpResponse> RoundTrip(const std::string& method,
                                 const std::string& target,
                                 const std::string& body = "");

 private:
  explicit HttpClient(int fd) : fd_(fd) {}

  int fd_ = -1;
  std::string buffer_;  // carry-over bytes between responses
};

/// One-shot convenience: connect, request, close.
Result<HttpResponse> HttpFetch(const std::string& host, int port,
                               const std::string& method,
                               const std::string& target,
                               const std::string& body = "");

}  // namespace serve
}  // namespace mlp

#endif  // MLP_SERVE_HTTP_SERVER_H_
