#include "loadgen.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <thread>

#include "bench.h"

namespace perfbench {

namespace {

void SleepUntilNs(int64_t when_ns) {
  // An absolute-time sleep; with the thread's timer slack at 1 ns the
  // wake-up lands within a few microseconds on an idle core. No spinning:
  // the generator shares the cores with the server it measures.
  struct timespec ts;
  ts.tv_sec = when_ns / 1000000000;
  ts.tv_nsec = when_ns % 1000000000;
  while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) ==
         EINTR) {
  }
}

// Waits until `fd` is readable or `deadline_ns` passes.
bool WaitReadable(int fd, int64_t deadline_ns) {
  while (true) {
    const int64_t left_ns = deadline_ns - NowNs();
    if (left_ns <= 0) return false;
    struct pollfd p = {fd, POLLIN, 0};
    const int ms = static_cast<int>(std::max<int64_t>(1, left_ns / 1000000));
    const int r = ::poll(&p, 1, ms);
    if (r > 0) return true;
    if (r < 0 && errno != EINTR) return false;
  }
}

bool WriteAll(int fd, const std::string& data) {
  size_t done = 0;
  while (done < data.size()) {
    const ssize_t n =
        ::send(fd, data.data() + done, data.size() - done, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    done += static_cast<size_t>(n);
  }
  return true;
}

// Checks the captured bodies: each must be byte-equal to the fragment of
// the generation that served it (the model published before the send or
// the one after the response). Counts them and drops the samples, which
// releases the generations they hold.
void CheckBodies(PhaseStats* stats) {
  for (const BodySample& s : stats->samples) {
    ++stats->bodies_checked;
    if ((s.before != nullptr &&
         s.body == ExpectedBody(*s.before, s.request)) ||
        (s.after != nullptr && s.body == ExpectedBody(*s.after, s.request))) {
      ++stats->bodies_matched;
    } else if (stats->body_error.empty()) {
      stats->body_error = s.request.method + " " + s.request.target +
                          " returned bytes that no serving generation holds";
    }
  }
  stats->samples.clear();
}

}  // namespace

std::string ExpectedBody(const mlp::serve::ReadModel& model,
                         const Request& request) {
  auto user = [&](int u) { return std::string(model.UserJson(u)); };
  auto edge = [&](const std::pair<int, int>& e) {
    return std::string(model.EdgeJson(model.FindEdge(e.first, e.second)));
  };
  switch (request.kind) {
    case Request::kUser:
      return user(request.users[0]);
    case Request::kEdge:
      return edge(request.edges[0]);
    case Request::kBatch: {
      std::string out = "{\"users\":[";
      for (size_t i = 0; i < request.users.size(); ++i) {
        if (i > 0) out += ',';
        const std::string f = user(request.users[i]);
        out += f.empty() ? "null" : f;
      }
      out += "],\"edges\":[";
      for (size_t i = 0; i < request.edges.size(); ++i) {
        if (i > 0) out += ',';
        const std::string f = edge(request.edges[i]);
        out += f.empty() ? "null" : f;
      }
      return out + "]}";
    }
    case Request::kOther:
      break;
  }
  return "";
}

bool HttpConn::Connect(int port) {
  Close();
  port_ = port;
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) return false;
  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd_, reinterpret_cast<struct sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    Close();
    return false;
  }
  int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return true;
}

void HttpConn::Close() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
  buffer_.clear();
}

int HttpConn::RoundTrip(const Request& request, int64_t deadline_ns,
                        std::string* body) {
  if (fd_ < 0 && !Connect(port_)) return -1;
  std::string wire = request.method + " " + request.target +
                     " HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Length: " +
                     std::to_string(request.body.size()) + "\r\n\r\n" +
                     request.body;
  if (!WriteAll(fd_, wire)) {
    Close();
    return -1;
  }
  auto read_more = [&]() {
    if (!WaitReadable(fd_, deadline_ns)) return false;
    char chunk[16384];
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n <= 0) return false;
    buffer_.append(chunk, static_cast<size_t>(n));
    return true;
  };
  size_t header_end;
  while ((header_end = buffer_.find("\r\n\r\n")) == std::string::npos) {
    if (!read_more()) {
      Close();
      return -1;
    }
  }
  const size_t sp = buffer_.find(' ');
  const int status = sp < header_end ? std::atoi(buffer_.c_str() + sp + 1) : 0;
  size_t content_length = 0;
  bool close_after = false;
  size_t pos = buffer_.find("\r\n") + 2;
  while (pos < header_end) {
    const size_t eol = buffer_.find("\r\n", pos);
    std::string line = buffer_.substr(pos, eol - pos);
    for (char& c : line) c = static_cast<char>(std::tolower(c));
    if (line.rfind("content-length:", 0) == 0) {
      content_length = std::strtoul(line.c_str() + 15, nullptr, 10);
    } else if (line.rfind("connection:", 0) == 0 &&
               line.find("close") != std::string::npos) {
      close_after = true;
    }
    pos = eol + 2;
  }
  const size_t body_begin = header_end + 4;
  while (buffer_.size() - body_begin < content_length) {
    if (!read_more()) {
      Close();
      return -1;
    }
  }
  body->assign(buffer_, body_begin, content_length);
  buffer_.erase(0, body_begin + content_length);
  if (close_after) Close();
  return status > 0 ? status : -1;
}

double PhaseStats::p50_us() const { return Percentile(latency_us, 0.50); }

double PhaseStats::p99_us(double window_s) const {
  const int windows = std::max(1, static_cast<int>(seconds / window_s + 0.5));
  std::vector<std::vector<double>> by_window(windows);
  for (size_t i = 0; i < latency_us.size(); ++i) {
    const int w =
        std::min(windows - 1, static_cast<int>(sched_s[i] / window_s));
    by_window[w].push_back(latency_us[i]);
  }
  std::vector<double> p99s;
  for (const std::vector<double>& w : by_window) {
    if (!w.empty()) p99s.push_back(Percentile(w, 0.99));
  }
  return Median(p99s);
}

double PhaseStats::lag_growth_us() const {
  std::vector<double> head;
  std::vector<double> tail;
  for (size_t i = 0; i < lag_us.size(); ++i) {
    if (sched_s[i] < 0.25 * seconds) head.push_back(lag_us[i]);
    if (sched_s[i] >= 0.75 * seconds) tail.push_back(lag_us[i]);
  }
  return Median(tail) - Median(head);
}

PhaseStats RunOpenLoop(const PhaseSpec& spec,
                       std::vector<std::unique_ptr<HttpConn>>& conns,
                       const RequestMaker& make) {
  const int n = static_cast<int>(conns.size());
  const double interval_ns = 1e9 * n / spec.rate;
  const int64_t window_ns = static_cast<int64_t>(spec.seconds * 1e9);
  // Start slightly in the future so every thread is parked on its first slot.
  const int64_t start_ns = NowNs() + 2000000;
  const int64_t end_ns = start_ns + window_ns;
  std::vector<PhaseStats> lanes(n);
  std::vector<std::thread> threads;
  for (int c = 0; c < n; ++c) {
    threads.emplace_back([&, c] {
      ::prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
      PhaseStats& lane = lanes[c];
      mlp::Pcg32 rng(spec.stream_seed, static_cast<uint64_t>(c) + 1);
      HttpConn& conn = *conns[c];
      std::string body;
      for (int64_t k = 0;; ++k) {
        const int64_t scheduled =
            start_ns + static_cast<int64_t>((static_cast<double>(k) +
                                             static_cast<double>(c) / n) *
                                            interval_ns);
        if (scheduled >= end_ns) break;
        Request request = make(rng);
        SleepUntilNs(scheduled);
        const bool sample = spec.server != nullptr && spec.sample_every > 0 &&
                            k % spec.sample_every == 0;
        BodySample captured;
        if (sample) captured.before = spec.server->model();
        const int64_t sent = NowNs();
        const int64_t deadline =
            scheduled + int64_t{spec.timeout_ms} * 1000000;
        const int status = conn.RoundTrip(request, deadline, &body);
        const int64_t done = NowNs();
        ++lane.attempted;
        lane.sched_s.push_back(static_cast<double>(scheduled - start_ns) /
                               1e9);
        lane.lag_us.push_back(static_cast<double>(sent - scheduled) / 1e3);
        if (status >= 200 && status < 300) {
          ++lane.ok;
          lane.latency_us.push_back(static_cast<double>(done - scheduled) /
                                    1e3);
        } else {
          // A failed request misses any latency limit.
          ++lane.failed;
          if (status > 0) ++lane.non2xx;
          lane.latency_us.push_back(std::max(
              static_cast<double>(done - scheduled) / 1e3,
              spec.timeout_ms * 1e3));
        }
        if (sample && status >= 200 && status < 300) {
          captured.after = spec.server->model();
          captured.request = std::move(request);
          captured.body = body;
          lane.samples.push_back(std::move(captured));
        }
      }
    });
  }
  if (spec.idle != nullptr) {
    // The mostly-idle keep-alive client: one cheap request a second keeps
    // its connection (and the server worker it pins) open.
    Request ping;
    ping.target = "/healthz";
    std::string body;
    for (int64_t at = start_ns; at < end_ns; at += 1000000000) {
      SleepUntilNs(at);
      const int status = spec.idle->RoundTrip(
          ping, NowNs() + int64_t{spec.timeout_ms} * 1000000, &body);
      if (status != 200 && spec.idle_failed != nullptr) ++*spec.idle_failed;
    }
  }
  for (std::thread& t : threads) t.join();
  // Lanes share one time axis: each has seconds == 0, so merging them
  // leaves their send times in place.
  PhaseStats all;
  for (PhaseStats& lane : lanes) {
    CheckBodies(&lane);
    MergeStats(&all, lane);
  }
  all.seconds = spec.seconds;
  return all;
}

void MergeStats(PhaseStats* a, const PhaseStats& b) {
  for (double t : b.sched_s) a->sched_s.push_back(a->seconds + t);
  a->seconds += b.seconds;
  a->attempted += b.attempted;
  a->ok += b.ok;
  a->failed += b.failed;
  a->non2xx += b.non2xx;
  a->latency_us.insert(a->latency_us.end(), b.latency_us.begin(),
                       b.latency_us.end());
  a->lag_us.insert(a->lag_us.end(), b.lag_us.begin(), b.lag_us.end());
  a->bodies_checked += b.bodies_checked;
  a->bodies_matched += b.bodies_matched;
  if (a->body_error.empty()) a->body_error = b.body_error;
}

std::string Fetch(HttpConn& conn, const std::string& target) {
  Request request;
  request.target = target;
  std::string body;
  int status = conn.RoundTrip(request, NowNs() + 5000000000LL, &body);
  if (status == -1) {
    // The server closes a keep-alive connection idle for 5 s; the failed
    // call closed ours, and this one reconnects.
    status = conn.RoundTrip(request, NowNs() + 5000000000LL, &body);
  }
  return status == 200 ? body : std::string();
}

double PromValue(const std::string& text, const std::string& name) {
  const std::string needle = "\n" + name + " ";
  const size_t at = text.find(needle);
  if (at == std::string::npos) return 0.0;
  return std::strtod(text.c_str() + at + needle.size(), nullptr);
}

double StatszValue(const std::string& json, const std::string& key) {
  const std::string needle = "\"" + key + "\":\"";
  const size_t at = json.find(needle);
  if (at == std::string::npos) return 0.0;
  return std::strtod(json.c_str() + at + needle.size(), nullptr);
}

}  // namespace perfbench
