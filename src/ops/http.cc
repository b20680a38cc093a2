#include "src/ops/http.h"

#include <algorithm>
#include <cctype>
#include <cstring>

#ifndef _WIN32
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <unistd.h>
#endif

#include "src/common/logging.h"

namespace fl::ops {

namespace {

std::string ToLower(std::string_view s) {
  std::string out(s);
  std::transform(out.begin(), out.end(), out.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return out;
}

std::string_view Trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) {
    s.remove_prefix(1);
  }
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t')) {
    s.remove_suffix(1);
  }
  return s;
}

bool IsToken(std::string_view s) {
  if (s.empty()) return false;
  for (char c : s) {
    const unsigned char u = static_cast<unsigned char>(c);
    if (!std::isalnum(u) && c != '-' && c != '_' && c != '.') return false;
  }
  return true;
}

// Finds the end of the request head: CRLFCRLF or LFLF, whichever comes
// first. Returns npos when incomplete.
std::size_t FindHeadEnd(std::string_view buf, std::size_t* sep_len) {
  const std::size_t crlf = buf.find("\r\n\r\n");
  const std::size_t lflf = buf.find("\n\n");
  if (crlf == std::string_view::npos && lflf == std::string_view::npos) {
    return std::string_view::npos;
  }
  if (crlf != std::string_view::npos &&
      (lflf == std::string_view::npos || crlf < lflf)) {
    *sep_len = 4;
    return crlf;
  }
  *sep_len = 2;
  return lflf;
}

// Splits the head into lines on '\n', stripping one trailing '\r' each.
std::vector<std::string_view> SplitLines(std::string_view head) {
  std::vector<std::string_view> lines;
  std::size_t pos = 0;
  while (pos <= head.size()) {
    std::size_t nl = head.find('\n', pos);
    if (nl == std::string_view::npos) nl = head.size();
    std::string_view line = head.substr(pos, nl - pos);
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    lines.push_back(line);
    if (nl == head.size()) break;
    pos = nl + 1;
  }
  return lines;
}

}  // namespace

const std::string* HttpRequest::FindHeader(
    std::string_view lowercase_key) const {
  for (const auto& [k, v] : headers) {
    if (k == lowercase_key) return &v;
  }
  return nullptr;
}

bool HttpRequest::QueryParamIs(std::string_view key,
                               std::string_view value) const {
  std::string_view q = query;
  while (!q.empty()) {
    std::size_t amp = q.find('&');
    const std::string_view pair =
        amp == std::string_view::npos ? q : q.substr(0, amp);
    const std::size_t eq = pair.find('=');
    if (eq != std::string_view::npos && pair.substr(0, eq) == key &&
        pair.substr(eq + 1) == value) {
      return true;
    }
    if (amp == std::string_view::npos) break;
    q.remove_prefix(amp + 1);
  }
  return false;
}

HttpParse ParseHttpRequest(std::string_view buffer, HttpRequest* req,
                           std::size_t* consumed, const HttpLimits& limits) {
  *consumed = 0;
  std::size_t sep_len = 0;
  const std::size_t head_end = FindHeadEnd(buffer, &sep_len);
  if (head_end == std::string_view::npos) {
    return buffer.size() > limits.max_head_bytes ? HttpParse::kTooLarge
                                                 : HttpParse::kNeedMore;
  }
  if (head_end + sep_len > limits.max_head_bytes) return HttpParse::kTooLarge;

  const std::vector<std::string_view> lines =
      SplitLines(buffer.substr(0, head_end));
  if (lines.empty() || lines[0].empty()) return HttpParse::kBadRequest;
  // A bare CR (one not ending a line) is invalid (RFC 9112 Sec. 2.2): read
  // as data, it moves where a CRLF-only parser would end the head.
  for (const std::string_view line : lines) {
    if (line.find('\r') != std::string_view::npos) {
      return HttpParse::kBadRequest;
    }
  }

  // Request line: METHOD SP request-target SP HTTP-version.
  const std::string_view request_line = lines[0];
  const std::size_t sp1 = request_line.find(' ');
  const std::size_t sp2 =
      sp1 == std::string_view::npos ? sp1 : request_line.find(' ', sp1 + 1);
  if (sp1 == std::string_view::npos || sp2 == std::string_view::npos ||
      request_line.find(' ', sp2 + 1) != std::string_view::npos) {
    return HttpParse::kBadRequest;
  }
  HttpRequest out;
  out.method = std::string(request_line.substr(0, sp1));
  out.target = std::string(request_line.substr(sp1 + 1, sp2 - sp1 - 1));
  out.version = std::string(request_line.substr(sp2 + 1));
  if (!IsToken(out.method) || out.target.empty() || out.target[0] != '/') {
    return HttpParse::kBadRequest;
  }
  if (out.version != "HTTP/1.1" && out.version != "HTTP/1.0") {
    return HttpParse::kBadRequest;
  }
  const std::size_t qmark = out.target.find('?');
  out.path = out.target.substr(0, qmark);
  out.query = qmark == std::string::npos ? "" : out.target.substr(qmark + 1);

  for (std::size_t i = 1; i < lines.size(); ++i) {
    const std::string_view line = lines[i];
    if (line.empty()) continue;  // tolerated (some clients pad)
    if (line.front() == ' ' || line.front() == '\t') {
      return HttpParse::kBadRequest;  // obsolete line folding
    }
    const std::size_t colon = line.find(':');
    if (colon == std::string_view::npos || colon == 0) {
      return HttpParse::kBadRequest;
    }
    if (out.headers.size() >= limits.max_headers) return HttpParse::kTooLarge;
    const std::string_view raw_key = line.substr(0, colon);
    if (raw_key != Trim(raw_key)) return HttpParse::kBadRequest;
    out.headers.emplace_back(ToLower(raw_key),
                             std::string(Trim(line.substr(colon + 1))));
  }

  // The ops plane is read-only: refuse request bodies outright.
  if (const std::string* cl = out.FindHeader("content-length");
      cl != nullptr && *cl != "0") {
    return HttpParse::kBadRequest;
  }
  if (out.FindHeader("transfer-encoding") != nullptr) {
    return HttpParse::kBadRequest;
  }

  out.keep_alive = out.version == "HTTP/1.1";
  if (const std::string* conn = out.FindHeader("connection")) {
    const std::string v = ToLower(*conn);
    if (v == "close") out.keep_alive = false;
    if (v == "keep-alive") out.keep_alive = true;
  }

  *req = std::move(out);
  *consumed = head_end + sep_len;
  return HttpParse::kOk;
}

HttpResponse HttpResponse::Text(std::string body, int status) {
  return HttpResponse{status, "text/plain; charset=utf-8", std::move(body)};
}
HttpResponse HttpResponse::Json(std::string body, int status) {
  return HttpResponse{status, "application/json", std::move(body)};
}
HttpResponse HttpResponse::Html(std::string body, int status) {
  return HttpResponse{status, "text/html; charset=utf-8", std::move(body)};
}

const char* HttpStatusReason(int status) {
  switch (status) {
    case 200: return "OK";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 431: return "Request Header Fields Too Large";
    case 503: return "Service Unavailable";
    default: return "Unknown";
  }
}

std::string SerializeHttpResponse(const HttpResponse& resp, bool keep_alive,
                                  bool head_only) {
  std::string out;
  out.reserve(resp.body.size() + 160);
  out += "HTTP/1.1 ";
  out += std::to_string(resp.status);
  out += ' ';
  out += HttpStatusReason(resp.status);
  out += "\r\nContent-Type: ";
  out += resp.content_type;
  out += "\r\nContent-Length: ";
  out += std::to_string(resp.body.size());
  out += "\r\nConnection: ";
  out += keep_alive ? "keep-alive" : "close";
  out += "\r\n\r\n";
  if (!head_only) out += resp.body;
  return out;
}

#ifndef _WIN32

namespace {

bool SendAll(int fd, std::string_view data) {
  while (!data.empty()) {
    const ssize_t n = ::send(fd, data.data(), data.size(), MSG_NOSIGNAL);
    if (n <= 0) return false;
    data.remove_prefix(static_cast<std::size_t>(n));
  }
  return true;
}

void SetIoTimeout(int fd, int seconds) {
  timeval tv{};
  tv.tv_sec = seconds;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
}

}  // namespace

HttpServer::HttpServer(Options opts) : opts_(std::move(opts)) {}

HttpServer::~HttpServer() { Stop(); }

void HttpServer::Handle(std::string path, Handler handler) {
  FL_CHECK_MSG(!running(), "register handlers before Start()");
  handlers_[std::move(path)] = std::move(handler);
}

Status HttpServer::Start() {
  if (running()) return Status::Ok();
  stopping_.store(false, std::memory_order_release);

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status(ErrorCode::kUnavailable, "socket() failed");
  }
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(opts_.port));
  if (::inet_pton(AF_INET, opts_.bind_address.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return InvalidArgumentError("bad bind address " + opts_.bind_address);
  }
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return Status(ErrorCode::kUnavailable,
                  "bind to " + opts_.bind_address + ":" +
                      std::to_string(opts_.port) + " failed: " +
                      std::strerror(errno));
  }
  if (::listen(fd, 64) != 0) {
    ::close(fd);
    return Status(ErrorCode::kUnavailable, "listen() failed");
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) == 0) {
    port_ = ntohs(bound.sin_port);
  }
  listen_fd_.store(fd, std::memory_order_release);

  running_.store(true, std::memory_order_release);
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  const std::size_t workers = std::max<std::size_t>(1, opts_.worker_threads);
  workers_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
  return Status::Ok();
}

void HttpServer::Stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  stopping_.store(true, std::memory_order_release);

  const int fd = listen_fd_.exchange(-1, std::memory_order_acq_rel);
  if (fd >= 0) {
    ::shutdown(fd, SHUT_RDWR);
    ::close(fd);
  }
  {
    // Unblock workers stuck inside recv on a live connection.
    const std::scoped_lock lock(live_mu_);
    for (int fd : live_fds_) ::shutdown(fd, SHUT_RDWR);
  }
  {
    // A worker that read stopping_ == false under queue_mu_ is now inside
    // wait(), so the notify below reaches it instead of being lost.
    const std::scoped_lock lock(queue_mu_);
  }
  queue_cv_.notify_all();
  if (accept_thread_.joinable()) accept_thread_.join();
  for (std::thread& t : workers_) {
    if (t.joinable()) t.join();
  }
  workers_.clear();
  // Close any connections that were queued but never picked up.
  std::vector<int> leftover;
  {
    const std::scoped_lock lock(queue_mu_);
    leftover.swap(pending_fds_);
  }
  for (int fd : leftover) ::close(fd);
}

void HttpServer::AcceptLoop() {
  while (!stopping_.load(std::memory_order_acquire)) {
    const int listen_fd = listen_fd_.load(std::memory_order_acquire);
    if (listen_fd < 0) break;
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) {
      if (stopping_.load(std::memory_order_acquire)) break;
      if (errno == EINTR) continue;
      break;  // listen socket gone
    }
    connections_accepted_.fetch_add(1, std::memory_order_relaxed);
    SetIoTimeout(fd, opts_.io_timeout_seconds);
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    {
      const std::scoped_lock lock(queue_mu_);
      pending_fds_.push_back(fd);
    }
    queue_cv_.notify_one();
  }
}

void HttpServer::WorkerLoop() {
  for (;;) {
    int fd = -1;
    {
      std::unique_lock lock(queue_mu_);
      queue_cv_.wait(lock, [this] {
        return !pending_fds_.empty() ||
               stopping_.load(std::memory_order_acquire);
      });
      if (pending_fds_.empty()) return;  // stopping
      fd = pending_fds_.back();
      pending_fds_.pop_back();
    }
    {
      const std::scoped_lock lock(live_mu_);
      if (stopping_.load(std::memory_order_acquire)) {
        ::close(fd);
        continue;
      }
      live_fds_.insert(fd);
    }
    ServeConnection(fd);
    CloseTracked(fd);
  }
}

void HttpServer::CloseTracked(int fd) {
  {
    const std::scoped_lock lock(live_mu_);
    live_fds_.erase(fd);
  }
  ::close(fd);
}

void HttpServer::ServeConnection(int fd) {
  std::string buffer;
  std::size_t served = 0;
  char chunk[4096];
  while (!stopping_.load(std::memory_order_acquire)) {
    // Drain already-buffered pipelined requests before touching the socket.
    HttpRequest req;
    std::size_t consumed = 0;
    const HttpParse parsed =
        ParseHttpRequest(buffer, &req, &consumed, opts_.limits);
    if (parsed == HttpParse::kNeedMore) {
      const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
      if (n <= 0) {
        // Peer closed (mid-request = premature close) or timed out.
        if (!buffer.empty()) {
          parse_errors_.fetch_add(1, std::memory_order_relaxed);
        }
        return;
      }
      buffer.append(chunk, static_cast<std::size_t>(n));
      continue;
    }
    if (parsed == HttpParse::kBadRequest || parsed == HttpParse::kTooLarge) {
      parse_errors_.fetch_add(1, std::memory_order_relaxed);
      const HttpResponse resp = HttpResponse::Text(
          parsed == HttpParse::kBadRequest ? "bad request\n"
                                           : "request head too large\n",
          parsed == HttpParse::kBadRequest ? 400 : 431);
      SendAll(fd, SerializeHttpResponse(resp, /*keep_alive=*/false));
      return;
    }
    buffer.erase(0, consumed);

    HttpResponse resp;
    const bool head_only = req.method == "HEAD";
    if (req.method != "GET" && req.method != "HEAD") {
      resp = HttpResponse::Text("only GET is supported\n", 405);
    } else {
      const auto it = handlers_.find(req.path);
      if (it == handlers_.end()) {
        resp = HttpResponse::Text("not found\n", 404);
      } else {
        resp = it->second(req);
      }
    }
    ++served;
    requests_served_.fetch_add(1, std::memory_order_relaxed);
    const bool keep_alive =
        req.keep_alive && served < opts_.max_requests_per_connection &&
        !stopping_.load(std::memory_order_acquire);
    if (!SendAll(fd, SerializeHttpResponse(resp, keep_alive, head_only))) {
      return;
    }
    if (!keep_alive) return;
  }
}

Status HttpGet(const std::string& host, int port, const std::string& path,
               int* status_out, std::string* body_out, int timeout_seconds) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Status(ErrorCode::kUnavailable, "socket() failed");
  SetIoTimeout(fd, timeout_seconds);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return InvalidArgumentError("HttpGet needs a numeric IPv4 host, got " +
                                host);
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return Status(ErrorCode::kUnavailable,
                  "connect to " + host + ":" + std::to_string(port) +
                      " failed: " + std::strerror(errno));
  }
  const std::string request = "GET " + path + " HTTP/1.1\r\nHost: " + host +
                              "\r\nConnection: close\r\n\r\n";
  if (!SendAll(fd, request)) {
    ::close(fd);
    return Status(ErrorCode::kUnavailable, "send failed");
  }
  std::string raw;
  char chunk[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n < 0) {
      ::close(fd);
      return Status(ErrorCode::kDeadlineExceeded, "recv failed/timed out");
    }
    if (n == 0) break;
    raw.append(chunk, static_cast<std::size_t>(n));
  }
  ::close(fd);

  const std::size_t line_end = raw.find("\r\n");
  if (line_end == std::string::npos || raw.rfind("HTTP/1.", 0) != 0) {
    return Status(ErrorCode::kDataLoss, "malformed HTTP response");
  }
  const std::size_t sp = raw.find(' ');
  if (sp == std::string::npos || sp + 4 > line_end) {
    return Status(ErrorCode::kDataLoss, "malformed status line");
  }
  if (status_out != nullptr) {
    *status_out = std::atoi(raw.c_str() + sp + 1);
  }
  const std::size_t head_end = raw.find("\r\n\r\n");
  if (head_end == std::string::npos) {
    return Status(ErrorCode::kDataLoss, "truncated response head");
  }
  if (body_out != nullptr) *body_out = raw.substr(head_end + 4);
  return Status::Ok();
}

#else  // _WIN32: the ops plane needs POSIX sockets; stub out cleanly.

HttpServer::HttpServer(Options opts) : opts_(std::move(opts)) {}
HttpServer::~HttpServer() = default;
void HttpServer::Handle(std::string path, Handler handler) {
  handlers_[std::move(path)] = std::move(handler);
}
Status HttpServer::Start() {
  return Status(ErrorCode::kUnimplemented,
                "HttpServer requires POSIX sockets");
}
void HttpServer::Stop() {}
void HttpServer::AcceptLoop() {}
void HttpServer::WorkerLoop() {}
void HttpServer::ServeConnection(int) {}
void HttpServer::CloseTracked(int) {}
Status HttpGet(const std::string&, int, const std::string&, int*,
               std::string*, int) {
  return Status(ErrorCode::kUnimplemented, "HttpGet requires POSIX sockets");
}

#endif

}  // namespace fl::ops
