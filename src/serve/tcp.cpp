#include "serve/tcp.hpp"

#include <cerrno>
#include <cstring>
#include <string>

#include "serve/event_loop.hpp"
#include "serve/transport.hpp"

namespace msrs::serve {

bool tcp_transport_available() { return poller_available(); }

bool parse_host_port(const std::string& target, std::string* host,
                     std::uint16_t* port, std::string* error) {
  const std::size_t colon = target.rfind(':');
  if (colon == std::string::npos || colon == 0 ||
      colon + 1 == target.size()) {
    if (error) *error = "expected HOST:PORT, got: " + target;
    return false;
  }
  unsigned long value = 0;
  for (std::size_t i = colon + 1; i < target.size(); ++i) {
    const char c = target[i];
    if (c < '0' || c > '9' || value > 65535) {
      if (error) *error = "bad port in target: " + target;
      return false;
    }
    value = value * 10 + static_cast<unsigned long>(c - '0');
  }
  if (value > 65535) {
    if (error) *error = "bad port in target: " + target;
    return false;
  }
  if (host) *host = target.substr(0, colon);
  if (port) *port = static_cast<std::uint16_t>(value);
  return true;
}

std::unique_ptr<LineClient> connect_line_client(const std::string& unix_path,
                                                const std::string& tcp_target,
                                                std::string* error) {
  auto client = std::make_unique<LineClient>();
  if (!client->connect(unix_path, tcp_target, error)) return nullptr;
  return client;
}

}  // namespace msrs::serve

#if !defined(_WIN32)

#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

namespace msrs::serve {
namespace {

// Writes the whole buffer over a blocking socket, retrying on
// EINTR/partial writes. MSG_NOSIGNAL turns a dead peer into an error
// return instead of SIGPIPE.
bool send_all_blocking(int fd, const char* data, std::size_t size) {
  while (size > 0) {
    const ssize_t sent = ::send(fd, data, size, MSG_NOSIGNAL);
    if (sent < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data += sent;
    size -= static_cast<std::size_t>(sent);
  }
  return true;
}

// Fills the UNIX-domain address of `path`; false + `*error` when the path
// does not fit sun_path.
bool unix_address(const std::string& path, sockaddr_un* address,
                  std::string* error) {
  *address = {};
  address->sun_family = AF_UNIX;
  if (path.size() >= sizeof address->sun_path) {
    if (error) *error = "socket path too long: " + path;
    return false;
  }
  std::memcpy(address->sun_path, path.c_str(), path.size() + 1);
  return true;
}

}  // namespace

// ---------------- LineClient ----------------

LineClient::~LineClient() { close(); }

bool LineClient::connect(const std::string& unix_path,
                         const std::string& host_port, std::string* error) {
  close();
  if (host_port.empty()) {
    if (unix_path.empty()) {
      if (error) *error = "no target: need a UNIX socket path or HOST:PORT";
      return false;
    }
    sockaddr_un address;
    if (!unix_address(unix_path, &address, error)) return false;
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd_ < 0 || ::connect(fd_, reinterpret_cast<const sockaddr*>(&address),
                             sizeof address) != 0) {
      if (error) *error = "connect " + unix_path + ": " + std::strerror(errno);
      close();
      return false;
    }
    return true;
  }
  std::string host;
  std::uint16_t port = 0;
  if (!parse_host_port(host_port, &host, &port, error)) return false;
  addrinfo hints = {};
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  hints.ai_flags = AI_NUMERICSERV;
  addrinfo* results = nullptr;
  const int rc = ::getaddrinfo(host.c_str(), std::to_string(port).c_str(),
                               &hints, &results);
  if (rc != 0) {
    if (error) *error = "resolve " + host + ": " + ::gai_strerror(rc);
    return false;
  }
  for (const addrinfo* ai = results; ai != nullptr; ai = ai->ai_next) {
    const int fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) continue;
    if (::connect(fd, ai->ai_addr, ai->ai_addrlen) == 0) {
      fd_ = fd;
      break;
    }
    ::close(fd);
  }
  ::freeaddrinfo(results);
  if (fd_ < 0) {
    if (error) *error = "connect " + host_port + ": " + std::strerror(errno);
    return false;
  }
  const int one = 1;  // latency over batching: requests are single lines
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  return true;
}

bool LineClient::send_line(const std::string& line) {
  if (fd_ < 0) return false;
  std::string framed = line;
  framed.push_back('\n');
  return send_all_blocking(fd_, framed.data(), framed.size());
}

bool LineClient::send_bytes(const char* data, std::size_t size) {
  if (fd_ < 0) return false;
  return send_all_blocking(fd_, data, size);
}

void LineClient::shutdown_write() {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_WR);
}

bool LineClient::recv_line(std::string* line) {
  if (fd_ < 0) return false;
  char chunk[4096];
  for (;;) {
    const std::size_t nl = buffer_.find('\n', scanned_);
    if (nl != std::string::npos) {
      line->assign(buffer_, 0, nl);
      buffer_.erase(0, nl + 1);
      scanned_ = 0;
      return true;
    }
    scanned_ = buffer_.size();
    const ssize_t got = ::read(fd_, chunk, sizeof chunk);
    if (got < 0 && errno == EINTR) continue;
    if (got <= 0) return false;
    buffer_.append(chunk, static_cast<std::size_t>(got));
  }
}

bool LineClient::peer_closed() {
  if (fd_ < 0) return true;
  if (!buffer_.empty()) return false;
  char byte;
  ssize_t got;
  do {
    got = ::recv(fd_, &byte, 1, MSG_PEEK | MSG_DONTWAIT);
  } while (got < 0 && errno == EINTR);
  return got == 0 || (got < 0 && errno != EAGAIN && errno != EWOULDBLOCK);
}

void LineClient::abort_connection() {
  if (fd_ < 0) return;
  // SO_LINGER with a zero timeout makes close() send RST and discard any
  // unsent/unread data — the wire signature of a client killed mid-flight.
  linger lg = {};
  lg.l_onoff = 1;
  lg.l_linger = 0;
  ::setsockopt(fd_, SOL_SOCKET, SO_LINGER, &lg, sizeof lg);
  close();
}

void LineClient::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  buffer_.clear();
  scanned_ = 0;
}

}  // namespace msrs::serve

#else  // _WIN32: no line client; every operation fails descriptively.

namespace msrs::serve {

LineClient::~LineClient() = default;
bool LineClient::connect(const std::string&, const std::string&,
                         std::string* error) {
  if (error) *error = "socket clients are unavailable on this platform";
  return false;
}
bool LineClient::send_line(const std::string&) { return false; }
bool LineClient::send_bytes(const char*, std::size_t) { return false; }
void LineClient::shutdown_write() {}
bool LineClient::recv_line(std::string*) { return false; }
bool LineClient::peer_closed() { return true; }
void LineClient::abort_connection() {}
void LineClient::close() {}

}  // namespace msrs::serve

#endif

// ---------------- server (needs the epoll event loop) ----------------

#if defined(__linux__)

#include <atomic>
#include <chrono>
#include <thread>
#include <unordered_map>
#include <vector>

#include "serve/http.hpp"
#include "util/sync.hpp"

namespace msrs::serve {
namespace {

// One live connection owned by the event loop. Socket I/O and the
// reading/draining flags are touched only on the loop thread; shard
// workers reach just the outbox (under `mutex`) through the OrderedWriter
// sink.
struct TcpConn {
  explicit TcpConn(std::size_t max_line_bytes) : framer(max_line_bytes) {}

  // fd is deliberately NOT mutex-guarded: only the loop thread writes it
  // (close_conn, under the lock), the loop thread reads it lock-free
  // (single-writer, same thread), and the one cross-thread reader — the
  // OrderedWriter sink — reads it under the lock, pairing with the locked
  // write. The analysis cannot express "guarded for cross-thread access
  // only", so the discipline is documented here instead.
  int fd = -1;
  LineFramer framer;
  std::unique_ptr<OrderedWriter> writer;
  bool http = false;      // HTTP-listener connection (serve/http.hpp)
  std::string http_buf;   // buffered request head of an HTTP connection
  bool reading = true;     // read interest wanted (false while gated)
  bool want_write = false;  // write interest wanted (partial flush pending)
  // The interest set the poller holds for fd: flush_conn() calls modify()
  // only when the wanted set differs from it.
  bool armed_read = true;
  bool armed_write = false;
  bool draining = false;   // no more reads; close once responses flush

  util::Mutex mutex;
  /// Rendered response bytes pending write.
  std::string outbox MSRS_GUARDED_BY(mutex);
  /// Written prefix of outbox.
  std::size_t offset MSRS_GUARDED_BY(mutex) = 0;
  std::size_t outbox_highwater MSRS_GUARDED_BY(mutex) = 0;
  /// Sink drops late deliveries once set.
  bool closed MSRS_GUARDED_BY(mutex) = false;
};

// The event loop: one thread owning the listen sockets, every connection
// fd, the framers, the timer wheel and the live-connection count.
// Responses completed on shard worker threads land in per-connection
// outboxes and nudge the loop via an eventfd; the loop is the only thread
// that reads, writes or closes a socket, so connection state (the count
// included: accept and close both run here) needs no further locking.
class TcpServer {
 public:
  TcpServer(Service& service, const TcpOptions& options)
      : service_(service),
        options_(options),
        wheel_(options.tick_ms <= 0 ? 100 : options.tick_ms, 512),
        max_connections_(std::max<std::size_t>(options.max_connections, 1)),
        accepted_(service.metrics().counter("serve.conns.accepted")),
        shed_(service.metrics().counter("serve.conns.shed")),
        idle_reaped_(service.metrics().counter("serve.conns.idle_reaped")),
        active_gauge_(service.metrics().gauge("serve.conns.active")),
        read_hw_gauge_(
            service.metrics().gauge("serve.conns.read_buf_highwater")),
        write_hw_gauge_(
            service.metrics().gauge("serve.conns.write_buf_highwater")) {}

  int run(const std::string& unix_path, const std::string& host_port,
          std::string* error) {
    if (!host_port.empty()) {
      std::string host;
      std::uint16_t port = 0;
      if (!parse_host_port(host_port, &host, &port, error)) return 1;
      listen_fd_ = listen_on(host, port, error, options_.on_listen);
      if (listen_fd_ < 0) return 1;
    } else if (!unix_path.empty()) {
      listen_fd_ = listen_unix(unix_path, error);
      if (listen_fd_ < 0) return 1;
    } else if (options_.http.empty()) {
      if (error) *error = "no target: need a JSONL or HTTP address";
      return 1;
    }
    if (!options_.http.empty()) {
      std::string host;
      std::uint16_t port = 0;
      if (!parse_host_port(options_.http, &host, &port, error) ||
          (http_listen_fd_ =
               listen_on(host, port, error, options_.on_http_listen)) < 0) {
        close_listener();
        return 1;
      }
    }
    poller_ = make_poller(error);
    if (!poller_) {
      close_listener();
      if (http_listen_fd_ >= 0) ::close(http_listen_fd_);
      return 1;
    }
    if (listen_fd_ >= 0)
      poller_->add(listen_fd_, /*want_read=*/true, /*want_write=*/false);
    if (http_listen_fd_ >= 0)
      poller_->add(http_listen_fd_, /*want_read=*/true, /*want_write=*/false);
    if (wakeup_.fd() >= 0)
      poller_->add(wakeup_.fd(), /*want_read=*/true, /*want_write=*/false);
    install_stop_signals();

    const int tick = options_.tick_ms <= 0 ? 100 : options_.tick_ms;
    std::vector<Poller::Event> events;
    std::vector<int> expired;
    while (service_.accepting() && !stop_requested()) {
      events.clear();
      poller_->wait(&events, tick);  // EINTR/timeout: housekeeping only
      now_ms_ = elapsed_ms();
      process_events(events);
      flush_dirty();
      reap_idle(expired);
      monitor_maybe();
    }
    drain_and_close();
    return 0;
  }

 private:
  // One poll batch: accepts on both listeners, wakeup drain, per-conn I/O.
  void process_events(const std::vector<Poller::Event>& events) {
    for (const Poller::Event& event : events) {
      if (listen_fd_ >= 0 && event.fd == listen_fd_) {
        accept_new(listen_fd_, /*http=*/false);
        continue;
      }
      if (http_listen_fd_ >= 0 && event.fd == http_listen_fd_) {
        accept_new(http_listen_fd_, /*http=*/true);
        continue;
      }
      if (event.fd == wakeup_.fd()) {
        wakeup_.drain();
        continue;
      }
      const auto it = conns_.find(event.fd);
      if (it == conns_.end()) continue;  // closed earlier this batch
      std::shared_ptr<TcpConn> conn = it->second;
      if (event.readable && conn->reading) {
        if (conn->http)
          handle_http_read(conn);
        else
          handle_read(conn);
      }
      if (conns_.count(event.fd) == 0) continue;  // closed by the read
      if (event.writable && !flush_conn(conn)) {
        close_conn(conn);
        continue;
      }
      if (event.error && conns_.count(event.fd) != 0) close_conn(conn);
    }
  }

  // Calls Service::monitor_tick() once per monitor interval of loop time.
  void monitor_maybe() {
    if (options_.monitor_interval_ms <= 0) return;
    const std::uint64_t interval =
        static_cast<std::uint64_t>(options_.monitor_interval_ms);
    if (now_ms_ - last_monitor_ms_ < interval) return;
    last_monitor_ms_ = now_ms_;
    service_.monitor_tick();
  }

  std::uint64_t elapsed_ms() const {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - start_)
            .count());
  }

  // Binds and listens on host:port; returns the fd (-1 + *error on
  // failure) and reports the bound port through `notify` (ephemeral-port
  // support for both the JSONL and the HTTP listener).
  int listen_on(const std::string& host, std::uint16_t port,
                std::string* error,
                const std::function<void(std::uint16_t)>& notify) {
    int listen_fd = -1;
    addrinfo hints = {};
    hints.ai_family = AF_UNSPEC;
    hints.ai_socktype = SOCK_STREAM;
    hints.ai_flags = AI_PASSIVE | AI_NUMERICSERV;
    addrinfo* results = nullptr;
    const int rc = ::getaddrinfo(host.c_str(), std::to_string(port).c_str(),
                                 &hints, &results);
    if (rc != 0) {
      if (error) *error = "resolve " + host + ": " + ::gai_strerror(rc);
      return -1;
    }
    for (const addrinfo* ai = results; ai != nullptr; ai = ai->ai_next) {
      const int fd = ::socket(ai->ai_family,
                              ai->ai_socktype | SOCK_NONBLOCK | SOCK_CLOEXEC,
                              ai->ai_protocol);
      if (fd < 0) continue;
      const int one = 1;
      ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
      if (::bind(fd, ai->ai_addr, ai->ai_addrlen) == 0 &&
          ::listen(fd, 512) == 0) {
        listen_fd = fd;
        break;
      }
      ::close(fd);
    }
    ::freeaddrinfo(results);
    if (listen_fd < 0) {
      if (error)
        *error = "listen " + host + ":" + std::to_string(port) + ": " +
                 std::strerror(errno);
      return -1;
    }
    if (notify) {
      sockaddr_storage bound = {};
      socklen_t len = sizeof bound;
      std::uint16_t actual = port;
      if (::getsockname(listen_fd, reinterpret_cast<sockaddr*>(&bound),
                        &len) == 0) {
        if (bound.ss_family == AF_INET)
          actual = ntohs(reinterpret_cast<sockaddr_in*>(&bound)->sin_port);
        else if (bound.ss_family == AF_INET6)
          actual = ntohs(reinterpret_cast<sockaddr_in6*>(&bound)->sin6_port);
      }
      notify(actual);
    }
    return listen_fd;
  }

  // Binds and listens on the UNIX-domain socket `path`, unlinking a stale
  // file there first; returns the fd (-1 + *error on failure).
  int listen_unix(const std::string& path, std::string* error) {
    sockaddr_un address;
    if (!unix_address(path, &address, error)) return -1;
    const int fd =
        ::socket(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
    if (fd < 0) {
      if (error) *error = std::string("socket: ") + std::strerror(errno);
      return -1;
    }
    ::unlink(path.c_str());  // stale socket file from a previous run
    const char* failed = nullptr;
    if (::bind(fd, reinterpret_cast<const sockaddr*>(&address),
               sizeof address) != 0)
      failed = "bind ";
    else if (::listen(fd, 512) != 0)
      failed = "listen ";
    if (failed != nullptr) {
      if (error) *error = failed + path + ": " + std::strerror(errno);
      ::close(fd);
      return -1;
    }
    unix_path_ = path;
    if (options_.on_listen) options_.on_listen(0);
    return fd;
  }

  // Closes the JSONL listener; a UNIX listener's path goes with it.
  void close_listener() {
    if (listen_fd_ < 0) return;
    if (poller_) poller_->remove(listen_fd_);
    ::close(listen_fd_);
    listen_fd_ = -1;
    if (!unix_path_.empty()) ::unlink(unix_path_.c_str());
  }

  void accept_new(int listen_fd, bool http) {
    for (;;) {
      const int fd = ::accept4(listen_fd, nullptr, nullptr,
                               SOCK_NONBLOCK | SOCK_CLOEXEC);
      if (fd < 0) {
        if (errno == EINTR) continue;
        return;  // EAGAIN: accepted everything pending
      }
      if (active_ >= max_connections_) {
        shed_.inc();
        if (obs::FlightRecorder* recorder = service_.recorder())
          recorder->record(
              obs::EventKind::kShed, 0,
              obs::recorder_ts_ns(std::chrono::steady_clock::now()), 0xff, 0,
              0);
        // Shed with one named line (HTTP peers get a framed 503), then
        // close. A fresh socket's send buffer is empty, so the single
        // nonblocking send goes through.
        const std::string line =
            http ? http_response(503, "text/plain", "overloaded\n")
                 : error_response(Json(), WireError::kOverloaded,
                                  "connection limit reached") +
                       "\n";
        [[maybe_unused]] const ssize_t sent =
            ::send(fd, line.data(), line.size(), MSG_NOSIGNAL);
        ::close(fd);
        continue;
      }
      accepted_.inc();
      active_gauge_.set(static_cast<std::int64_t>(++active_));
      if (http || unix_path_.empty()) {  // no Nagle on AF_UNIX
        const int one = 1;
        ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
      }
      auto conn = std::make_shared<TcpConn>(options_.max_line_bytes);
      conn->fd = fd;
      conn->http = http;
      TcpConn* raw = conn.get();
      // The sink holds a raw pointer, not the shared_ptr (that would be a
      // conn -> writer -> sink -> conn cycle). Safe: every deliver() path
      // runs through a callback owning the shared_ptr, so the connection
      // outlives any sink invocation.
      conn->writer =
          std::make_unique<OrderedWriter>([this, raw](const std::string& line) {
            int conn_fd = -1;
            {
              util::MutexLock lock(raw->mutex);
              if (raw->closed) return;  // response after abrupt close
              raw->outbox.append(line);
              raw->outbox.push_back('\n');
              raw->outbox_highwater = std::max(
                  raw->outbox_highwater, raw->outbox.size() - raw->offset);
              conn_fd = raw->fd;  // fd is invalidated under this lock
            }
            mark_dirty(conn_fd);
          });
      if (options_.idle_timeout_ms > 0)
        wheel_.arm(fd, now_ms_ + options_.idle_timeout_ms);
      poller_->add(fd, /*want_read=*/true, /*want_write=*/false);
      conns_.emplace(fd, std::move(conn));
    }
  }

  void mark_dirty(int fd) MSRS_EXCLUDES(dirty_mutex_) {
    {
      util::MutexLock lock(dirty_mutex_);
      dirty_.push_back(fd);
    }
    wakeup_.signal();
  }

  void submit_line(const std::shared_ptr<TcpConn>& conn, std::string&& line) {
    const std::uint64_t seq = conn->writer->reserve();
    OrderedWriter* writer = conn->writer.get();
    service_.submit(line, [conn, writer, seq](std::string&& response) {
      writer->deliver(seq, std::move(response));
    });
  }

  void handle_read(const std::shared_ptr<TcpConn>& conn) {
    // At most kReadBudget bytes per wakeup: level-triggered epoll reports
    // the rest on a later tick, after the write gate has been checked
    // again, so a client that sends without pause can neither hold the
    // loop nor grow its framer without bound.
    constexpr std::size_t kReadBudget = 256 << 10;
    char chunk[16384];
    bool eof = false;
    for (std::size_t taken = 0; taken < kReadBudget;) {
      const ssize_t got = ::read(conn->fd, chunk, sizeof chunk);
      if (got > 0) {
        conn->framer.append(chunk, static_cast<std::size_t>(got));
        taken += static_cast<std::size_t>(got);
        if (options_.idle_timeout_ms > 0)
          wheel_.arm(conn->fd, now_ms_ + options_.idle_timeout_ms);
        continue;
      }
      if (got == 0) {
        eof = true;
        break;
      }
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      close_conn(conn);  // ECONNRESET and friends: abrupt teardown
      return;
    }
    note_read_highwater(conn->framer.highwater());
    std::string line;
    while (conn->framer.next_line(&line)) {
      if (line.empty()) continue;  // the stdio transport skips them too
      if (line.size() > options_.max_line_bytes) {
        reject_oversized(conn);
        return;
      }
      // After a shutdown op keeps submitting: each line already on the
      // wire still gets its (shutting_down) response, per the
      // one-response-per-request contract.
      submit_line(conn, std::move(line));
    }
    if (conn->framer.overflowed()) {
      reject_oversized(conn);
      return;
    }
    if (eof) {
      // Orderly EOF: flush the unterminated final line as a request —
      // std::getline does on the stdio transport, and byte-identity
      // between the transports is a tested contract.
      std::string tail = conn->framer.take_remainder();
      if (!tail.empty()) submit_line(conn, std::move(tail));
      begin_drain(conn);
      return;
    }
    if (!service_.accepting()) begin_drain(conn);
  }

  // Reads an HTTP connection until its request head is complete, routes
  // it, queues the single response and drains the connection (the
  // responses carry `Connection: close` — one request per connection).
  void handle_http_read(const std::shared_ptr<TcpConn>& conn) {
    constexpr std::size_t kHeadBound = 8192;  // heads are a handful of lines
    char chunk[4096];
    bool eof = false;
    // The bound is checked after every chunk, so one wakeup reads at most
    // kHeadBound + sizeof chunk bytes: a client streaming an endless head
    // can neither hold the loop nor grow the buffer past that.
    while (conn->http_buf.size() <= kHeadBound) {
      const ssize_t got = ::read(conn->fd, chunk, sizeof chunk);
      if (got > 0) {
        conn->http_buf.append(chunk, static_cast<std::size_t>(got));
        if (options_.idle_timeout_ms > 0)
          wheel_.arm(conn->fd, now_ms_ + options_.idle_timeout_ms);
        continue;
      }
      if (got == 0) {
        eof = true;
        break;
      }
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      close_conn(conn);
      return;
    }
    note_read_highwater(conn->http_buf.size());
    if (conn->http_buf.size() > kHeadBound) {
      queue_http(conn,
                 http_response(400, "text/plain", "request head too large\n"));
      return;
    }
    HttpRequest request;
    const HttpParse parsed =
        parse_http_request(conn->http_buf, &request, nullptr);
    if (parsed == HttpParse::kIncomplete) {
      if (eof) close_conn(conn);  // peer gave up mid-head
      return;
    }
    queue_http(conn, parsed == HttpParse::kBad
                         ? http_response(400, "text/plain", "bad request\n")
                         : http_route(service_, request));
  }

  // Appends a complete HTTP response to the outbox and starts the drain.
  void queue_http(const std::shared_ptr<TcpConn>& conn,
                  std::string&& response) {
    {
      util::MutexLock lock(conn->mutex);
      conn->outbox.append(response);
      conn->outbox_highwater = std::max(conn->outbox_highwater,
                                        conn->outbox.size() - conn->offset);
    }
    begin_drain(conn);
  }

  void reject_oversized(const std::shared_ptr<TcpConn>& conn) {
    const std::uint64_t seq = conn->writer->reserve();
    conn->writer->deliver(
        seq, error_response(Json(), WireError::kParseError,
                            "request line exceeds the transport limit"));
    begin_drain(conn);
  }

  void begin_drain(const std::shared_ptr<TcpConn>& conn) {
    conn->draining = true;
    conn->reading = false;
    wheel_.cancel(conn->fd);
    if (!flush_conn(conn)) close_conn(conn);
  }

  // Writes as much of the outbox as the socket accepts, applies read
  // gating and re-arms interest when it changed. False on a fatal write
  // error (peer gone).
  bool flush_conn(const std::shared_ptr<TcpConn>& conn) {
    std::size_t pending = 0;
    std::size_t highwater = 0;
    {
      util::MutexLock lock(conn->mutex);
      while (conn->offset < conn->outbox.size()) {
        const ssize_t sent =
            ::send(conn->fd, conn->outbox.data() + conn->offset,
                   conn->outbox.size() - conn->offset, MSG_NOSIGNAL);
        if (sent > 0) {
          conn->offset += static_cast<std::size_t>(sent);
          continue;
        }
        if (sent < 0 && errno == EINTR) continue;
        if (sent < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
        return false;
      }
      if (conn->offset >= conn->outbox.size()) {
        conn->outbox.clear();
        conn->offset = 0;
      }
      pending = conn->outbox.size() - conn->offset;
      highwater = conn->outbox_highwater;
    }
    note_write_highwater(highwater);
    conn->want_write = pending > 0;
    if (!conn->draining) {
      // Backpressure on a slow consumer: stop reading while its outbox is
      // over the gate, resume once it drains below half.
      if (pending > options_.write_gate_bytes)
        conn->reading = false;
      else if (!conn->reading && pending <= options_.write_gate_bytes / 2)
        conn->reading = true;
    }
    if (conn->reading != conn->armed_read ||
        conn->want_write != conn->armed_write) {
      poller_->modify(conn->fd, conn->reading, conn->want_write);
      conn->armed_read = conn->reading;
      conn->armed_write = conn->want_write;
    }
    try_finish(conn);
    return true;
  }

  // Closes a draining connection once every reserved response has been
  // delivered and written to the socket.
  void try_finish(const std::shared_ptr<TcpConn>& conn) {
    if (!conn->draining) return;
    // drained() first, outbox second, both without holding the other's
    // lock (sink takes conn->mutex inside the writer's lock — acquiring
    // them here in the opposite order would be an inversion). No deliver
    // can slip between the checks: drained() true means every reserved
    // slot has been written, and a draining connection reserves no more.
    if (!conn->writer->drained()) return;
    bool empty = false;
    {
      util::MutexLock lock(conn->mutex);
      empty = conn->offset >= conn->outbox.size();
    }
    if (empty) close_conn(conn);
  }

  void flush_dirty() MSRS_EXCLUDES(dirty_mutex_) {
    std::vector<int> dirty;
    {
      util::MutexLock lock(dirty_mutex_);
      dirty.swap(dirty_);
    }
    for (const int fd : dirty) {
      const auto it = conns_.find(fd);
      if (it == conns_.end()) continue;  // already closed (or fd reused)
      const std::shared_ptr<TcpConn> conn = it->second;
      if (!flush_conn(conn)) close_conn(conn);
    }
  }

  void reap_idle(std::vector<int>& expired) {
    if (options_.idle_timeout_ms == 0) return;
    expired.clear();
    wheel_.advance(now_ms_, &expired);
    for (const int fd : expired) {
      const auto it = conns_.find(fd);
      if (it == conns_.end()) continue;
      const std::shared_ptr<TcpConn> conn = it->second;
      if (conn->draining) continue;  // already on its way out
      idle_reaped_.inc();
      close_conn(conn);
    }
  }

  void close_conn(const std::shared_ptr<TcpConn>& conn) {
    if (conn->fd < 0) return;
    const int fd = conn->fd;
    std::size_t write_highwater = 0;
    {
      util::MutexLock lock(conn->mutex);
      if (conn->closed) return;
      conn->closed = true;
      conn->fd = -1;  // the sink reads fd under this lock
      write_highwater = conn->outbox_highwater;
    }
    note_read_highwater(conn->framer.highwater());
    note_write_highwater(write_highwater);
    poller_->remove(fd);
    wheel_.cancel(fd);
    ::close(fd);
    conns_.erase(fd);
    active_gauge_.set(static_cast<std::int64_t>(--active_));
  }

  void note_read_highwater(std::size_t value) {
    if (value > read_hw_max_) {
      read_hw_max_ = value;
      read_hw_gauge_.set(static_cast<std::int64_t>(value));
    }
  }

  void note_write_highwater(std::size_t value) {
    if (value > write_hw_max_) {
      write_hw_max_ = value;
      write_hw_gauge_.set(static_cast<std::int64_t>(value));
    }
  }

  void drain_and_close() {
    // The JSONL listener closes now; the HTTP listener stays up through
    // the drain so `/healthz` keeps answering (with 503 — the service no
    // longer accepts).
    close_listener();
    // Every admitted request is answered (shutting_down past the
    // deadline) before shutdown returns. That can take up to 30s, so it
    // waits on a helper thread while this loop keeps serving HTTP scrapes
    // and flushing response bytes to still-connected peers.
    std::atomic<bool> drained{false};
    std::thread waiter([this, &drained] {
      service_.shutdown(std::chrono::seconds(30));
      drained.store(true);
      wakeup_.signal();
    });
    const int tick = options_.tick_ms <= 0 ? 100 : options_.tick_ms;
    std::vector<Poller::Event> drain_events;
    std::vector<int> drain_expired;
    while (!drained.load()) {
      drain_events.clear();
      poller_->wait(&drain_events, tick);
      now_ms_ = elapsed_ms();
      process_events(drain_events);
      flush_dirty();
      reap_idle(drain_expired);
    }
    waiter.join();
    // wait_drained guarantees the last sink invocation has happened —
    // after this, outboxes are final.
    // order-insensitive: waits on every writer; visiting order is moot.
    for (const auto& [fd, conn] : conns_) conn->writer->wait_drained();
    // Bounded flush phase: push the final outboxes to every peer still
    // reading; give up on the rest after the deadline.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    std::vector<Poller::Event> events;
    while (!conns_.empty() && std::chrono::steady_clock::now() < deadline) {
      std::vector<std::shared_ptr<TcpConn>> open;
      open.reserve(conns_.size());
      // order-insensitive: collects handles to flush; each conn's bytes
      // are ordered by its own OrderedWriter, never by this iteration.
      for (const auto& [fd, conn] : conns_) open.push_back(conn);
      for (const std::shared_ptr<TcpConn>& conn : open) {
        conn->draining = true;
        conn->reading = false;
        if (!flush_conn(conn)) close_conn(conn);
      }
      if (conns_.empty()) break;
      events.clear();
      poller_->wait(&events, 50);
    }
    std::vector<std::shared_ptr<TcpConn>> rest;
    rest.reserve(conns_.size());
    // order-insensitive: every remaining conn gets closed; order is moot.
    for (const auto& [fd, conn] : conns_) rest.push_back(conn);
    for (const std::shared_ptr<TcpConn>& conn : rest) close_conn(conn);
    if (http_listen_fd_ >= 0) {
      poller_->remove(http_listen_fd_);
      ::close(http_listen_fd_);
      http_listen_fd_ = -1;
    }
  }

  Service& service_;
  TcpOptions options_;
  std::chrono::steady_clock::time_point start_ =
      std::chrono::steady_clock::now();
  std::uint64_t now_ms_ = 0;  // loop-iteration timestamp (ms since start_)
  std::unique_ptr<Poller> poller_;
  WakeupFd wakeup_;
  TimerWheel wheel_;
  std::size_t max_connections_;
  std::size_t active_ = 0;  // live connections, JSONL and HTTP
  obs::Counter& accepted_;
  obs::Counter& shed_;
  obs::Counter& idle_reaped_;
  obs::Gauge& active_gauge_;
  obs::Gauge& read_hw_gauge_;
  obs::Gauge& write_hw_gauge_;
  std::size_t read_hw_max_ = 0;
  std::size_t write_hw_max_ = 0;
  int listen_fd_ = -1;
  std::string unix_path_;  // set when the JSONL listener is AF_UNIX
  int http_listen_fd_ = -1;
  std::uint64_t last_monitor_ms_ = 0;  // last monitor_tick() loop time
  std::unordered_map<int, std::shared_ptr<TcpConn>> conns_;
  util::Mutex dirty_mutex_;
  /// Fds with freshly appended outbox bytes.
  std::vector<int> dirty_ MSRS_GUARDED_BY(dirty_mutex_);
};

}  // namespace

int serve_tcp(Service& service, const std::string& unix_path,
              const std::string& host_port, std::string* error,
              TcpOptions options) {
  TcpServer server(service, options);
  return server.run(unix_path, host_port, error);
}

}  // namespace msrs::serve

#else  // no epoll event loop on this platform

namespace msrs::serve {

int serve_tcp(Service&, const std::string&, const std::string&,
              std::string* error, TcpOptions) {
  if (error)
    *error =
        "the event-loop transport (--tcp, --socket, --http) is unavailable "
        "on this platform";
  return 1;
}

}  // namespace msrs::serve

#endif
