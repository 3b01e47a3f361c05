/// \file
/// The connection transport: a single-threaded, level-triggered epoll event
/// loop (serve/event_loop.hpp) behind `msrs_engine_cli serve --tcp=HOST:PORT`
/// and `serve --socket=PATH`, plus the one blocking line client the load
/// driver, the `stats` subcommand and the tests connect with.
///
/// The loop listens on a TCP address or a UNIX-domain socket path; past
/// accept the two are served identically. One JSONL stream per connection,
/// responses in that connection's request order (one OrderedWriter per
/// connection). The loop owns non-blocking accept, per-connection bounded
/// read/write buffers with framing across arbitrary packetization,
/// idle-timeout reaping via a timer wheel, and a live-connection budget
/// that sheds over-budget accepts with one named `overloaded` line before
/// close. Shard workers deliver responses into a connection's outbox under
/// its lock and nudge the loop through an eventfd; only the loop thread
/// touches sockets, so a client that never reads stalls no shard.
///
/// Response bytes are identical to the stdio transport for the same
/// request stream — including a final unterminated line, which is flushed
/// as a request on orderly EOF exactly as std::getline would read it
/// (tests/test_tcp.cpp pins this byte-identity under adversarial
/// chunking). Only built where an event-loop poller exists (Linux);
/// elsewhere the entry points fail with a descriptive error.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "serve/service.hpp"

namespace msrs::serve {

/// True when this build carries the event-loop transport.
bool tcp_transport_available();

/// Options of the event-loop server.
struct TcpOptions {
  /// Live-connection budget (JSONL and HTTP connections alike): over-budget
  /// accepts are answered with one `overloaded` error line (HTTP: a 503)
  /// and closed, counted as `serve.conns.shed`.
  std::size_t max_connections = 1024;
  /// Connections idle (no bytes read) longer than this are reaped — closed
  /// and counted as `serve.conns.idle_reaped`. 0 disables reaping.
  std::uint64_t idle_timeout_ms = 60'000;
  /// Read-buffer bound: a single request line longer than this is answered
  /// with a named `parse_error` and the connection is closed.
  std::size_t max_line_bytes = 1 << 20;
  /// Soft write-buffer bound: while a connection's outbox holds more than
  /// this, the loop stops reading from it (backpressure on a slow
  /// consumer) until the outbox drains below half the bound.
  std::size_t write_gate_bytes = 256 << 10;
  /// Poll tick in milliseconds: the upper bound on how long the loop
  /// sleeps before noticing stop flags and timer-wheel deadlines.
  int tick_ms = 100;
  /// Invoked once, when the JSONL listener is up, with the bound port
  /// (useful with port 0 — tests and `serve --port-file`); 0 for a
  /// UNIX-domain listener.
  std::function<void(std::uint16_t)> on_listen;
  /// Optional HTTP exposition listener ("HOST:PORT", "" = disabled): the
  /// same loop thread serves `GET /metrics`, `/healthz`, `/recorder` and
  /// `/watchdog` (serve/http.hpp), one request per connection. While the
  /// service drains, `/healthz` keeps answering — with 503.
  std::string http;
  /// Invoked once with the bound HTTP port (port 0 — `--http-port-file`).
  std::function<void(std::uint16_t)> on_http_listen;
  /// Monitoring cadence: the loop calls Service::monitor_tick() (watchdog
  /// evaluation + auto-dump) at this interval. 0 disables ticking.
  int monitor_interval_ms = 1000;
};

/// Splits "HOST:PORT" (the last ':' wins, so bracketless IPv6 hosts are
/// not supported). False + `*error` on a malformed target.
bool parse_host_port(const std::string& target, std::string* host,
                     std::uint16_t* port, std::string* error);

/// Listens on `host_port` ("HOST:PORT"; port 0 picks an ephemeral port,
/// reported via TcpOptions::on_listen) or, when that is empty, on the
/// UNIX-domain socket `unix_path` (a stale file there is unlinked first,
/// and the path is removed again on exit). Accepts connections and serves
/// until a stop signal or a client `shutdown` op; then drains in-flight
/// requests, flushes every connection's pending responses, and closes.
/// While draining, the HTTP listener (TcpOptions::http) keeps serving so
/// `/healthz` can report 503. Both addresses may be empty when an HTTP
/// target is configured (exposition-only loop). Connection metrics land in
/// the service's registry (`serve.conns.*`). Returns the process exit code
/// (0 = clean; 1 with `*error` filled on setup failure).
int serve_tcp(Service& service, const std::string& unix_path,
              const std::string& host_port, std::string* error,
              TcpOptions options = {});

/// Blocking line-oriented client of one serving connection, over TCP or a
/// UNIX-domain socket — the driver's fan-in client, the `stats`
/// subcommand's, and the scripted raw-socket client of the transport test
/// harness (adversarial chunking, half-close, RST).
class LineClient {
 public:
  /// An unconnected client.
  LineClient() = default;
  /// Closes the connection if still open.
  ~LineClient();

  LineClient(const LineClient&) = delete;             ///< not copyable
  LineClient& operator=(const LineClient&) = delete;  ///< not copyable

  /// Connects to "HOST:PORT" when `host_port` is non-empty, otherwise to
  /// the UNIX-domain socket `unix_path`; false + `*error` on failure.
  bool connect(const std::string& unix_path, const std::string& host_port,
               std::string* error);

  /// Sends one request line (newline appended). False on a broken pipe.
  bool send_line(const std::string& line);

  /// Sends raw bytes exactly as given — the adversarial-chunking hook (no
  /// framing, no newline). False on a broken pipe.
  bool send_bytes(const char* data, std::size_t size);

  /// Half-closes the write side (the server sees orderly EOF and flushes
  /// any unterminated final line) while responses remain readable.
  void shutdown_write();

  /// Receives the next response line (newline stripped); false on EOF or
  /// a read error.
  bool recv_line(std::string* line);

  /// True when the peer has closed the connection (or it failed) and no
  /// unread bytes remain — e.g. the server reaped it for idling past its
  /// `--idle-timeout`. Never blocks.
  bool peer_closed();

  /// Closes the connection abruptly: over TCP, SO_LINGER 0 makes close()
  /// emit RST instead of FIN — the "client killed mid-request" fault.
  void abort_connection();

  /// Closes the connection (idempotent).
  void close();

 private:
  int fd_ = -1;
  std::string buffer_;       // bytes read but not yet returned
  std::size_t scanned_ = 0;  // prefix of buffer_ known to hold no newline
};

/// LineClient::connect on a fresh client: returns it connected, or null
/// with `*error` filled (also when both targets are empty).
std::unique_ptr<LineClient> connect_line_client(const std::string& unix_path,
                                                const std::string& tcp_target,
                                                std::string* error);

}  // namespace msrs::serve
