/// \file
/// Minimal HTTP/1.1 GET surface of the observability endpoints.
///
/// The event loop (serve/tcp.cpp) owns a second, TCP listener
/// (`serve --http=HOST:PORT`) whose connections speak plain HTTP instead
/// of JSONL: one GET per connection, answered with `Connection: close`.
/// This header is the protocol piece — head framing/parsing, response
/// rendering, and the route table over the service's exposition surfaces
/// (`/metrics`, `/healthz`, `/recorder`, `/watchdog`) — kept free of
/// socket I/O so tests can drive it with plain strings. Everything a
/// route renders comes from snapshot reads; the solve path is untouched.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>

#include "serve/service.hpp"

namespace msrs::serve {

/// A parsed HTTP request head (request line only; headers are framed and
/// skipped — no route of this surface needs them).
struct HttpRequest {
  std::string method;  ///< request method, e.g. "GET"
  std::string target;  ///< origin-form target, e.g. "/recorder?canonical=1"
};

/// Outcome of parse_http_request().
enum class HttpParse {
  kIncomplete,  ///< the head's terminating blank line is not buffered yet
  kOk,          ///< head parsed; `*head_len` bytes consumed
  kBad,         ///< malformed head — answer 400 and close
};

/// Parses an HTTP/1.1 request head from `buffer` (everything up to and
/// including the first blank line; CRLF and bare-LF line endings both
/// accepted). On kOk fills `request` and, when non-null, `*head_len`.
HttpParse parse_http_request(std::string_view buffer, HttpRequest* request,
                             std::size_t* head_len);

/// Renders a complete HTTP/1.1 response: status line (200/400/404/405/503
/// carry their standard reason phrases), Content-Type, Content-Length and
/// `Connection: close`, then the body.
std::string http_response(int status, std::string_view content_type,
                          std::string_view body);

/// Routes one parsed request against the service's observability
/// surfaces:
///  - `GET /metrics`  — the Prometheus page of Service::metrics_snapshot()
///  - `GET /healthz`  — 200 `ok` while accepting, 503 `draining` after
///  - `GET /recorder` — flight-recorder JSONL (`?canonical=1` for the
///    run-independent rendering); 404 when the recorder is disabled
///  - `GET /watchdog` — the watchdog's timeseries window and trip state
/// Unknown targets answer 404; non-GET methods answer 405.
std::string http_route(Service& service, const HttpRequest& request);

}  // namespace msrs::serve
