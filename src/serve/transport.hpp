/// \file
/// Transport-side plumbing of the serving layer: response reordering, the
/// stdin/stdout serve loop, and cooperative stop signals.
///
/// The service answers in completion order (whichever shard finishes
/// first); a transport restores *request* order with an OrderedWriter so
/// the byte stream a client sees is a pure function of the byte stream it
/// sent — at any shard count. SIGINT/SIGTERM flip a cooperative stop flag
/// (handlers installed without SA_RESTART, so blocking reads return early)
/// and every transport then drains in-flight requests before exiting.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <map>
#include <string>

#include "serve/service.hpp"
#include "util/sync.hpp"

namespace msrs::serve {

/// Buffers out-of-order response lines and releases them to the sink in
/// reservation order. Thread-safe; deliver() may come from any thread.
class OrderedWriter {
 public:
  /// `sink` receives complete response lines (no trailing newline), in
  /// reservation order, serialized under the writer's lock.
  explicit OrderedWriter(std::function<void(const std::string&)> sink)
      : sink_(std::move(sink)) {}

  /// Claims the next slot in the output order; pass the returned sequence
  /// number to deliver() exactly once.
  std::uint64_t reserve() MSRS_EXCLUDES(mutex_);

  /// Hands in the response of slot `seq`; writes every contiguous
  /// now-ready line through the sink.
  void deliver(std::uint64_t seq, std::string&& line) MSRS_EXCLUDES(mutex_);

  /// Blocks until every reserved slot has been delivered and written.
  void wait_drained() MSRS_EXCLUDES(mutex_);

  /// True when every reserved slot has been delivered and written — the
  /// non-blocking probe an event loop polls to decide whether a draining
  /// connection may close yet.
  bool drained() MSRS_EXCLUDES(mutex_);

 private:
  // The sink is only ever invoked under mutex_ (deliver's release loop),
  // which is what serializes it; annotated accordingly.
  std::function<void(const std::string&)> sink_ MSRS_GUARDED_BY(mutex_);
  util::Mutex mutex_;
  util::CondVar drained_;
  /// Delivered but not yet written (waiting for their turn).
  std::map<std::uint64_t, std::string> pending_ MSRS_GUARDED_BY(mutex_);
  std::uint64_t next_reserve_ MSRS_GUARDED_BY(mutex_) = 0;
  std::uint64_t next_write_ MSRS_GUARDED_BY(mutex_) = 0;
};

/// Serves JSONL requests from `in` to `out` (one response line per request
/// line, in request order) until EOF, a `shutdown` op, or a stop signal;
/// then drains in-flight requests and returns the process exit code
/// (0 = clean, 1 = output stream failure). Empty lines are skipped.
int serve_stdio(Service& service, std::istream& in, std::ostream& out);

/// Installs SIGINT/SIGTERM handlers that make stop_requested() true and
/// interrupt blocking reads (no SA_RESTART). Idempotent.
void install_stop_signals();

/// True once a stop signal has been received (or request_stop() called).
bool stop_requested();

/// Flips the stop flag programmatically (tests; `serve` ends the
/// exposition-only loop beside stdio with it).
void request_stop();

/// Clears the stop flag (tests only; signals may race a clear).
void reset_stop();

}  // namespace msrs::serve
