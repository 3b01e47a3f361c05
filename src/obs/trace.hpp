/// \file
/// Request-lifecycle stamps: the TraceContext every request carries from
/// admission to its response, and the stage arithmetic over it.
///
/// The serving layer stamps a TraceContext at admission, enqueue, shard
/// dispatch and the end of the solve. When the request ends, the stamps
/// feed its flight-recorder events (obs/flight_recorder.hpp), the
/// `serve.latency.*` stage histograms and the slow-request log.
#pragma once

#include <chrono>
#include <cstdint>

namespace msrs::obs {

/// Monotonic clock of every lifecycle stamp.
using TraceClock = std::chrono::steady_clock;

/// Per-request stage stamps, carried with the request through the service.
struct TraceContext {
  std::uint64_t seq = 0;  ///< service-wide request sequence number
  TraceClock::time_point admit;      ///< submit() entry (parse begins)
  TraceClock::time_point enqueue;    ///< admitted into the shard queue
  TraceClock::time_point dispatch;   ///< dequeued by a shard; solve begins
  TraceClock::time_point solve_end;  ///< result rendered
};

/// Microseconds between two stamps (0 when either is unset/reversed).
inline double stage_us(TraceClock::time_point from,
                       TraceClock::time_point to) {
  if (from.time_since_epoch().count() == 0 ||
      to.time_since_epoch().count() == 0 || to < from)
    return 0.0;
  return std::chrono::duration<double, std::micro>(to - from).count();
}

}  // namespace msrs::obs
