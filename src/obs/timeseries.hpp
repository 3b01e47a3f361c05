/// \file
/// Windowed snapshot-delta timeseries and the anomaly watchdog.
///
/// The MetricsRegistry (obs/metrics.hpp) holds *cumulative* state; alerting
/// needs *rates*. Watchdog::tick() diffs consecutive MetricsSnapshots into
/// TimeseriesPoints — per-interval counter deltas plus window-scoped
/// p50/p95/p99 of the total-latency stage (computed from the histogram
/// bucket deltas, so the quantiles describe only the samples of that
/// interval, not the whole process lifetime) — keeps the last N points in a
/// TimeseriesRing, and evaluates the configured thresholds. A trip bumps
/// `obs.watchdog.*` counters and tells the caller to auto-dump the flight
/// recorder (obs/flight_recorder.hpp), subject to a cooldown so a sustained
/// anomaly produces one dump, not one per tick.
///
/// The ticking cadence is owned by the caller (the serving event loop ticks
/// Service::monitor_tick(); tests tick directly), so everything here is
/// clock-free and deterministic given the snapshots.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "util/json.hpp"

namespace msrs::obs {

/// One interval of the monitoring timeseries: counter deltas between two
/// consecutive snapshots plus interval-scoped latency quantiles.
struct TimeseriesPoint {
  std::uint64_t received = 0;   ///< requests admitted this interval
  std::uint64_t responded = 0;  ///< responses delivered this interval
  std::uint64_t errors = 0;     ///< error responses this interval
  std::uint64_t sheds = 0;      ///< rejections + transport sheds
  std::int64_t queue_depth = 0;  ///< queued requests at snapshot time (sum)
  std::uint64_t samples = 0;  ///< total-stage latency samples this interval
  double p50_us = 0.0;  ///< interval p50 of the total stage (µs)
  double p95_us = 0.0;  ///< interval p95 of the total stage (µs)
  double p99_us = 0.0;  ///< interval p99 of the total stage (µs)

  /// This point as a Json object (deterministic key order).
  Json json() const;
};

/// Fixed-capacity ring of the most recent TimeseriesPoints.
class TimeseriesRing {
 public:
  /// A ring keeping the last `capacity` points (minimum 1).
  explicit TimeseriesRing(std::size_t capacity);

  /// Appends a point, evicting the oldest past capacity.
  void push(const TimeseriesPoint& point);

  /// Points currently held.
  std::size_t size() const { return points_.size(); }

  /// The i-th point, oldest first (i < size()).
  const TimeseriesPoint& at(std::size_t i) const;

  /// The newest point (size() must be > 0).
  const TimeseriesPoint& back() const { return at(points_.size() - 1); }

  /// The whole window as a Json array, oldest first.
  Json json() const;

 private:
  std::size_t capacity_;
  std::size_t start_ = 0;  // index of the oldest point
  std::vector<TimeseriesPoint> points_;
};

/// Watchdog thresholds and window shape. A threshold of 0 disables that
/// check.
struct WatchdogOptions {
  std::size_t window = 60;  ///< TimeseriesRing capacity, in intervals
  /// Trip when the interval p99 of the total stage exceeds this (µs).
  double p99_threshold_us = 0.0;
  /// Trip when errors/received of the interval exceeds this ratio.
  double error_rate_threshold = 0.0;
  /// Trip when the queued-request sum at snapshot time exceeds this.
  std::int64_t queue_threshold = 0;
  /// Minimum total-stage samples in the interval before the p99 check
  /// applies (one slow request in an idle second is not an anomaly).
  std::uint64_t min_samples = 8;
  /// Intervals to suppress further dump requests after a dump fires, so a
  /// sustained anomaly yields one recorder dump, not one per tick.
  std::size_t cooldown_ticks = 30;
};

/// The anomaly watchdog: feeds the ring, evaluates thresholds, counts
/// trips in `obs.watchdog.*`. Not thread-safe — the owner serializes
/// tick() (Service::monitor_tick() holds a mutex).
class Watchdog {
 public:
  /// A watchdog recording its trip counters into `metrics` (the registry
  /// must outlive the watchdog; the `obs.watchdog.*` counters are
  /// registered eagerly so the stats key set is stable).
  Watchdog(WatchdogOptions options, MetricsRegistry& metrics);

  /// Ingests one snapshot: diffs it against the previous one into a
  /// TimeseriesPoint, appends to the ring, and evaluates thresholds.
  /// Returns true when a recorder dump should fire now (some threshold
  /// tripped and the cooldown has elapsed). The first call only
  /// establishes the baseline and never trips.
  bool tick(const MetricsSnapshot& snapshot);

  /// The retained window.
  const TimeseriesRing& ring() const { return ring_; }

  /// Human-readable reason of the most recent trip ("" before any trip).
  const std::string& last_reason() const { return last_reason_; }

  /// Diagnostic render: options, trip state, and the window
  /// (deterministic key order).
  Json json() const;

 private:
  WatchdogOptions options_;
  TimeseriesRing ring_;
  Counter* ticks_c_;
  Counter* trips_c_;
  Counter* p99_trips_c_;
  Counter* error_trips_c_;
  Counter* queue_trips_c_;
  Counter* dumps_c_;
  bool have_baseline_ = false;
  std::uint64_t prev_received_ = 0;
  std::uint64_t prev_responded_ = 0;
  std::uint64_t prev_errors_ = 0;
  std::uint64_t prev_sheds_ = 0;
  std::vector<std::uint64_t> prev_total_counts_;  // total_us bucket counts
  std::size_t ticks_since_dump_ = 0;
  bool dumped_once_ = false;
  std::string last_reason_;
};

}  // namespace msrs::obs
