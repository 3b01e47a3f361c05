#include "obs/timeseries.hpp"

#include <string_view>

namespace msrs::obs {
namespace {

// The snapshot fields the watchdog derives its point from (the serving
// layer's canonical metric names).
constexpr std::string_view kReceived = "serve.received";
constexpr std::string_view kResponded = "serve.responded";
constexpr std::string_view kErrors = "serve.errors";
constexpr std::string_view kRejected = "serve.rejected";
constexpr std::string_view kConnsShed = "serve.conns.shed";
constexpr std::string_view kQueuePrefix = "serve.queue_depth.";
constexpr std::string_view kTotalStage = "serve.latency.total_us";

std::uint64_t delta(std::uint64_t now, std::uint64_t before) {
  return now >= before ? now - before : 0;
}

}  // namespace

Json TimeseriesPoint::json() const {
  Json object = Json::object();
  object.set("received", static_cast<std::int64_t>(received));
  object.set("responded", static_cast<std::int64_t>(responded));
  object.set("errors", static_cast<std::int64_t>(errors));
  object.set("sheds", static_cast<std::int64_t>(sheds));
  object.set("queue_depth", queue_depth);
  object.set("samples", static_cast<std::int64_t>(samples));
  object.set("p50_us", p50_us);
  object.set("p95_us", p95_us);
  object.set("p99_us", p99_us);
  return object;
}

TimeseriesRing::TimeseriesRing(std::size_t capacity)
    : capacity_(capacity < 1 ? 1 : capacity) {
  points_.reserve(capacity_);
}

void TimeseriesRing::push(const TimeseriesPoint& point) {
  if (points_.size() < capacity_) {
    points_.push_back(point);
    return;
  }
  points_[start_] = point;
  start_ = (start_ + 1) % capacity_;
}

const TimeseriesPoint& TimeseriesRing::at(std::size_t i) const {
  return points_[(start_ + i) % points_.size()];
}

Json TimeseriesRing::json() const {
  Json array = Json::array();
  for (std::size_t i = 0; i < size(); ++i) array.push_back(at(i).json());
  return array;
}

Watchdog::Watchdog(WatchdogOptions options, MetricsRegistry& metrics)
    : options_(options),
      ring_(options.window),
      ticks_c_(&metrics.counter("obs.watchdog.ticks")),
      trips_c_(&metrics.counter("obs.watchdog.trips")),
      p99_trips_c_(&metrics.counter("obs.watchdog.p99_trips")),
      error_trips_c_(&metrics.counter("obs.watchdog.error_trips")),
      queue_trips_c_(&metrics.counter("obs.watchdog.queue_trips")),
      dumps_c_(&metrics.counter("obs.watchdog.dumps")) {}

bool Watchdog::tick(const MetricsSnapshot& snapshot) {
  ticks_c_->inc();
  TimeseriesPoint point;
  const std::uint64_t received = snapshot.counter_or(kReceived);
  const std::uint64_t responded = snapshot.counter_or(kResponded);
  const std::uint64_t errors = snapshot.counter_or(kErrors);
  const std::uint64_t sheds =
      snapshot.counter_or(kRejected) + snapshot.counter_or(kConnsShed);
  for (const auto& [name, value] : snapshot.gauges)
    if (name.size() > kQueuePrefix.size() &&
        std::string_view(name).substr(0, kQueuePrefix.size()) == kQueuePrefix)
      point.queue_depth += value;

  const Histogram::Snapshot* total = snapshot.histogram(kTotalStage);
  Histogram::Snapshot interval;  // bucket deltas: this interval's samples
  if (total != nullptr) {
    interval.bounds = total->bounds;
    interval.counts.resize(total->counts.size(), 0);
    const bool comparable = prev_total_counts_.size() == total->counts.size();
    for (std::size_t b = 0; b < total->counts.size(); ++b) {
      const std::uint64_t before = comparable ? prev_total_counts_[b] : 0;
      interval.counts[b] = delta(total->counts[b], before);
      interval.count += interval.counts[b];
    }
    prev_total_counts_ = total->counts;
  }

  if (have_baseline_) {
    point.received = delta(received, prev_received_);
    point.responded = delta(responded, prev_responded_);
    point.errors = delta(errors, prev_errors_);
    point.sheds = delta(sheds, prev_sheds_);
    point.samples = interval.count;
    point.p50_us = interval.quantile(0.50);
    point.p95_us = interval.quantile(0.95);
    point.p99_us = interval.quantile(0.99);
  }
  prev_received_ = received;
  prev_responded_ = responded;
  prev_errors_ = errors;
  prev_sheds_ = sheds;

  if (!have_baseline_) {
    have_baseline_ = true;
    ring_.push(point);
    ++ticks_since_dump_;
    return false;
  }
  ring_.push(point);
  ++ticks_since_dump_;

  bool tripped = false;
  std::string reason;
  if (options_.p99_threshold_us > 0.0 &&
      point.samples >= options_.min_samples &&
      point.p99_us > options_.p99_threshold_us) {
    p99_trips_c_->inc();
    tripped = true;
    reason = "p99 " + Json(point.p99_us).str() + "us over threshold " +
             Json(options_.p99_threshold_us).str() + "us";
  }
  if (options_.error_rate_threshold > 0.0 && point.received > 0) {
    const double rate = static_cast<double>(point.errors) /
                        static_cast<double>(point.received);
    if (rate > options_.error_rate_threshold) {
      error_trips_c_->inc();
      tripped = true;
      if (!reason.empty()) reason += "; ";
      reason += "error rate " + Json(rate).str() + " over threshold " +
                Json(options_.error_rate_threshold).str();
    }
  }
  if (options_.queue_threshold > 0 &&
      point.queue_depth > options_.queue_threshold) {
    queue_trips_c_->inc();
    tripped = true;
    if (!reason.empty()) reason += "; ";
    reason += "queue depth " + std::to_string(point.queue_depth) +
              " over threshold " + std::to_string(options_.queue_threshold);
  }
  if (!tripped) return false;
  trips_c_->inc();
  last_reason_ = reason;
  if (dumped_once_ && ticks_since_dump_ < options_.cooldown_ticks)
    return false;
  dumped_once_ = true;
  ticks_since_dump_ = 0;
  dumps_c_->inc();
  return true;
}

Json Watchdog::json() const {
  Json thresholds = Json::object();
  thresholds.set("p99_us", options_.p99_threshold_us);
  thresholds.set("error_rate", options_.error_rate_threshold);
  thresholds.set("queue", options_.queue_threshold);
  thresholds.set("min_samples", static_cast<std::int64_t>(options_.min_samples));
  thresholds.set("cooldown_ticks",
                 static_cast<std::int64_t>(options_.cooldown_ticks));
  Json object = Json::object();
  object.set("thresholds", std::move(thresholds));
  object.set("last_reason", last_reason_);
  object.set("window", ring_.json());
  return object;
}

}  // namespace msrs::obs
