/// \file
/// Service: the long-running sharded scheduling service.
///
/// Request lifecycle (see docs/architecture.md, "serving layer"):
///
///   transport line ──> submit(): parse (wire.hpp) ──> non-solve ops are
///   answered inline; solve ops parse their instance text in one pass to a
///   flat listing (core/instance_io.hpp; a spec is generated, then
///   flattened) and are admitted into the target shard's bounded queue —
///   blocking (backpressure) or failing with the named `overloaded` error,
///   per ServiceOptions. Shard = placement_hash % shards (engine/batch.hpp):
///   an O(n) relabelling-invariant hash, so isomorphic instances always
///   colocate. Each shard owns a PortfolioSolver and a bounded LRU cache
///   (util/lru.hpp) from canonical shape to rendered response tail, without
///   cross-shard locks; the shard computes the canonical shape itself,
///   just before its cache lookup. A hit is one string concatenation; only
///   a miss (or a `budget_ms` bypass, which skips the cache) builds the
///   shape's canonical Instance and races it. A race without a valid
///   schedule answers the named `no_schedule` error and is not cached.
///   Shard workers run on a parallel/thread_pool and answer through the
///   per-request callback.
///
/// Session ops (open_session/submit_job/cancel_job/snapshot/close_session)
/// route by the hash of the session *name* instead: every mutation of one
/// session lands on the same shard FIFO, so session state (a per-shard map
/// of engine/session.hpp SessionEngines) is mutated shared-nothing by that
/// shard's worker — no locks, and snapshot responses are a pure function of
/// the session's mutation history. A per-shard session-op budget
/// (ServiceOptions::session_queue_budget) bounds how much of a queue a
/// churn burst may occupy, so one chatty session cannot starve solve ops.
///
/// Determinism: a response body is a pure function of the request. Every
/// path races the canonical shape, so all relabellings of a shape get the
/// same body whether they miss, hit or bypass the cache, in any arrival
/// order (cache provenance is kept out of the body). The response *bytes*
/// of a request stream are therefore identical at any shard count, which
/// the serving smoke test asserts. Only completion order varies;
/// transports restore input order with an OrderedWriter
/// (serve/transport.hpp).
///
/// Every request that reaches a solve, a session op or a named error ends
/// through one private path (Service::end_request): its terminal flight-
/// recorder events, the lifecycle-stage histograms and the slow-request
/// log, all before the response callback fires.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/instance_io.hpp"
#include "engine/batch.hpp"
#include "engine/registry.hpp"
#include "engine/session.hpp"
#include "obs/obs.hpp"
#include "parallel/thread_pool.hpp"
#include "serve/bounded_queue.hpp"
#include "serve/wire.hpp"
#include "util/json.hpp"
#include "util/sync.hpp"

namespace msrs::serve {

/// Upper bound on a Service's effective shard count: the flight recorder
/// stores the shard in one byte, and 0xff means "no shard".
inline constexpr unsigned kMaxShards = 255;

/// Configuration of one Service.
struct ServiceOptions {
  /// Worker shards; 0 = hardware concurrency. Capped at kMaxShards.
  unsigned shards = 4;
  std::size_t queue_depth = 1024;  ///< per-shard admission queue bound
  /// Per-shard result-cache bound, in canonical shapes (0 = unbounded).
  std::size_t cache_capacity = 1 << 14;
  /// Admission when the target shard queue is full: false blocks the
  /// submitting thread (backpressure — deterministic pipelines), true
  /// fails fast with the named `overloaded` error (load shedding).
  bool reject_when_full = false;
  int budget_ms = 20;  ///< default portfolio effort gate per request
  std::vector<std::string> solvers;  ///< portfolio `only` filter ([] = all)
  /// Open-session cap across all shards; open_session beyond it fails with
  /// the named `session_limit` error.
  std::size_t session_limit = 1024;
  /// Per-shard cap on *queued* session ops — the admission fairness bound:
  /// a chatty session (cheap mutations arrive much faster than solves
  /// drain) can occupy at most this many of a shard's queue slots, so solve
  /// traffic behind a churn burst waits for at most `session_queue_budget`
  /// cheap ops instead of a full queue of them. Blocking admission applies
  /// backpressure at the budget; reject admission sheds with `overloaded`.
  /// 0 disables the gate (sessions compete for the whole queue).
  std::size_t session_queue_budget = 64;
  /// Per-session repair-memo bound, in canonical shapes
  /// (engine/session.hpp; session-local by design — determinism).
  std::size_t session_cache = 256;
  /// Slow-request log threshold, milliseconds: a request slower than this
  /// from admission to response logs one `slow request` line to stderr.
  /// <= 0 disables.
  double slow_ms = 1000.0;
  /// Flight-recorder per-thread ring capacity, in events (0 disables the
  /// recorder; the solve path then skips every record() call).
  std::size_t recorder_events = 1 << 14;
  /// Anomaly-watchdog thresholds evaluated by monitor_tick() (all 0 =
  /// the timeseries window is still kept, but nothing ever trips).
  obs::WatchdogOptions watchdog;
  /// File the watchdog overwrites with a full (wall-clock) recorder JSONL
  /// dump when it trips ("" = count the trip, skip the file).
  std::string watchdog_dump;
};

/// Snapshot of the service counters (the `stats` op payload).
struct ServiceStats {
  std::size_t received = 0;   ///< submit() calls
  std::size_t responded = 0;  ///< response callbacks fired
  std::size_t rejected = 0;   ///< admissions refused (`overloaded`)
  std::size_t errors = 0;     ///< error responses (rejections included)
  std::size_t solved = 0;     ///< portfolio races actually run
  std::size_t cache_hits = 0;       ///< repeats served from the cache
  std::size_t cache_misses = 0;     ///< solve requests that missed
  std::size_t cache_evictions = 0;  ///< LRU entries dropped (capacity)
  std::size_t cache_entries = 0;    ///< resident entries, all shards
  unsigned shards = 0;              ///< configured shard count
  std::vector<std::size_t> queue_depths;    ///< per-shard queued requests
  /// Per-shard served requests: solves and successful session ops.
  std::vector<std::size_t> shard_requests;
};

/// Renders the `stats` response: the counter body plus queue depths,
/// per-shard throughput, the per-code error breakdown, solver-win and
/// connection counters, and the p50/p95/p99 latency decomposition by
/// lifecycle stage — all read from the metrics snapshot.
std::string stats_response(const Json& id, const ServiceStats& stats,
                           const obs::MetricsSnapshot& snapshot);

/// The sharded async scheduling service. Thread-safe: any number of
/// transport threads may submit() concurrently.
class Service {
 public:
  /// Response sink of one request; invoked exactly once with the response
  /// line (no trailing newline), either inline from submit() (errors,
  /// non-solve ops, rejections) or from a shard worker thread.
  using Done = std::function<void(std::string&&)>;

  /// Starts the shard workers. The registry must outlive the service.
  explicit Service(
      ServiceOptions options = {},
      const engine::SolverRegistry& registry =
          engine::SolverRegistry::default_registry());

  /// Drains and stops (equivalent to shutdown() with a 30s deadline).
  ~Service();

  Service(const Service&) = delete;             ///< not copyable
  Service& operator=(const Service&) = delete;  ///< not copyable

  /// Admits one raw request line. `done` is called exactly once.
  void submit(const std::string& line, Done done);

  /// Synchronous convenience (tests, tools): submits and waits for the
  /// response line.
  std::string handle(const std::string& line);

  /// True until a shutdown op or shutdown() call; afterwards submit()
  /// answers `shutting_down`. Transports poll this to stop reading.
  bool accepting() const { return accepting_.load(); }

  /// Counter snapshot (cheap; safe from any thread).
  ServiceStats stats() const;

  /// The service's metrics registry; transports attach their connection
  /// counters here so one `stats` snapshot covers the whole stack.
  obs::MetricsRegistry& metrics() { return metrics_; }

  /// Deterministically ordered snapshot of every metric, with the live
  /// queue-depth gauges and the uptime gauge refreshed first and the
  /// `build_info` info series attached (feeds the `stats` op, the
  /// --metrics-dump page, and the HTTP `/metrics` endpoint).
  obs::MetricsSnapshot metrics_snapshot();

  /// The always-on flight recorder, or nullptr when disabled
  /// (ServiceOptions::recorder_events == 0). Transports record their own
  /// events (sheds) here; the fatal-signal dump installs against it.
  obs::FlightRecorder* recorder() { return recorder_.get(); }

  /// One monitoring interval: snapshots the metrics, feeds the anomaly
  /// watchdog, and — when a threshold trips outside the cooldown — dumps
  /// the recorder to ServiceOptions::watchdog_dump. Serialized internally;
  /// the event loop (serve/tcp.hpp) calls this once per monitor interval,
  /// tests call it directly. Returns true when a dump fired.
  bool monitor_tick() MSRS_EXCLUDES(monitor_mutex_);

  /// The watchdog's retained timeseries window and trip state (diagnostic
  /// JSON; tests and the `/recorder` HTTP surface read it).
  const obs::Watchdog& watchdog() const { return *watchdog_; }

  /// Effective shard count.
  unsigned shards() const { return static_cast<unsigned>(shards_.size()); }

  /// Graceful drain-then-stop: stops admitting, waits up to `deadline` for
  /// queued requests to be answered; requests still queued past the
  /// deadline are answered with the named `shutting_down` error (callbacks
  /// always fire). Returns true when everything drained in time.
  /// Idempotent.
  bool shutdown(std::chrono::milliseconds deadline)
      MSRS_EXCLUDES(pending_mutex_);

 private:
  struct Item {
    Op op = Op::kSolve;
    Json id;
    // A solve carries its instance flat; the shard computes its canonical
    // shape, which is both the cache key and the instance it races.
    FlatInstance flat;
    int budget_ms = 0;  // 0 = service default (cacheable)
    Done done;
    obs::TraceContext trace;  // lifecycle stamps (admission -> write)
    // Session ops (routed by session-name hash, not placement hash):
    std::string session;
    std::string job_class;  // kSubmitJob
    Time size = 0;          // kSubmitJob
    std::int64_t job = -1;  // kCancelJob
    int machines = 0;       // kOpenSession
  };

  // A cached solve: the rendered response tail plus the winning solver's
  // name, so a hit's solve_end event and slow line keep their provenance.
  struct CachedResult {
    std::string tail;
    std::string solver;
  };

  /// Per-shard result cache: canonical shape -> the rendered response
  /// tail of its race (every solve-response field is isomorphism-invariant,
  /// so a repeat — even with renamed jobs/classes — is answered by one
  /// string concatenation, no remapping or re-rendering).
  using TailCache =
      LruCache<engine::CanonicalShape, CachedResult,
               engine::CanonicalShapeHash, engine::CanonicalShapeEq>;

  /// One shard: admission queue, solver, bounded result cache, counters,
  /// and the sessions it owns (shared-nothing: a session's name hash picks
  /// its shard, so all its mutations serialize on one worker, no locks).
  struct Shard {
    explicit Shard(std::size_t queue_depth, std::size_t cache_capacity)
        : queue(queue_depth), cache(cache_capacity) {}
    int index = 0;
    BoundedQueue<Item> queue;
    TailCache cache;  // touched only by the shard worker
    // The worker's lookup key, ranked in place for every cacheable solve
    // (moved into the cache on a miss).
    engine::CanonicalShape shape;
    std::unique_ptr<engine::PortfolioSolver> portfolio;
    obs::Counter* requests = nullptr;  // registry: serve.shard_requests.<i>
    // Snapshots mirrored after every request so stats() never races the
    // worker's non-atomic LRU counters.
    std::atomic<std::size_t> solved{0}, hits{0}, misses{0}, evictions{0},
        entries{0};
    /// Sessions owned by this shard, touched only by its worker.
    std::unordered_map<std::string, std::unique_ptr<engine::SessionEngine>>
        sessions;
    /// Admission fairness gate (ServiceOptions::session_queue_budget):
    /// session ops queued on this shard right now. Producers block (or
    /// shed) at the budget; the worker decrements and signals after each
    /// session op it finishes.
    util::Mutex session_gate_mutex;
    util::CondVar session_gate_cv;
    std::size_t queued_session_ops MSRS_GUARDED_BY(session_gate_mutex) = 0;
  };

  void shard_loop(Shard& shard);
  void process(Shard& shard, Item& item);
  void process_session(Shard& shard, Item& item);
  void release_session_slot(Shard& shard);
  void respond(Done& done, std::string&& line);
  void respond_error(Done& done, const Json& id, WireError code,
                     std::string_view detail, const obs::TraceContext& trace);
  // The one end of every solve, session op and named error: records the
  // terminal recorder event `kind` (kSolveEnd, a session kind or kError)
  // and, unless it is an error, `write`; feeds the lifecycle histograms
  // (not for errors); writes the slow-request line; then respond()s.
  void end_request(Done& done, std::string&& line,
                   const obs::TraceContext& trace, obs::EventKind kind,
                   std::uint8_t shard, std::uint16_t label,
                   std::uint32_t value, std::string_view solver);
  // pending_ bookkeeping of queued items.
  void finish_item() MSRS_EXCLUDES(pending_mutex_);

  ServiceOptions options_;
  const engine::SolverRegistry* registry_;
  obs::MetricsRegistry metrics_;
  std::unique_ptr<obs::FlightRecorder> recorder_;
  std::unique_ptr<obs::Watchdog> watchdog_;
  util::Mutex monitor_mutex_;  // serializes monitor_tick()
  std::chrono::steady_clock::time_point start_;
  obs::Gauge* uptime_g_ = nullptr;
  // Pre-interned recorder label ids (solver names by registry order plus
  // the per-code error names), so the hot path never takes the intern lock.
  std::vector<std::uint16_t> error_label_;  // by WireError enum value
  std::unordered_map<std::string, std::uint16_t> solver_label_;
  // Hot-path metric handles, resolved once at construction (registry
  // addresses are stable for its lifetime).
  obs::Counter* received_c_ = nullptr;
  obs::Counter* responded_c_ = nullptr;
  obs::Counter* rejected_c_ = nullptr;
  obs::Counter* errors_c_ = nullptr;
  std::vector<obs::Counter*> error_code_c_;  // by WireError enum value
  obs::Histogram* lat_admission_ = nullptr;
  obs::Histogram* lat_queue_ = nullptr;
  obs::Histogram* lat_solve_ = nullptr;
  obs::Histogram* lat_write_ = nullptr;
  obs::Histogram* lat_total_ = nullptr;
  // serve.session.* handles (pre-registered for a stable stats key set).
  obs::Counter* session_opened_c_ = nullptr;
  obs::Counter* session_closed_c_ = nullptr;
  obs::Counter* session_submits_c_ = nullptr;
  obs::Counter* session_cancels_c_ = nullptr;
  obs::Counter* session_snapshots_c_ = nullptr;
  obs::Counter* session_repairs_c_ = nullptr;
  obs::Counter* session_fallbacks_c_ = nullptr;
  obs::Gauge* session_active_g_ = nullptr;
  std::atomic<std::size_t> active_sessions_{0};
  std::atomic<std::uint64_t> seq_{0};  // request sequence (recorder seq)
  std::vector<std::unique_ptr<Shard>> shards_;
  ThreadPool pool_;
  std::atomic<bool> accepting_{true};
  std::atomic<bool> abort_{false};  // deadline passed: fail queued items
  util::Mutex pending_mutex_;
  util::CondVar drained_;
  /// Queued items whose callback has not fired.
  std::size_t pending_ MSRS_GUARDED_BY(pending_mutex_) = 0;
  std::once_flag shutdown_once_;
  bool shutdown_result_ = true;
};

}  // namespace msrs::serve
