/// \file
/// FlightRecorder: always-on, fixed-capacity binary record of every request
/// lifecycle event — the post-mortem instrument of the serving layer.
///
/// The one lifecycle record of the serving layer: it answers "what happened
/// in the seconds before this spike / shed burst / crash" by recording
/// **every** event, unsampled, into per-thread lock-free ring buffers of
/// compact 24-byte entries. record() is a handful of plain stores plus one
/// relaxed atomic publish on a ring owned by the calling thread — cheap
/// enough to leave on in production (bench E14 pins the per-event cost; the
/// timestamp is taken by the caller, who usually already holds a stamp of
/// its obs/trace.hpp TraceContext).
///
/// Three ways out of the rings:
///  - collect()/render_jsonl(): merge every ring into one deterministic
///    JSONL document (the `dump_recorder` wire op and the HTTP `/recorder`
///    endpoint). Canonical mode drops wall-clock and placement fields and
///    sorts by (seq, kind), so the same request stream dumps byte-identical
///    bytes at any shard/thread count — a tested invariant.
///  - dump_to_fd(): the async-signal-safe raw binary path. A fatal-signal
///    handler (install_fatal_dump()) writes the rings to a pre-opened fd
///    with nothing but write(2), then re-raises; decode() reads the bytes
///    back into events offline.
///  - The anomaly watchdog (obs/timeseries.hpp) auto-dumps the JSONL form
///    when a threshold trips.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "util/json.hpp"
#include "util/sync.hpp"

namespace msrs::obs {

/// Lifecycle event kinds, in per-request lifecycle order: one request
/// records at most one event per kind, in increasing enum order, so a
/// (seq, kind) sort reproduces each request's own timeline without
/// wall-clock input. New kinds are appended, never reordered (the enum
/// value is the binary-dump encoding).
enum class EventKind : std::uint8_t {
  kAdmit = 0,        ///< submit() accepted the raw line (value = line bytes)
  kDispatch,         ///< dequeued by a shard worker
  kSolveBegin,       ///< cache probe / portfolio race starts
  kSolveEnd,         ///< result ready (label = winning solver, value =
                     ///< cache state: 0 miss, 1 hit, 2 bypass)
  kSessionOpen,      ///< session created (value = machines)
  kSessionSubmit,    ///< job submitted (value = assigned job id)
  kSessionCancel,    ///< job cancelled (value = job id)
  kSessionSnapshot,  ///< snapshot answered (value = alive jobs)
  kSessionClose,     ///< session closed
  kWrite,            ///< response rendered (value = response bytes)
  kShed,             ///< transport shed a connection over budget
  kError,            ///< named error response (label = wire error code)
};

/// Number of event kinds (bounds kind values in decoded binary dumps).
inline constexpr std::size_t kEventKindCount = 12;

/// The stable name of an event kind (e.g. "solve_end").
std::string_view event_kind_name(EventKind kind);

/// One recorded lifecycle event — 24 bytes, trivially copyable (the binary
/// dump format writes these structs raw).
struct RecorderEvent {
  std::uint64_t seq = 0;    ///< service-wide request sequence number
  std::uint64_t ts_ns = 0;  ///< steady-clock nanoseconds (recorder_ts_ns())
  EventKind kind = EventKind::kAdmit;  ///< what happened
  std::uint8_t shard = 0xff;           ///< serving shard (0xff = none)
  std::uint16_t arg = 0;    ///< interned label id (solver / error / "")
  std::uint32_t value = 0;  ///< per-kind payload (see EventKind)
};

static_assert(sizeof(RecorderEvent) == 24, "binary dump format");

/// Steady-clock nanoseconds of a time point (the record() timestamp; the
/// caller takes it, typically reusing a trace stamp it already holds).
std::uint64_t recorder_ts_ns(std::chrono::steady_clock::time_point at);

/// FlightRecorder configuration.
struct RecorderOptions {
  /// Ring capacity per recording thread, in events (rounded up to a power
  /// of two). Older events are overwritten once a ring wraps; the
  /// overwritten count is reported as `dropped`.
  std::size_t capacity = 1 << 14;
};

/// The always-on lifecycle event recorder. record() is thread-safe and
/// lock-free after a thread's first event (per-thread single-writer rings);
/// everything else takes the registration mutex and may run concurrently
/// with recording (a reader can observe a torn event that is concurrently
/// overwritten — acceptable for a post-mortem instrument, and impossible in
/// the deterministic-dump tests, which read quiescent rings).
class FlightRecorder {
 public:
  /// A merged read-side view of every ring.
  struct Dump {
    std::vector<RecorderEvent> events;  ///< merged events (sorted per mode)
    std::uint64_t dropped = 0;  ///< events overwritten by ring wrap-around
  };

  /// A recorder with per-thread rings of `options.capacity` events.
  explicit FlightRecorder(RecorderOptions options = {});
  ~FlightRecorder();

  FlightRecorder(const FlightRecorder&) = delete;             ///< not copyable
  FlightRecorder& operator=(const FlightRecorder&) = delete;  ///< not copyable

  /// Records one event into the calling thread's ring. `ts_ns` is the
  /// caller's timestamp (recorder_ts_ns()); `arg` is an interned label id
  /// (intern()) or 0; `shard` 0xff means "no shard". Never blocks, never
  /// allocates after the calling thread's first event.
  void record(EventKind kind, std::uint64_t seq, std::uint64_t ts_ns,
              std::uint8_t shard, std::uint16_t arg,
              std::uint32_t value) noexcept {
    Ring* ring = tl_cache.owner == this ? tl_cache.ring : register_thread();
    if (ring == nullptr) return;  // past the ring cap: dropped (counted)
    // relaxed: single-writer ring — only this thread ever stores head, so
    // reading our own last store needs no ordering.
    const std::uint64_t head = ring->head.load(std::memory_order_relaxed);
    RecorderEvent& slot = ring->slots[head & ring->mask];
    slot.seq = seq;
    slot.ts_ns = ts_ns;
    slot.kind = kind;
    slot.shard = shard;
    slot.arg = arg;
    slot.value = value;
    ring->head.store(head + 1, std::memory_order_release);
  }

  /// Interns a label (solver name, error code) and returns its id for
  /// record()'s `arg`. Id 0 is the empty label. Takes a mutex — intern at
  /// setup time, not on the hot path. Idempotent per label.
  std::uint16_t intern(std::string_view label);

  /// The label behind an interned id ("" for 0 or an unknown id).
  std::string label(std::uint16_t id) const;

  /// Merges every ring. Canonical mode sorts by (seq, kind) — the
  /// deterministic per-request timeline; otherwise by (ts_ns, seq, kind) —
  /// the wall-clock timeline.
  Dump collect(bool canonical) const;

  /// One event as a Json object. Canonical mode emits only the
  /// run-independent fields {seq, event, label, value}; full mode adds
  /// {ts_ns, shard}.
  Json event_json(const RecorderEvent& event, bool canonical) const;

  /// Renders a dump as JSONL: one meta line
  /// `{"events":N,"dropped":D,"canonical":B}` then one line per event.
  std::string render_jsonl(const Dump& dump, bool canonical) const;

  /// collect() + render_jsonl() in one call.
  std::string jsonl(bool canonical) const {
    return render_jsonl(collect(canonical), canonical);
  }

  /// Writes every ring raw to `fd` using only write(2) — async-signal-safe
  /// (the fatal-signal dump path). Format: an 8-byte magic, a ring count,
  /// then per ring {capacity, head, capacity raw RecorderEvents}. Labels
  /// are not included; decoded events carry numeric `arg` ids.
  void dump_to_fd(int fd) const noexcept;

  /// Decodes dump_to_fd() bytes back into a merged Dump (events ordered
  /// oldest to newest per ring, wrap-around resolved). False when the
  /// buffer is not a complete, well-formed recorder dump.
  static bool decode(const char* data, std::size_t size, Dump* out);

  /// Total events currently held across all rings (diagnostics, tests).
  std::size_t size() const;

 private:
  // One single-writer ring. head counts all events ever written; the live
  // window is slots[(head-n) & mask] for n in [1, min(head, capacity)].
  struct Ring {
    explicit Ring(std::size_t capacity)
        : slots(capacity), mask(capacity - 1) {}
    std::vector<RecorderEvent> slots;
    std::uint64_t mask;
    alignas(64) std::atomic<std::uint64_t> head{0};
  };

  // Upper bound on recording threads; later threads drop their events
  // (counted). Far above any real transport/shard thread count.
  static constexpr std::size_t kMaxRings = 64;

  // One-entry thread-local cache: (recorder, ring) of the calling thread's
  // most recent recorder, so steady-state record() never takes the mutex.
  struct ThreadCache {
    const FlightRecorder* owner = nullptr;
    Ring* ring = nullptr;
  };
  static thread_local ThreadCache tl_cache;

  Ring* register_thread();

  std::size_t capacity_;
  mutable util::Mutex mutex_;  // registration/intern lock
  std::vector<std::unique_ptr<Ring>> rings_ MSRS_GUARDED_BY(mutex_);
  std::unordered_map<std::thread::id, Ring*> threads_ MSRS_GUARDED_BY(mutex_);
  std::vector<std::string> labels_ MSRS_GUARDED_BY(mutex_);
  std::unordered_map<std::string, std::uint16_t> label_ids_
      MSRS_GUARDED_BY(mutex_);
  // Signal-safe view of the rings: a fixed pointer array published with
  // release stores, traversable from a handler without the mutex.
  std::atomic<Ring*> ring_table_[kMaxRings] = {};
  std::atomic<std::size_t> ring_count_{0};
  std::atomic<std::uint64_t> overflow_dropped_{0};
};

/// Installs SIGSEGV/SIGABRT handlers that write `recorder`'s rings to the
/// pre-opened `fd` (dump_to_fd()) and then re-raise with default
/// disposition. One global recorder/fd pair; passing nullptr restores the
/// default handlers. The fd must stay open for the process lifetime.
void install_fatal_dump(FlightRecorder* recorder, int fd);

}  // namespace msrs::obs
