/// \file
/// Event-loop building blocks of the connection transport (serve/tcp.hpp): the
/// readiness-API seam, a lazy timer wheel for idle-timeout reaping, a
/// bounded JSONL reassembly buffer, and a cross-thread wakeup fd.
///
/// The pieces are deliberately independent of any socket code so the
/// protocol state machine is testable byte-by-byte without a kernel in the
/// loop (tests/test_tcp.cpp, the chunking fuzzer in tests/test_fuzz.cpp):
///
///   Poller     — virtual readiness interface; make_poller() returns the
///                level-triggered epoll implementation on Linux. The
///                abstraction seam exists so an io_uring (or kqueue)
///                backend can slot in without touching the transport.
///   TimerWheel — O(1) arm/cancel hashed wheel with lazy re-parking;
///                drives per-connection idle deadlines.
///   LineFramer — bounded per-connection read buffer that reassembles
///                newline-delimited frames across arbitrary packetization
///                (1-byte writes, mid-JSON splits, coalesced requests).
///   WakeupFd   — edge-coalescing eventfd so shard workers finishing a
///                response can nudge a sleeping event loop.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

namespace msrs::serve {

/// Readiness-notification seam of the event loop. One implementation per
/// OS facility; the transport only speaks this interface, so swapping
/// epoll for io_uring is a new make_*_poller factory, not a rewrite.
/// Level-triggered semantics: an fd with unread input (or writable space,
/// when write interest is armed) reports ready on every wait().
class Poller {
 public:
  /// One readiness report of wait().
  struct Event {
    int fd = -1;           ///< the ready descriptor
    bool readable = false; ///< input available (or EOF pending)
    bool writable = false; ///< output space available
    bool error = false;    ///< error/hangup condition (close the fd)
  };

  virtual ~Poller() = default;

  /// Registers `fd` with the given interest set. False on failure.
  virtual bool add(int fd, bool want_read, bool want_write) = 0;
  /// Replaces the interest set of a registered fd. False on failure.
  virtual bool modify(int fd, bool want_read, bool want_write) = 0;
  /// Deregisters a fd (idempotent). False on failure.
  virtual bool remove(int fd) = 0;
  /// Blocks up to `timeout_ms` (-1 = forever) and appends ready events to
  /// `*events` (not cleared). Returns the number appended, 0 on timeout,
  /// -1 on error (EINTR included — callers treat it as an empty wait).
  virtual int wait(std::vector<Event>* events, int timeout_ms) = 0;
};

/// True when this build has a Poller implementation (Linux epoll today).
bool poller_available();

/// The platform poller (epoll, level-triggered). Null + `*error` filled
/// when the platform has none or creation failed.
std::unique_ptr<Poller> make_poller(std::string* error);

/// Hashed timer wheel with lazy re-parking: arm() and cancel() are O(1);
/// advance() touches only the slots the cursor crosses. Keys are small
/// non-negative ints (file descriptors). Re-arming an armed key just
/// overwrites its deadline — the stale slot entry is validated against the
/// live deadline when its slot comes due and re-parked forward, so a busy
/// connection costs one map update per activity burst, not one slot
/// insertion per read.
class TimerWheel {
 public:
  /// A wheel of `slots` buckets, each `tick_ms` wide. `slots * tick_ms`
  /// should exceed the longest timeout armed on it (shorter wheels still
  /// work — entries just re-park an extra lap).
  TimerWheel(std::uint64_t tick_ms, std::size_t slots);

  /// Arms (or re-arms) `key` to expire once `advance()` passes
  /// `deadline_ms`.
  void arm(int key, std::uint64_t deadline_ms);

  /// Disarms `key` (no-op when not armed).
  void cancel(int key);

  /// Moves the cursor to `now_ms` and appends every expired key to
  /// `*expired` (not cleared). Keys re-armed into the future are re-parked,
  /// not reported.
  void advance(std::uint64_t now_ms, std::vector<int>* expired);

  /// Number of armed keys.
  std::size_t armed() const { return entries_.size(); }

 private:
  struct Entry {
    std::uint64_t deadline_ms = 0;
    bool parked = false;  // has a live slot reference
  };
  std::size_t slot_of(std::uint64_t deadline_ms) const {
    return static_cast<std::size_t>(deadline_ms / tick_ms_) % slots_.size();
  }

  std::uint64_t tick_ms_;
  std::uint64_t cursor_ms_ = 0;
  std::vector<std::vector<int>> slots_;
  std::unordered_map<int, Entry> entries_;
};

/// Bounded JSONL reassembly buffer: append() bytes as they arrive off the
/// wire in arbitrary chunks, next_line() yields complete newline-delimited
/// frames in order. A frame longer than `max_line_bytes` flips
/// overflowed() — the transport answers with a named error and closes,
/// so a client streaming an unbounded line cannot grow server memory
/// (the buffer never exceeds max_line_bytes + one read chunk).
class LineFramer {
 public:
  /// A framer refusing lines longer than `max_line_bytes`.
  explicit LineFramer(std::size_t max_line_bytes)
      : max_line_bytes_(max_line_bytes) {}

  /// Appends `size` raw bytes.
  void append(const char* data, std::size_t size);

  /// Extracts the next complete line into `*line` (newline stripped;
  /// empty lines included — callers skip them to match the stdio
  /// transport). False when no complete line is buffered.
  bool next_line(std::string* line);

  /// True once any frame — the unterminated tail or a completed line —
  /// has exceeded the line bound. Latches until the framer is destroyed;
  /// the connection is past saving.
  bool overflowed() const { return overflowed_; }

  /// Steals the unterminated tail (the final line of a stream that ended
  /// without a newline — the stdio transport processes it, so the TCP
  /// transport flushes it on orderly EOF for byte-identity).
  std::string take_remainder();

  /// Bytes currently buffered.
  std::size_t buffered() const { return buffer_.size() - begin_; }

  /// Largest buffered() ever observed (feeds the read-buffer highwater
  /// gauge).
  std::size_t highwater() const { return highwater_; }

 private:
  std::size_t max_line_bytes_;
  std::string buffer_;
  std::size_t begin_ = 0;     // consumed prefix of buffer_
  std::size_t scanned_ = 0;   // prefix known to hold no newline
  std::size_t tail_len_ = 0;  // bytes after the last newline ever appended
  std::size_t highwater_ = 0;
  bool overflowed_ = false;
};

/// Cross-thread wakeup for a sleeping Poller: workers completing responses
/// signal(), the loop has fd() registered for read and drain()s on
/// readiness. Signals coalesce (eventfd counter), so a burst of responses
/// costs one wakeup.
class WakeupFd {
 public:
  /// Creates the eventfd (fd() is -1 on failure or off-Linux builds).
  WakeupFd();
  /// Closes the fd.
  ~WakeupFd();

  WakeupFd(const WakeupFd&) = delete;             ///< not copyable
  WakeupFd& operator=(const WakeupFd&) = delete;  ///< not copyable

  /// The readable descriptor to register with the Poller (-1 when
  /// unavailable).
  int fd() const { return fd_; }

  /// Nudges the loop (async-signal-safe, callable from any thread).
  void signal();

  /// Consumes pending signals so the fd stops reporting readable.
  void drain();

 private:
  int fd_ = -1;
};

}  // namespace msrs::serve
