#include "serve/transport.hpp"

#include <atomic>
#include <csignal>
#include <istream>
#include <ostream>

namespace msrs::serve {

std::uint64_t OrderedWriter::reserve() {
  util::MutexLock lock(mutex_);
  return next_reserve_++;
}

void OrderedWriter::deliver(std::uint64_t seq, std::string&& line) {
  util::MutexLock lock(mutex_);
  pending_.emplace(seq, std::move(line));
  // Release the contiguous ready prefix. Writing under the lock keeps the
  // sink single-threaded and the order exact.
  for (auto it = pending_.find(next_write_); it != pending_.end();
       it = pending_.find(next_write_)) {
    sink_(it->second);
    pending_.erase(it);
    ++next_write_;
  }
  if (next_write_ == next_reserve_) drained_.notify_all();
}

void OrderedWriter::wait_drained() {
  util::MutexLock lock(mutex_);
  while (next_write_ != next_reserve_) drained_.wait(mutex_);
}

bool OrderedWriter::drained() {
  util::MutexLock lock(mutex_);
  return next_write_ == next_reserve_;
}

int serve_stdio(Service& service, std::istream& in, std::ostream& out) {
  OrderedWriter writer([&out](const std::string& line) {
    out << line << '\n';
    out.flush();  // pipelines see each response as soon as it is ready
  });
  std::string line;
  while (service.accepting() && !stop_requested() && std::getline(in, line)) {
    if (line.empty()) continue;
    const std::uint64_t seq = writer.reserve();
    service.submit(line, [seq, &writer](std::string&& response) {
      writer.deliver(seq, std::move(response));
    });
  }
  service.shutdown(std::chrono::seconds(30));
  writer.wait_drained();
  out.flush();
  return out ? 0 : 1;
}

namespace {

// std::atomic<int>, not volatile sig_atomic_t: request_stop() is called
// from other threads (e.g. `serve` ending its exposition loop), and a plain
// volatile written cross-thread is a C++ data race. std::atomic<int> is
// lock-free on every supported target (checked below), which also keeps
// it async-signal-safe for the handler write.
std::atomic<int> g_stop{0};
static_assert(std::atomic<int>::is_always_lock_free,
              "signal handler requires a lock-free stop flag");

void on_stop_signal(int) {
  // relaxed: a standalone flag with no dependent data; readers only poll
  // whether to stop, nothing is published through it.
  g_stop.store(1, std::memory_order_relaxed);
}

}  // namespace

void install_stop_signals() {
#if defined(_WIN32)
  std::signal(SIGINT, on_stop_signal);
  std::signal(SIGTERM, on_stop_signal);
#else
  // No SA_RESTART: a blocking read()/accept() returns EINTR so the serve
  // loops notice the flag promptly and drain instead of dying mid-request.
  struct sigaction action = {};
  action.sa_handler = on_stop_signal;
  sigemptyset(&action.sa_mask);
  action.sa_flags = 0;
  sigaction(SIGINT, &action, nullptr);
  sigaction(SIGTERM, &action, nullptr);
#endif
}

// relaxed: see on_stop_signal — the flag carries no dependent data.
bool stop_requested() { return g_stop.load(std::memory_order_relaxed) != 0; }

// relaxed: see on_stop_signal — the flag carries no dependent data.
void request_stop() { g_stop.store(1, std::memory_order_relaxed); }

// relaxed: see on_stop_signal — the flag carries no dependent data.
void reset_stop() { g_stop.store(0, std::memory_order_relaxed); }

}  // namespace msrs::serve
