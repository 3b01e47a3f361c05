// End-to-end serving benchmark: drives a child `msrs_engine_cli serve
// --tcp=127.0.0.1:0 --shards=2` over two TCP connections with the JSONL
// wire protocol only, checks every response, and prints the end-to-end
// metrics.
//
// A run is kRounds rounds, each on a freshly spawned server: a timed
// set-up (spawn, `version` handshake on both connections, prewarm), a
// latency phase (a fixed list of requests sent one at a time, each timed
// from its send to its response), and a closed-loop throughput phase (each
// connection keeps kInFlight requests outstanding). The load generator
// runs on one CPU and the server's threads one to a CPU of the others,
// except in the latency phase, where they all share the generator's. The
// figures are medians over rounds and windows (perfbench/README.md); the
// correctness gate and the workload guards decide whether the run is valid.
#include <poll.h>
#include <sched.h>
#include <sys/prctl.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "serve/wire.hpp"
#include "util/json.hpp"

namespace perfbench {
namespace {

constexpr int kConns = 2;
constexpr int kInFlight = 16;  // per connection, in the closed loop
// Rounds on fresh servers: the host's speed drifts over seconds to
// minutes, so one bad stretch should move a few rounds, not the run.
constexpr int kRounds = 8;
constexpr double kDrainSeconds = 60.0;
// Throughput is taken over this many equal windows of each round's closed
// loop, so one transient stall moves one window only.
constexpr int kWindows = 4;
// p99 is the median over windows of the latency-phase samples, in
// completion order across rounds, of at least this many samples each (ten
// beyond the p99).
constexpr std::size_t kMinWindowSamples = 1000;
constexpr std::size_t kMaxLatencyWindows = 20;

// Latency-phase requests per second of its share of --seconds: about two
// thirds of what one CPU serves one at a time, so the phase takes a little
// less than its share (README.md).
double latency_rate(Workload workload) {
  switch (workload) {
    case Workload::kHitHeavy: return 12000.0;
    case Workload::kColdMix: return 1000.0;
    case Workload::kSessionChurn: return 30000.0;
  }
  return 1.0;
}

enum class Phase { kPrewarm, kThroughput, kLatency };

// The requests of one workload and the checks of their responses.
class Traffic {
 public:
  virtual ~Traffic() = default;
  virtual void begin(Phase phase, int round) = 0;
  // The next request of `conn`; false when the phase has no more input.
  // With `closing`, only a request that ends open per-connection state
  // (a session close) is returned.
  virtual bool next(int conn, std::uint64_t id, bool closing,
                    std::string* line, std::uint64_t* item) = 0;
  // Checks one response. `*ratio` receives its makespan/T ratio, or a
  // negative value when the response carries none.
  virtual bool check(int conn, std::uint64_t item, std::uint64_t id,
                     std::string&& response, double* ratio) = 0;
  // Checks deferred to the end of the run; returns the failures found.
  virtual std::uint64_t finish() { return 0; }
  // A guard violation seen in the responses ("" = none).
  virtual std::string guard() const { return ""; }
};

std::string id_prefix(std::uint64_t id) {
  return "{\"id\":" + std::to_string(id);
}

bool starts_with(const std::string& text, const std::string& prefix) {
  return text.compare(0, prefix.size(), prefix) == 0;
}

msrs::engine::PortfolioResult reference_solve(const msrs::Instance& instance) {
  static const msrs::engine::PortfolioSolver portfolio(
      msrs::engine::SolverRegistry::default_registry(),
      served_portfolio_options());
  return portfolio.solve(instance);
}

// hit_heavy: a fixed corpus, prewarmed, so every measured request is a
// cache hit. Every response is byte-compared with the in-process reference.
class HitTraffic : public Traffic {
 public:
  // The cache answers every relabelling of a shape with the tail rendered
  // for the instance that first filled it, and the heuristic rungs are not
  // relabelling-invariant (hebrard's makespan on a relabelled n=1000
  // instance can differ by a unit or two). So the prewarm sends only each
  // shape's representative, and every variant's reference is the
  // representative's in-process solve.
  explicit HitTraffic(std::uint64_t seed)
      : seed_(seed), corpus_(make_hit_corpus(seed)) {
    for (std::size_t i = 0; i < corpus_.size(); i += kHitVariants) {
      const msrs::engine::PortfolioResult result =
          reference_solve(corpus_[i].instance);
      const bool limited = !one_per_class_regime(corpus_[i].instance);
      for (int v = 0; v < kHitVariants; ++v) {
        tails_.push_back(msrs::serve::solve_response_tail(result));
        ratios_.push_back(result.ratio_vs_bound);
        limited_.push_back(limited);
      }
    }
  }
  void begin(Phase phase, int round) override {
    phase_ = phase;
    salt_ = 10 + 2 * static_cast<std::uint64_t>(round) +
            (phase == Phase::kLatency ? 1 : 0);
    counter_ = 0;
  }
  bool next(int, std::uint64_t id, bool closing, std::string* line,
            std::uint64_t* item) override {
    if (closing) return false;
    if (phase_ == Phase::kPrewarm) {
      if (counter_ * kHitVariants == corpus_.size()) return false;
      *item = kHitVariants * counter_++;
    } else {
      *item = hit_pick(seed_, salt_, counter_++, corpus_.size());
    }
    *line = solve_line(id, corpus_[*item].quoted);
    return true;
  }
  bool check(int, std::uint64_t item, std::uint64_t, std::string&& response,
             double* ratio) override {
    // The id prefix is checked by the caller; the rest must be the
    // reference tail byte for byte.
    *ratio = ratios_[item];
    const std::size_t comma = response.find(',');
    return comma != std::string::npos &&
           response.compare(comma, std::string::npos, tails_[item]) == 0 &&
           (!limited_[item] || ratios_[item] <= 1.5 + 1e-9);
  }

 private:
  std::uint64_t seed_;
  std::vector<SolveInput> corpus_;
  std::vector<std::string> tails_;
  std::vector<double> ratios_;
  std::vector<bool> limited_;
  Phase phase_ = Phase::kPrewarm;
  std::uint64_t salt_ = 0;
  std::uint64_t counter_ = 0;
};

// cold_mix: every request a distinct instance. Each response must be ok,
// valid and within 3/2 of T; every kSampleEvery-th one is also
// byte-compared with an in-process portfolio run after the rounds. Each
// round's fresh server has an empty cache, so every round replays the
// same pools.
class ColdTraffic : public Traffic {
 public:
  static constexpr std::size_t kSampleEvery = 16;

  ColdTraffic(std::uint64_t seed, std::size_t throughput_pool,
              std::size_t latency_pool) {
    pools_[0] = make_cold_pool(seed, 20, 128);
    pools_[1] = make_cold_pool(seed, 21, throughput_pool);
    pools_[2] = make_cold_pool(seed, 22, latency_pool);
  }
  void begin(Phase phase, int) override {
    phase_ = static_cast<int>(phase);
    counter_ = 0;
  }
  bool next(int, std::uint64_t id, bool closing, std::string* line,
            std::uint64_t* item) override {
    const std::vector<SolveInput>& pool = pools_[phase_];
    if (closing || counter_ == pool.size()) return false;
    *item = counter_++;
    *line = solve_line(id, pool[*item].quoted);
    return true;
  }
  bool exhausted() const { return counter_ == pools_[phase_].size(); }
  bool check(int, std::uint64_t item, std::uint64_t, std::string&& response,
             double* ratio) override {
    const SolveInput& input = pools_[phase_][item];
    const std::optional<double> got = json_number(response, "ratio");
    *ratio = got.value_or(-1.0);
    if (response.find("\"ok\":true") == std::string::npos ||
        response.find("\"valid\":true") == std::string::npos || !got)
      return false;
    if (!one_per_class_regime(input.instance) && *got > 1.5 + 1e-9)
      return false;
    if (item % kSampleEvery != 0) return true;
    // Rounds reuse the pools on fresh servers: a repeat must be answered
    // with the same bytes, and is byte-compared with the reference once.
    const std::string tail = response.substr(response.find(','));
    const auto [it, inserted] = samples_.emplace(&input, tail);
    return inserted || it->second == tail;
  }
  std::uint64_t finish() override {
    std::uint64_t failed = 0;
    for (const auto& [input, tail] : samples_)
      if (tail != msrs::serve::solve_response_tail(
                      reference_solve(input->instance)))
        ++failed;
    return failed;
  }
  std::size_t sampled() const { return samples_.size(); }

 private:
  std::vector<SolveInput> pools_[3];
  int phase_ = 0;
  std::size_t counter_ = 0;
  std::map<const SolveInput*, std::string> samples_;  // sampled tails
};

// session_churn: each connection replays its churn pass (open, trace,
// close) in a loop under fresh session names; every response is checked
// against the replayed job table and every snapshot against a fresh
// portfolio run on the materialised instance.
class SessionTraffic : public Traffic {
 public:
  explicit SessionTraffic(std::uint64_t seed) {
    for (int c = 0; c < kConns; ++c)
      for (int t = 0; t < kChurnTraces; ++t)
        scripts_[c].push_back(make_churn_script(seed, c, t));
  }
  void begin(Phase phase, int) override {
    phase_ = phase;
    for (int& passes : passes_) passes = 0;
  }
  bool next(int conn, std::uint64_t id, bool closing, std::string* line,
            std::uint64_t* item) override {
    State& state = state_[conn];
    if (closing) {
      if (state.script == nullptr || state.op == 0 ||
          state.op >= state.script->ops.size())
        return false;
      const ChurnScript& script = *state.script;
      state.op = script.ops.size();
    } else {
      if (state.script == nullptr || state.op >= state.script->ops.size()) {
        // Prewarm replays one pass per connection; the phases loop.
        if (phase_ == Phase::kPrewarm && passes_[conn] == 1) return false;
        ++passes_[conn];
        state.script = &scripts_[conn][state.pass % kChurnTraces];
        state.op = 0;
        state.session = session_name(conn, state.pass++);
      }
    }
    const ChurnScript& script = *state.script;
    const std::size_t op = closing ? script.ops.size() - 1 : state.op++;
    *item = (state.pass - 1) << 16 | op;
    *line = session_line(id, state.session, script, script.ops[op]);
    return true;
  }
  bool check(int conn, std::uint64_t item, std::uint64_t id,
             std::string&& response, double* ratio) override {
    std::string code;
    *ratio = -1.0;
    const std::uint64_t pass = item >> 16;
    const ChurnScript& script = scripts_[conn][pass % kChurnTraces];
    const bool ok = check_session_response(
        response, id, session_name(conn, pass), script,
        script.ops[item & 0xffff], ratio, &code);
    if (code == "unknown_job" || code == "unknown_session")
      guard_ = "churn replay got a " + code + " error";
    return ok;
  }
  std::string guard() const override { return guard_; }

 private:
  struct State {
    const ChurnScript* script = nullptr;  // trace of the current pass
    std::size_t op = 0;
    std::uint64_t pass = 0;
    std::string session;
  };
  std::vector<ChurnScript> scripts_[kConns];
  State state_[kConns];
  Phase phase_ = Phase::kPrewarm;
  int passes_[kConns] = {};
  std::string guard_;
};

struct Pending {
  std::uint64_t id = 0;
  std::uint64_t item = 0;
  bool timed = false;      // a latency-phase request: its latency counts
  Clock::time_point sent;  // when it was handed to the socket
};

struct PhaseResult {
  std::uint64_t sent = 0;
  std::uint64_t failed = 0;
  std::vector<std::uint64_t> ok_per_window;  // closed loop, kWindows
  std::vector<double> latency_us;
  std::vector<double> ratios;
  std::string first_failure;
};

// The client side of one phase: two connections, their outstanding
// requests, and the response bookkeeping.
class Driver {
 public:
  Driver(Conn* conns, Traffic* traffic, int round)
      : conns_(conns), traffic_(traffic), round_(round) {}

  // Closed loop: keeps `window` requests outstanding per connection until
  // `seconds` pass (or the inputs run out), then drains.
  PhaseResult closed(Phase phase, double seconds, int window) {
    begin(phase);
    const Clock::time_point start = Clock::now();
    start_ = start;
    span_s_ = seconds;
    result_.ok_per_window.assign(kWindows, 0);
    counting_ = true;
    const Clock::time_point deadline =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(seconds));
    bool sending = true;
    for (int c = 0; c < kConns; ++c)
      while (static_cast<int>(pending_[c].size()) < window && send(c))
        ;
    while (any_pending() || sending) {
      const Clock::time_point now = Clock::now();
      if (sending && (now >= deadline || !any_pending())) {
        sending = false;
        counting_ = false;
        close_state();
      }
      if (!any_pending()) break;
      if (!poll_once(sending ? deadline : now + drain_, sending, window))
        break;
      if (!sending && Clock::now() > deadline + drain_) break;
    }
    return end();
  }

  // Serial closed loop: `count` requests one at a time, alternating
  // connections, each timed from its send to its response.
  PhaseResult serial(Phase phase, std::uint64_t count) {
    begin(phase);
    const auto answered = [this] {
      const Clock::time_point until = Clock::now() + drain_;
      while (any_pending())
        if (Clock::now() > until || !poll_once(until, false, 0)) return false;
      return true;
    };
    for (std::uint64_t i = 0; i < count; ++i)
      if (!send(static_cast<int>(i % kConns), /*timed=*/true) || !answered())
        break;
    close_state();
    answered();
    return end();
  }

 private:
  void begin(Phase phase) {
    traffic_->begin(phase, round_);
    result_ = PhaseResult{};
    counting_ = false;
    for (auto& p : pending_) p.clear();
  }

  PhaseResult end() {
    for (int c = 0; c < kConns; ++c) {
      if (!pending_[c].empty()) fail("unanswered request");
      result_.failed += pending_[c].size();
      pending_[c].clear();
    }
    return std::move(result_);
  }

  bool any_pending() const {
    for (const auto& p : pending_)
      if (!p.empty()) return true;
    return false;
  }

  void fail(const std::string& why) {
    if (result_.first_failure.empty()) result_.first_failure = why;
  }

  bool send(int conn, bool timed = false, bool closing = false) {
    std::string line;
    Pending pending;
    pending.id = next_id_++;
    pending.timed = timed;
    if (!traffic_->next(conn, pending.id, closing, &line, &pending.item))
      return false;
    ++result_.sent;
    pending.sent = Clock::now();
    if (!conns_[conn].send(line)) {
      ++result_.failed;
      fail("transport failure on send");
      return false;
    }
    pending_[conn].push_back(pending);
    return true;
  }

  // Sends whatever ends per-connection state (session closes).
  void close_state() {
    for (int c = 0; c < kConns; ++c) send(c, false, true);
  }

  // Waits for socket events until `until`; handles responses and, in the
  // closed loop, refills each connection's window.
  bool poll_once(Clock::time_point until, bool sending, int window) {
    pollfd fds[kConns];
    for (int c = 0; c < kConns; ++c)
      fds[c] = {conns_[c].fd(),
                static_cast<short>(POLLIN |
                                   (conns_[c].want_write() ? POLLOUT : 0)),
                0};
    const auto wait = std::max(until - Clock::now(), Clock::duration::zero());
    timespec timeout{};
    timeout.tv_sec = static_cast<time_t>(
        std::chrono::duration_cast<std::chrono::seconds>(wait).count());
    timeout.tv_nsec = static_cast<long>(
        (wait - std::chrono::seconds(timeout.tv_sec)).count());
    if (::ppoll(fds, kConns, &timeout, nullptr) < 0 && errno != EINTR)
      return false;
    const Clock::time_point now = Clock::now();
    for (int c = 0; c < kConns; ++c) {
      if ((fds[c].revents & POLLOUT) && !conns_[c].flush()) {
        fail("transport failure on write");
        return false;
      }
      if (!(fds[c].revents & (POLLIN | POLLHUP | POLLERR))) continue;
      lines_.clear();
      const bool open = conns_[c].read_lines(&lines_);
      for (std::string& line : lines_) respond(c, std::move(line), now);
      if (!open) {
        fail("connection closed by the server");
        return false;
      }
      if (sending)
        while (static_cast<int>(pending_[c].size()) < window &&
               send(c))
          ;
    }
    return true;
  }

  void respond(int conn, std::string&& line, Clock::time_point now) {
    if (pending_[conn].empty()) {
      ++result_.failed;
      fail("response without a request");
      return;
    }
    const Pending pending = pending_[conn].front();
    pending_[conn].pop_front();
    double ratio = -1.0;
    const bool ok = starts_with(line, id_prefix(pending.id) + ",") &&
                    traffic_->check(conn, pending.item, pending.id, std::move(line),
                                    &ratio);
    if (!ok) {
      ++result_.failed;
      fail("response " + std::to_string(pending.id) + " failed its check");
      return;
    }
    if (ratio >= 0.0) result_.ratios.push_back(ratio);
    if (pending.timed) {
      result_.latency_us.push_back(us_between(pending.sent, now));
    } else if (counting_) {
      const auto w = static_cast<std::size_t>(
          std::chrono::duration<double>(now - start_).count() / span_s_ *
          kWindows);
      ++result_.ok_per_window[std::min<std::size_t>(w, kWindows - 1)];
    }
  }

  Conn* conns_;
  Traffic* traffic_;
  int round_;
  std::deque<Pending> pending_[kConns];
  std::vector<std::string> lines_;
  PhaseResult result_;
  bool counting_ = false;    // closed loop, before its deadline
  Clock::time_point start_;  // phase start (windows are relative to it)
  double span_s_ = 1.0;      // closed-loop phase length
  std::uint64_t next_id_ = 1;
  const Clock::duration drain_ = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(kDrainSeconds));
};

std::optional<std::pair<double, double>> cache_counts(Conn& conn) {
  std::string response;
  if (!conn.roundtrip("{\"id\":\"stats\",\"op\":\"stats\"}", &response, 10000))
    return std::nullopt;
  const auto hits = json_number(response, "cache_hits");
  const auto misses = json_number(response, "cache_misses");
  if (!hits || !misses) return std::nullopt;
  return std::make_pair(*hits, *misses);
}

// One round's server: spawned, handshaken on every connection, prewarmed.
bool set_up(const Args& args, const CpuList& cpus, int round,
            Traffic* traffic, ServerProcess* server, Conn (&conns)[kConns]) {
  std::string error;
  if (!server->start(args, cpus, &error)) {
    std::fprintf(stderr, "perfbench: %s\n", error.c_str());
    return false;
  }
  for (Conn& conn : conns) {
    std::string response;
    if (!conn.connect(server->port(), &error) ||
        !conn.roundtrip("{\"id\":0,\"op\":\"version\"}", &response, 10000) ||
        json_number(response, "wire") != msrs::serve::kWireVersion) {
      std::fprintf(stderr, "perfbench: handshake failed: %s\n", error.c_str());
      return false;
    }
  }
  Driver prewarm(conns, traffic, round);
  const PhaseResult warm = prewarm.closed(Phase::kPrewarm, 1e9, kInFlight);
  if (warm.failed > 0) {
    std::fprintf(stderr, "perfbench: prewarm failed: %s\n",
                 warm.first_failure.c_str());
    return false;
  }
  return true;
}

int run(const Args& args) {
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  // On a shared VM, a wake-up of an idle vCPU waits on the host's
  // scheduler, and that wait changes with the host's load. The generator
  // and each server thread keep a CPU of their own; in the latency phase
  // they all share one, which then stays busy from one request to the next
  // (README.md).
  const Placement placement = plan_placement();
  pin_thread(0, placement.client);
  CpuList usable = placement.server;
  usable.insert(usable.end(), placement.client.begin(), placement.client.end());
  const double phase_s = args.seconds / (2.0 * kRounds);
  const auto latency_count = static_cast<std::uint64_t>(
      std::llround(latency_rate(args.workload) * phase_s));

  // Inputs and references: a pure function of the seed, built untimed.
  std::unique_ptr<Traffic> traffic;
  ColdTraffic* cold = nullptr;
  switch (args.workload) {
    case Workload::kHitHeavy:
      traffic = std::make_unique<HitTraffic>(args.seed);
      break;
    case Workload::kColdMix: {
      // The throughput pool is sized for about three times the measured
      // cold throughput; running out is a guard failure.
      constexpr double kColdPoolRps = 4000.0;
      auto owned = std::make_unique<ColdTraffic>(
          args.seed, static_cast<std::size_t>(kColdPoolRps * phase_s),
          latency_count);
      cold = owned.get();
      traffic = std::move(owned);
      break;
    }
    case Workload::kSessionChurn:
      traffic = std::make_unique<SessionTraffic>(args.seed);
      break;
  }

  std::vector<double> setup_s, window_rps, round_p50, rss_mb;
  std::vector<double> latency_us, ratios;  // latency phase, completion order
  std::uint64_t attempted = 0, failed = 0;
  double hits = 0.0, misses = 0.0;
  std::vector<std::string> guards;
  std::string first_failure;
  const auto guard = [&guards](const std::string& why) {
    if (std::find(guards.begin(), guards.end(), why) == guards.end())
      guards.push_back(why);
  };
  for (int round = 0; round < kRounds; ++round) {
    ServerProcess server;
    Conn conns[kConns];
    const Clock::time_point t0 = Clock::now();
    if (!set_up(args, placement.server, round, traffic.get(), &server, conns))
      return 1;
    setup_s.push_back(std::chrono::duration<double>(Clock::now() - t0).count());

    const auto before = cache_counts(conns[0]);
    Driver driver(conns, traffic.get(), round);
    // Round by round the latency phase moves over every CPU, so one vCPU
    // the host keeps busy moves a few round p50s, not their median.
    const CpuList latency_cpu =
        usable.empty() ? CpuList{}
                       : CpuList{usable[static_cast<std::size_t>(round) %
                                        usable.size()]};
    pin_thread(0, latency_cpu);
    if (!server.pin(latency_cpu)) guard("could not pin the server");
    const PhaseResult timed = driver.serial(Phase::kLatency, latency_count);
    // The peak after a fixed request list: the throughput phase's peak
    // grows with how many requests it gets through.
    rss_mb.push_back(server.peak_rss_mb());
    pin_thread(0, placement.client);
    if (!server.pin(placement.server)) guard("could not pin the server");
    const PhaseResult load =
        driver.closed(Phase::kThroughput, phase_s, kInFlight);
    if (cold != nullptr && cold->exhausted())
      guard("cold pool ran out during throughput");
    const auto after = cache_counts(conns[0]);
    for (Conn& conn : conns) conn.close();
    if (!server.stop()) guard("server did not exit cleanly");

    if (!before || !after) {
      guard("stats op failed");
    } else {
      hits += after->first - before->first;
      misses += after->second - before->second;
    }
    for (const PhaseResult* phase : {&load, &timed}) {
      attempted += phase->sent;
      failed += phase->failed;
      if (first_failure.empty()) first_failure = phase->first_failure;
    }
    std::vector<double> rates;
    for (const std::uint64_t ok : load.ok_per_window)
      rates.push_back(static_cast<double>(ok) / (phase_s / kWindows));
    window_rps.insert(window_rps.end(), rates.begin(), rates.end());
    latency_us.insert(latency_us.end(), timed.latency_us.begin(),
                      timed.latency_us.end());
    round_p50.push_back(quantile(timed.latency_us, 0.50));
    std::printf("round %d: setup %.4f s, p50 %.1f us, %.0f req/s (median "
                "window), peak RSS %.2f MB\n",
                round, setup_s.back(), round_p50.back(), median(rates),
                rss_mb.back());
    ratios.insert(ratios.end(), timed.ratios.begin(), timed.ratios.end());
  }
  failed += traffic->finish();

  const std::size_t windows = std::clamp<std::size_t>(
      latency_us.size() / kMinWindowSamples, 1, kMaxLatencyWindows);
  std::vector<double> window_p99;
  for (std::size_t w = 0; w < windows; ++w)
    window_p99.push_back(quantile(
        std::vector<double>(
            latency_us.begin() + static_cast<std::ptrdiff_t>(
                                     w * latency_us.size() / windows),
            latency_us.begin() + static_cast<std::ptrdiff_t>(
                                     (w + 1) * latency_us.size() / windows)),
        0.99));

  // Guards: a run that fails one is invalid, not a measurement.
  if (args.workload != Workload::kSessionChurn) {
    const double hit_ratio = hits + misses > 0 ? hits / (hits + misses) : 0.0;
    std::printf("service.hit_ratio %.6f (%.0f hits, %.0f misses)\n", hit_ratio,
                hits, misses);
    if (args.workload == Workload::kHitHeavy && hit_ratio < 0.99)
      guard("hit_ratio below 0.99 on hit_heavy");
    if (args.workload == Workload::kColdMix && hit_ratio > 0.01)
      guard("hit_ratio above 0.01 on cold_mix");
  }
  if (!traffic->guard().empty()) guard(traffic->guard());

  double ratio_sum = 0.0;
  for (const double r : ratios) ratio_sum += r;
  const double ratio_mean =
      ratios.empty() ? 0.0 : ratio_sum / static_cast<double>(ratios.size());

  std::printf("workload %s seed %llu: %llu requests, %llu failed "
              "(failed_share %.6f)\n",
              args.workload_name.c_str(),
              static_cast<unsigned long long>(args.seed),
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed),
              static_cast<double>(failed) /
                  static_cast<double>(std::max<std::uint64_t>(attempted, 1)));
  std::printf("%d rounds, each on a fresh server: %llu requests one at a "
              "time (server and generator on one of CPUs %s in turn), then "
              "%.2f s closed loop (%d conns x %d outstanding; server threads "
              "on CPUs %s, generator on CPU %s)\n",
              kRounds, static_cast<unsigned long long>(latency_count),
              cpu_text(usable).c_str(), phase_s, kConns, kInFlight,
              cpu_text(placement.server).c_str(),
              cpu_text(placement.client).c_str());
  std::printf("throughput: median of %zu window rates; latency: %zu "
              "samples, p50 the median of %zu round p50s\n",
              window_rps.size(), latency_us.size(), round_p50.size());
  // Printed, not a result metric: its spread over seeds on a shared VM is
  // wider than any usable bound (README.md).
  std::printf("latency_p99_us %.1f (median of %zu window p99s)\n",
              median(window_p99), window_p99.size());
  if (cold != nullptr)
    std::printf("byte-compared %zu sampled cold responses\n", cold->sampled());
  if (!first_failure.empty())
    std::printf("first failure: %s\n", first_failure.c_str());
  for (const std::string& why : guards)
    std::printf("INVALID RUN: %s\n", why.c_str());

  const std::vector<Metric> metrics = {
      {"throughput_rps", median(window_rps), "1/s"},
      {"latency_p50_us", median(round_p50), "us"},
      {"makespan_ratio_mean", ratio_mean, "ratio"},
      {"setup_s", median(setup_s), "s"},
      {"peak_rss_mb", median(rss_mb), "MB"},
  };
  for (const Metric& metric : metrics)
    std::printf("%-20s %14.4f %s\n", metric.name.c_str(), metric.value,
                metric.unit.c_str());
  print_result(failed == 0 && guards.empty(), attempted, failed, metrics);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  std::string error;
  if (!perfbench::parse_args(argc, argv, &args, &error)) {
    std::fprintf(stderr, "perfbench_load: %s\n", error.c_str());
    return 2;
  }
  return perfbench::run(args);
}
