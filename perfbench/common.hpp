// Shared pieces of the serving benchmark: command line, workload inputs
// (generated from the seed alone), the served child process, a POSIX TCP
// line connection, and the result line.
//
// Both programs (perfbench_load: end-to-end over TCP; perfbench_trace:
// in-process per-layer replay) build their inputs here, so a traced run
// replays exactly the requests an end-to-end run sends.
#pragma once

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/instance.hpp"
#include "engine/portfolio.hpp"
#include "sim/arrivals.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Microseconds from `a` to `b`.
double us_between(Clock::time_point a, Clock::time_point b);

enum class Workload { kHitHeavy, kColdMix, kSessionChurn };

/// Command line shared by both programs.
struct Args {
  Workload workload = Workload::kHitHeavy;
  std::string workload_name;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  std::string server;   ///< path of the built msrs_engine_cli
  std::string workdir;  ///< scratch directory inside the checkout
};

/// Parses `--workload W --seed N --seconds S --server PATH --workdir DIR`.
bool parse_args(int argc, char** argv, Args* args, std::string* error);

/// Derives an independent seed from (seed, salt).
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t salt);

/// Portfolio options of the served program: the service's default budget
/// (which the benchmark also passes to `serve`), one thread per race.
msrs::engine::PortfolioOptions served_portfolio_options();

/// One solve request's instance, with its JSON-quoted text for the wire.
struct SolveInput {
  msrs::Instance instance;
  std::string quoted;  ///< JSON string literal of the instance text
};

/// The solve input of `instance`.
SolveInput solve_input(msrs::Instance instance);

/// `{"id":<id>,"op":"solve","instance":<quoted>}`.
std::string solve_line(std::uint64_t id, const std::string& quoted);

/// True when m >= |C|: one_per_class is optimal and the 3/2 bound on the
/// Lemma-9 ratio does not apply.
bool one_per_class_regime(const msrs::Instance& instance);

// ---- hit_heavy ------------------------------------------------------------

inline constexpr int kHitVariants = 4;  ///< each shape + 3 relabellings

/// 64 shapes of uniform:n=32,m=4 and 8 of uniform:n=1000,m=16, each sent as
/// itself and 3 relabelled isomorphic variants (classes and jobs permuted).
std::vector<SolveInput> make_hit_corpus(std::uint64_t seed);

/// Index into the hit corpus of request `index` of the stream `salt`.
std::uint32_t hit_pick(std::uint64_t seed, std::uint64_t salt,
                       std::uint64_t index, std::size_t corpus_size);

// ---- cold_mix -------------------------------------------------------------

/// `count` distinct cold instances of the stream `salt`: nine families,
/// sizes n=40/m=4 (38%), n=200/m=8 (32%), n=1000/m=16 (28%) and
/// n=5000/m=64 (2%).
std::vector<SolveInput> make_cold_pool(std::uint64_t seed, std::uint64_t salt,
                                       std::size_t count);

// ---- session_churn --------------------------------------------------------

/// The expected body of one snapshot response (the `source` field is never
/// checked).
struct SnapshotRef {
  std::size_t jobs = 0;
  std::size_t classes = 0;
  int machines = 0;
  double makespan = 0.0;
  std::int64_t t_bound = 0;
  bool guaranteed = true;  ///< m < |C|: the 3/2 ratio bound applies
};

/// One session op of a pass.
struct SessionOp {
  enum class Kind { kOpen, kSubmit, kCancel, kSnapshot, kClose };
  Kind kind = Kind::kOpen;
  int cls = 0;               ///< kSubmit: class index
  std::int64_t size = 0;     ///< kSubmit
  std::int64_t job = -1;     ///< kSubmit: expected job id; kCancel: target
  int snapshot = -1;         ///< kSnapshot: index into ChurnScript::refs
};

/// One connection's session pass: open, the churn trace, close. Passes are
/// replayed in a loop under fresh session names, so session size stays
/// bounded.
struct ChurnScript {
  msrs::ChurnSpec spec;
  std::vector<SessionOp> ops;
  std::vector<SnapshotRef> refs;               ///< per snapshot, in order
  std::vector<msrs::Instance> snapshot_instances;  ///< materialised, in order
  std::vector<msrs::Instance> left_out;  ///< snapshots that would race exact
};

/// Distinct churn traces per connection; pass p replays trace p % this.
inline constexpr int kChurnTraces = 32;

/// Trace `trace` of connection `conn` (0: Poisson, 1: on/off), with every
/// snapshot's reference computed by a fresh portfolio run on the
/// materialised instance. Snapshot events whose instance would race
/// `exact` (n <= 10 over more classes than machines) are left out: its
/// branch-and-bound takes from 0.1 to over 100 ms on such instances, so a
/// few of them would decide a run's figures instead of the session layer.
ChurnScript make_churn_script(std::uint64_t seed, int conn, int trace);

/// The request line of `op` in session `session`.
std::string session_line(std::uint64_t id, const std::string& session,
                         const ChurnScript& script, const SessionOp& op);

/// Session name of pass `pass` on connection `conn`.
std::string session_name(int conn, std::uint64_t pass);

/// Checks a session op response: acknowledgements byte for byte against
/// the wire renderers, snapshots field by field against their reference.
/// On a snapshot, `*ratio` receives the response ratio (negative for an
/// empty session). `*error_code` receives the wire error name of an error
/// response.
bool check_session_response(const std::string& response, std::uint64_t id,
                            const std::string& session,
                            const ChurnScript& script, const SessionOp& op,
                            double* ratio, std::string* error_code);

// ---- CPU placement --------------------------------------------------------

/// A set of CPU numbers; empty means "wherever the scheduler likes".
using CpuList = std::vector<int>;

/// Where the load generator and the server run. With two or more usable
/// CPUs, the load generator takes the last one and the server the others;
/// with one, nothing is pinned.
struct Placement {
  CpuList client;
  CpuList server;
};

/// The placement over the CPUs this process may use.
Placement plan_placement();

/// Pins thread `tid` (0: the calling thread) to `cpus`; no-op when empty.
bool pin_thread(pid_t tid, const CpuList& cpus);

/// "0-2" style text of `cpus` ("any" when empty).
std::string cpu_text(const CpuList& cpus);

// ---- served child process -------------------------------------------------

/// `msrs_engine_cli serve --tcp=127.0.0.1:0 --shards=2` as a child process.
class ServerProcess {
 public:
  ServerProcess() = default;
  ~ServerProcess();
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  /// Spawns the server, waits until its port file names the port, and
  /// pins its threads to `cpus` (see pin()).
  bool start(const Args& args, const CpuList& cpus, std::string* error);
  /// Pins the server's threads in creation order (the event loop, then
  /// each shard) one to a CPU of `cpus`, wrapping around when there are
  /// more threads than CPUs; no-op when `cpus` is empty.
  bool pin(const CpuList& cpus) const;
  std::uint16_t port() const { return port_; }
  /// The child's peak resident set (VmHWM), in MiB; negative if unknown.
  double peak_rss_mb() const;
  /// SIGTERM (graceful drain), then waits; SIGKILL after 20 s. Idempotent.
  /// Returns true when the child exited with status 0.
  bool stop();

 private:
  pid_t pid_ = -1;
  std::uint16_t port_ = 0;
};

// ---- TCP line connection --------------------------------------------------

/// A non-blocking TCP connection framed by newlines.
class Conn {
 public:
  Conn() = default;
  ~Conn();
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  bool connect(std::uint16_t port, std::string* error);
  int fd() const { return fd_; }
  /// Queues one line (newline appended) and writes what the socket takes.
  bool send(const std::string& line);
  /// Writes queued bytes; false on a transport error.
  bool flush();
  bool want_write() const { return out_off_ < out_.size(); }
  /// Reads what is available and appends complete lines; false on EOF or a
  /// transport error.
  bool read_lines(std::vector<std::string>* lines);
  /// Blocking request/response for set-up and stats (one line in flight).
  bool roundtrip(const std::string& line, std::string* response,
                 int timeout_ms);
  void close();

 private:
  int fd_ = -1;
  std::string out_;
  std::size_t out_off_ = 0;
  std::string in_;
};

/// `"key":<number>` of a flat JSON response; nullopt when absent.
std::optional<double> json_number(const std::string& text,
                                  const std::string& key);

// ---- results --------------------------------------------------------------

/// Median of a sample (0 when empty).
double median(std::vector<double> sample);

/// Linear-interpolated quantile (0 when empty).
double quantile(std::vector<double> sample, double q);

/// One metric of the result line.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Prints the benchmark's last stdout line.
void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics);

}  // namespace perfbench
