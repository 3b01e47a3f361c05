#include "common.hpp"

#include <dirent.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sched.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <numeric>
#include <thread>

#include "core/instance_io.hpp"
#include "serve/service.hpp"
#include "serve/wire.hpp"
#include "sim/generator.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace perfbench {
namespace {

using msrs::Instance;
using msrs::Json;
using msrs::Time;

// An isomorphic copy with classes and the jobs inside each class permuted.
Instance relabel(const Instance& in, msrs::Rng& rng) {
  std::vector<int> classes(static_cast<std::size_t>(in.num_classes()));
  std::iota(classes.begin(), classes.end(), 0);
  rng.shuffle(classes);
  Instance out;
  out.set_machines(in.machines());
  for (const int c : classes) {
    std::vector<Time> sizes;
    for (const msrs::JobId j : in.class_jobs(c)) sizes.push_back(in.size(j));
    rng.shuffle(sizes);
    out.add_class(sizes);
  }
  return out;
}

Instance generate(msrs::Family family, int n, int m, std::uint64_t seed) {
  msrs::GeneratorSpec spec;
  spec.family = family;
  spec.jobs = n;
  spec.machines = m;
  spec.seed = seed;
  return msrs::generate(spec);
}

bool arg_number(const char* text, double* out) {
  char* end = nullptr;
  *out = std::strtod(text, &end);
  return end != text && *end == '\0';
}

}  // namespace

SolveInput solve_input(Instance instance) {
  SolveInput input;
  input.quoted = Json(msrs::to_text(instance)).str();
  input.instance = std::move(instance);
  return input;
}

double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

bool parse_args(int argc, char** argv, Args* args, std::string* error) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      *error = "missing value after " + flag;
      return false;
    }
    const char* value = argv[++i];
    double number = 0.0;
    if (flag == "--workload") {
      args->workload_name = value;
    } else if (flag == "--seed") {
      if (!arg_number(value, &number) || number < 0) {
        *error = "bad --seed";
        return false;
      }
      args->seed = static_cast<std::uint64_t>(number);
    } else if (flag == "--seconds") {
      if (!arg_number(value, &number) || number <= 0) {
        *error = "bad --seconds";
        return false;
      }
      args->seconds = number;
    } else if (flag == "--server") {
      args->server = value;
    } else if (flag == "--workdir") {
      args->workdir = value;
    } else {
      *error = "unknown flag " + flag;
      return false;
    }
  }
  if (args->workload_name == "hit_heavy") {
    args->workload = Workload::kHitHeavy;
  } else if (args->workload_name == "cold_mix") {
    args->workload = Workload::kColdMix;
  } else if (args->workload_name == "session_churn") {
    args->workload = Workload::kSessionChurn;
  } else {
    *error = "unknown --workload '" + args->workload_name +
             "' (hit_heavy, cold_mix, session_churn)";
    return false;
  }
  if (args->server.empty() || args->workdir.empty()) {
    *error = "--server and --workdir are required";
    return false;
  }
  return true;
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t state = seed ^ (salt * 0x9e3779b97f4a7c15ULL);
  msrs::splitmix64(state);
  return msrs::splitmix64(state);
}

msrs::engine::PortfolioOptions served_portfolio_options() {
  msrs::engine::PortfolioOptions options;
  options.budget_ms = msrs::serve::ServiceOptions{}.budget_ms;
  options.threads = 1;
  return options;
}

std::string solve_line(std::uint64_t id, const std::string& quoted) {
  std::string line = "{\"id\":";
  line += std::to_string(id);
  line += ",\"op\":\"solve\",\"instance\":";
  line += quoted;
  line += '}';
  return line;
}

bool one_per_class_regime(const Instance& instance) {
  return instance.machines() >= instance.num_classes();
}

std::vector<SolveInput> make_hit_corpus(std::uint64_t seed) {
  std::vector<SolveInput> corpus;
  const auto add_shape = [&](int shape, int n, int m) {
    const Instance base = generate(msrs::Family::kUniform, n, m,
                                   derive_seed(seed, 1000 + shape));
    msrs::Rng rng(derive_seed(seed, 2000 + shape));
    corpus.push_back(solve_input(base));
    for (int v = 1; v < kHitVariants; ++v)
      corpus.push_back(solve_input(relabel(base, rng)));
  };
  for (int s = 0; s < 64; ++s) add_shape(s, 32, 4);
  for (int s = 0; s < 8; ++s) add_shape(64 + s, 1000, 16);
  return corpus;
}

std::uint32_t hit_pick(std::uint64_t seed, std::uint64_t salt,
                       std::uint64_t index, std::size_t corpus_size) {
  std::uint64_t state = derive_seed(seed, salt) + index;
  return static_cast<std::uint32_t>(msrs::splitmix64(state) % corpus_size);
}

std::vector<SolveInput> make_cold_pool(std::uint64_t seed, std::uint64_t salt,
                                       std::size_t count) {
  static constexpr msrs::Family kFamilies[] = {
      msrs::Family::kUniform,        msrs::Family::kBimodal,
      msrs::Family::kHugeHeavy,      msrs::Family::kManySmallClasses,
      msrs::Family::kFewFatClasses,  msrs::Family::kAdversarialLpt,
      msrs::Family::kLemma9Tight,    msrs::Family::kSingleDominant,
      msrs::Family::kBoundary,
  };
  constexpr std::size_t kFamilyCount = std::size(kFamilies);
  // Stratified, so every stretch of the stream has the same mix: each
  // block of 50 holds 1 n=5000/m=64, 14 n=1000/m=16, 16 n=200/m=8 and 19
  // n=40/m=4 instances in a seeded order, and each size cycles through the
  // families. The n=5000 instances take most of a shard's time, so a
  // random count of them would decide a run's throughput.
  struct Size {
    int n, m, per_block;
  };
  static constexpr Size kSizes[] = {
      {5000, 64, 1}, {1000, 16, 14}, {200, 8, 16}, {40, 4, 19}};
  std::vector<int> block;
  for (int s = 0; s < 4; ++s) block.insert(block.end(), kSizes[s].per_block, s);
  const std::uint64_t stream = derive_seed(seed, salt);
  msrs::Rng rng(stream);
  std::size_t drawn[4] = {};
  std::vector<SolveInput> pool;
  pool.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    if (i % block.size() == 0) rng.shuffle(block);
    const Size& size = kSizes[block[i % block.size()]];
    std::size_t& k = drawn[block[i % block.size()]];
    const msrs::Family family = kFamilies[(stream + k++) % kFamilyCount];
    std::uint64_t state = stream + i;
    pool.push_back(solve_input(
        generate(family, size.n, size.m, msrs::splitmix64(state))));
  }
  return pool;
}

ChurnScript make_churn_script(std::uint64_t seed, int conn, int trace) {
  static constexpr const char* kTraces[] = {
      "poisson:events=300,classes=6,m=4,max=50,cancel=0.4,snap=4",
      "onoff:events=300,classes=5,m=3,max=40,cancel=0.45,snap=4,burst=8,"
      "blen=16",
  };
  ChurnScript script;
  script.spec = *msrs::parse_churn(kTraces[conn % 2]);
  script.spec.seed = derive_seed(
      seed, 3000 + static_cast<std::uint64_t>(conn * kChurnTraces + trace));
  const msrs::engine::PortfolioSolver portfolio(
      msrs::engine::SolverRegistry::default_registry(),
      served_portfolio_options());

  // Mirror of the session's job table: classes in creation order, jobs in
  // submission order — the materialisation order of engine/session.hpp.
  std::vector<int> class_order;  // class index by creation
  std::vector<bool> class_seen(static_cast<std::size_t>(script.spec.classes));
  struct Job {
    int cls;
    Time size;
    bool alive;
  };
  std::vector<Job> jobs;

  script.ops.push_back({SessionOp::Kind::kOpen});
  for (const msrs::ChurnEvent& event : msrs::generate_churn(script.spec)) {
    SessionOp op;
    switch (event.kind) {
      case msrs::ChurnEvent::Kind::kSubmit:
        op.kind = SessionOp::Kind::kSubmit;
        op.cls = event.cls;
        op.size = event.size;
        op.job = static_cast<std::int64_t>(jobs.size());
        jobs.push_back({event.cls, event.size, true});
        if (!class_seen[static_cast<std::size_t>(event.cls)]) {
          class_seen[static_cast<std::size_t>(event.cls)] = true;
          class_order.push_back(event.cls);
        }
        break;
      case msrs::ChurnEvent::Kind::kCancel:
        op.kind = SessionOp::Kind::kCancel;
        op.job = event.target;
        jobs[static_cast<std::size_t>(event.target)].alive = false;
        break;
      case msrs::ChurnEvent::Kind::kSnapshot: {
        op.kind = SessionOp::Kind::kSnapshot;
        Instance instance;
        instance.set_machines(script.spec.machines);
        SnapshotRef ref;
        ref.machines = script.spec.machines;
        for (const int cls : class_order) {
          std::vector<Time> sizes;
          for (const Job& job : jobs)
            if (job.alive && job.cls == cls) sizes.push_back(job.size);
          if (sizes.empty()) continue;
          instance.add_class(sizes);
          ref.jobs += sizes.size();
          ++ref.classes;
        }
        if (ref.jobs > 0) {
          const auto racers = portfolio.candidates(instance);
          if (std::any_of(racers.begin(), racers.end(), [](const auto* s) {
                return s->name() == "exact";
              })) {
            script.left_out.push_back(std::move(instance));
            continue;
          }
          const msrs::engine::PortfolioResult result =
              portfolio.solve(instance);
          ref.makespan = result.makespan;
          ref.t_bound = static_cast<std::int64_t>(result.t_bound);
          ref.guaranteed = !one_per_class_regime(instance);
        }
        op.snapshot = static_cast<int>(script.refs.size());
        script.refs.push_back(ref);
        script.snapshot_instances.push_back(std::move(instance));
        break;
      }
    }
    script.ops.push_back(op);
  }
  script.ops.push_back({SessionOp::Kind::kClose});
  return script;
}

std::string session_name(int conn, std::uint64_t pass) {
  return "s" + std::to_string(conn) + "-" + std::to_string(pass);
}

std::string session_line(std::uint64_t id, const std::string& session,
                         const ChurnScript& script, const SessionOp& op) {
  std::string line = "{\"id\":" + std::to_string(id) + ",\"op\":\"";
  switch (op.kind) {
    case SessionOp::Kind::kOpen:
      line += "open_session\",\"session\":\"" + session +
              "\",\"machines\":" + std::to_string(script.spec.machines);
      break;
    case SessionOp::Kind::kSubmit:
      line += "submit_job\",\"session\":\"" + session + "\",\"class\":\"k" +
              std::to_string(op.cls) + "\",\"size\":" +
              std::to_string(op.size);
      break;
    case SessionOp::Kind::kCancel:
      line += "cancel_job\",\"session\":\"" + session +
              "\",\"job\":" + std::to_string(op.job);
      break;
    case SessionOp::Kind::kSnapshot:
      line += "snapshot\",\"session\":\"" + session + "\"";
      break;
    case SessionOp::Kind::kClose:
      line += "close_session\",\"session\":\"" + session + "\"";
      break;
  }
  line += '}';
  return line;
}

bool check_session_response(const std::string& response, std::uint64_t id,
                            const std::string& session,
                            const ChurnScript& script, const SessionOp& op,
                            double* ratio, std::string* error_code) {
  const Json wire_id(static_cast<std::int64_t>(id));
  std::string expected;
  switch (op.kind) {
    case SessionOp::Kind::kOpen:
      expected = msrs::serve::session_response(wire_id, "open_session", session);
      break;
    case SessionOp::Kind::kClose:
      expected =
          msrs::serve::session_response(wire_id, "close_session", session);
      break;
    case SessionOp::Kind::kSubmit:
      expected = msrs::serve::submit_response(
          wire_id, session, static_cast<std::uint64_t>(op.job));
      break;
    case SessionOp::Kind::kCancel:
      expected = msrs::serve::cancel_response(
          wire_id, session, static_cast<std::uint64_t>(op.job));
      break;
    case SessionOp::Kind::kSnapshot:
      break;
  }
  if (!expected.empty() && response == expected) return true;

  const std::optional<Json> doc = msrs::json_parse(response);
  if (!doc || !doc->is_object()) return false;
  const Json* ok = doc->find("ok");
  if (ok == nullptr || !ok->is_bool() || !ok->as_bool()) {
    if (const Json* code = doc->find("error"); code && code->is_string())
      *error_code = code->as_string();
    return false;
  }
  if (op.kind != SessionOp::Kind::kSnapshot) return false;
  const auto number = [&](const char* key, double* out) {
    const Json* v = doc->find(key);
    if (v == nullptr || !v->is_number()) return false;
    *out = v->as_number();
    return true;
  };
  const SnapshotRef& ref = script.refs[static_cast<std::size_t>(op.snapshot)];
  double jobs = 0, classes = 0, machines = 0, makespan = 0, t_bound = 0;
  double got_ratio = 0;
  const Json* valid = doc->find("valid");
  if (!number("jobs", &jobs) || !number("classes", &classes) ||
      !number("machines", &machines) || !number("makespan", &makespan) ||
      !number("t_bound", &t_bound) || !number("ratio", &got_ratio) ||
      valid == nullptr || !valid->is_bool())
    return false;
  if (jobs != static_cast<double>(ref.jobs) ||
      classes != static_cast<double>(ref.classes) ||
      machines != static_cast<double>(ref.machines))
    return false;
  if (ref.jobs == 0) {
    *ratio = -1.0;
    return makespan == 0.0;
  }
  *ratio = got_ratio;
  if (!valid->as_bool() || makespan != ref.makespan ||
      t_bound != static_cast<double>(ref.t_bound))
    return false;
  return !ref.guaranteed || got_ratio <= 1.5 + 1e-9;
}

// ---- CPU placement --------------------------------------------------------

Placement plan_placement() {
  Placement placement;
  cpu_set_t set;
  CPU_ZERO(&set);
  if (::sched_getaffinity(0, sizeof set, &set) != 0) return placement;
  CpuList usable;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu)
    if (CPU_ISSET(cpu, &set)) usable.push_back(cpu);
  if (usable.size() < 2) return placement;
  placement.client = {usable.back()};
  placement.server.assign(usable.begin(), usable.end() - 1);
  return placement;
}

bool pin_thread(pid_t tid, const CpuList& cpus) {
  if (cpus.empty()) return true;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int cpu : cpus) CPU_SET(cpu, &set);
  return ::sched_setaffinity(tid, sizeof set, &set) == 0;
}

std::string cpu_text(const CpuList& cpus) {
  if (cpus.empty()) return "any";
  std::string text;
  for (std::size_t i = 0; i < cpus.size();) {
    std::size_t j = i;
    while (j + 1 < cpus.size() && cpus[j + 1] == cpus[j] + 1) ++j;
    if (!text.empty()) text += ',';
    text += std::to_string(cpus[i]);
    if (j > i) text += '-' + std::to_string(cpus[j]);
    i = j + 1;
  }
  return text;
}

// ---- ServerProcess --------------------------------------------------------

ServerProcess::~ServerProcess() { stop(); }

bool ServerProcess::pin(const CpuList& cpus) const {
  if (pid_ <= 0) return false;
  if (cpus.empty()) return true;
  const std::string dir = "/proc/" + std::to_string(pid_) + "/task";
  DIR* tasks = ::opendir(dir.c_str());
  if (tasks == nullptr) return false;
  std::vector<pid_t> tids;
  while (const dirent* entry = ::readdir(tasks))
    if (entry->d_name[0] != '.')
      tids.push_back(static_cast<pid_t>(std::atoi(entry->d_name)));
  ::closedir(tasks);
  // The main thread runs the event loop; the shards follow.
  std::sort(tids.begin(), tids.end());
  std::stable_partition(tids.begin(), tids.end(),
                        [this](pid_t tid) { return tid == pid_; });
  bool ok = true;
  for (std::size_t i = 0; i < tids.size(); ++i)
    ok = pin_thread(tids[i], {cpus[i % cpus.size()]}) && ok;
  return ok;
}

bool ServerProcess::start(const Args& args, const CpuList& cpus,
                          std::string* error) {
  static int spawn_count = 0;
  const std::string port_file = args.workdir + "/server-" +
                                std::to_string(::getpid()) + "-" +
                                std::to_string(spawn_count++) + ".port";
  std::remove(port_file.c_str());
  const std::string log_file = args.workdir + "/server.log";
  const std::string budget =
      "--budget=" + std::to_string(served_portfolio_options().budget_ms);
  const std::string port_flag = "--port-file=" + port_file;

  pid_ = ::fork();
  if (pid_ < 0) {
    *error = std::string("fork: ") + std::strerror(errno);
    return false;
  }
  if (pid_ == 0) {
    // The server must not outlive a benchmark that is killed.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    pin_thread(0, cpus);
    const int null_fd = ::open("/dev/null", O_RDONLY);
    const int log_fd =
        ::open(log_file.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
    if (null_fd >= 0) ::dup2(null_fd, STDIN_FILENO);
    if (log_fd >= 0) {
      ::dup2(log_fd, STDOUT_FILENO);
      ::dup2(log_fd, STDERR_FILENO);
    }
    ::execl(args.server.c_str(), args.server.c_str(), "serve",
            "--tcp=127.0.0.1:0", "--shards=2", budget.c_str(),
            port_flag.c_str(), static_cast<char*>(nullptr));
    ::_exit(127);
  }

  const Clock::time_point deadline = Clock::now() + std::chrono::seconds(30);
  while (Clock::now() < deadline) {
    int status = 0;
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      *error = "server exited during start-up (see " + log_file + ")";
      return false;
    }
    std::ifstream in(port_file);
    std::string text;
    if (in && std::getline(in, text) && !in.eof()) {
      const std::size_t colon = text.rfind(':');
      if (colon != std::string::npos) {
        port_ = static_cast<std::uint16_t>(
            std::strtoul(text.c_str() + colon + 1, nullptr, 10));
        std::remove(port_file.c_str());
        if (port_ != 0) {
          if (pin(cpus)) return true;
          *error = "could not pin the server's threads";
          stop();
          return false;
        }
      }
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  *error = "server did not report its port within 30 s";
  stop();
  return false;
}

double ServerProcess::peak_rss_mb() const {
  if (pid_ <= 0) return -1.0;
  std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0)
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  }
  return -1.0;
}

bool ServerProcess::stop() {
  if (pid_ <= 0) return true;
  ::kill(pid_, SIGTERM);
  int status = 0;
  const Clock::time_point deadline = Clock::now() + std::chrono::seconds(20);
  while (::waitpid(pid_, &status, WNOHANG) == 0) {
    if (Clock::now() > deadline) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, &status, 0);
      pid_ = -1;
      return false;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  pid_ = -1;
  return WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

// ---- Conn -----------------------------------------------------------------

Conn::~Conn() { close(); }

void Conn::close() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
}

bool Conn::connect(std::uint16_t port, std::string* error) {
  fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd_ < 0) {
    *error = std::string("socket: ") + std::strerror(errno);
    return false;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
      0) {
    *error = std::string("connect: ") + std::strerror(errno);
    close();
    return false;
  }
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  ::fcntl(fd_, F_SETFL, ::fcntl(fd_, F_GETFL) | O_NONBLOCK);
  return true;
}

bool Conn::send(const std::string& line) {
  out_ += line;
  out_ += '\n';
  return flush();
}

bool Conn::flush() {
  while (out_off_ < out_.size()) {
    const ssize_t n = ::send(fd_, out_.data() + out_off_,
                             out_.size() - out_off_, MSG_NOSIGNAL);
    if (n > 0) {
      out_off_ += static_cast<std::size_t>(n);
    } else if (n < 0 && errno == EINTR) {
      continue;
    } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      break;
    } else {
      return false;
    }
  }
  if (out_off_ == out_.size()) {
    out_.clear();
    out_off_ = 0;
  } else if (out_off_ > (1u << 20)) {
    out_.erase(0, out_off_);
    out_off_ = 0;
  }
  return true;
}

bool Conn::read_lines(std::vector<std::string>* lines) {
  char buffer[1 << 16];
  bool open = true;
  for (;;) {
    const ssize_t n = ::recv(fd_, buffer, sizeof buffer, 0);
    if (n > 0) {
      in_.append(buffer, static_cast<std::size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    open = false;  // EOF or error
    break;
  }
  std::size_t start = 0;
  for (std::size_t nl; (nl = in_.find('\n', start)) != std::string::npos;
       start = nl + 1)
    lines->emplace_back(in_, start, nl - start);
  in_.erase(0, start);
  return open;
}

bool Conn::roundtrip(const std::string& line, std::string* response,
                     int timeout_ms) {
  if (!send(line)) return false;
  const Clock::time_point deadline =
      Clock::now() + std::chrono::milliseconds(timeout_ms);
  std::vector<std::string> lines;
  while (lines.empty()) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                          deadline - Clock::now())
                          .count();
    if (left <= 0) return false;
    pollfd pfd{fd_, static_cast<short>(POLLIN | (want_write() ? POLLOUT : 0)),
               0};
    if (::poll(&pfd, 1, static_cast<int>(left)) < 0 && errno != EINTR)
      return false;
    if ((pfd.revents & POLLOUT) && !flush()) return false;
    if ((pfd.revents & (POLLIN | POLLHUP | POLLERR)) && !read_lines(&lines) &&
        lines.empty())
      return false;
  }
  *response = std::move(lines.front());
  return true;
}

std::optional<double> json_number(const std::string& text,
                                  const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const std::size_t at = text.find(needle);
  if (at == std::string::npos) return std::nullopt;
  const char* begin = text.c_str() + at + needle.size();
  char* end = nullptr;
  const double value = std::strtod(begin, &end);
  if (end == begin) return std::nullopt;
  return value;
}

// ---- results --------------------------------------------------------------

double quantile(std::vector<double> sample, double q) {
  if (sample.empty()) return 0.0;
  std::sort(sample.begin(), sample.end());
  return msrs::quantile_sorted(sample, q);
}

double median(std::vector<double> sample) {
  return quantile(std::move(sample), 0.5);
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  Json result = Json::object();
  result.set("correct", correct);
  result.set("attempted", static_cast<std::int64_t>(attempted));
  result.set("failed", static_cast<std::int64_t>(failed));
  Json values = Json::object();
  for (const Metric& metric : metrics) {
    Json entry = Json::object();
    entry.set("value", metric.value);
    entry.set("unit", metric.unit);
    values.set(metric.name, std::move(entry));
  }
  result.set("metrics", std::move(values));
  std::printf("%s\n", result.str().c_str());
  std::fflush(stdout);
}

}  // namespace perfbench
