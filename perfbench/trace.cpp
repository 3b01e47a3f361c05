// Traced run of the serving benchmark: replays a fixed prefix of one
// workload in-process from a single thread, timing each call into a layer's
// public functions, and prints the per-layer metrics.
//
// The prefix is the start of the workload's end-to-end request stream:
// hit_heavy's first kHitPrefix throughput-phase requests (after the same
// prewarm), cold_mix's first kColdPrefix throughput-phase instances, and
// one pass of each session_churn connection. Rounds over the prefix repeat
// until --seconds pass; every metric is a median over all rounds' samples
// (counts and shares are totals). Layers a workload's own traffic never
// enters are measured on a side probe: the session layer on the
// session_churn passes of the same seed, and a rung that never races on
// the prefix on those passes' snapshot instances (for `exact`, on the
// snapshots the end-to-end traffic leaves out).
#include <sched.h>

#include <algorithm>
#include <condition_variable>
#include <cstdio>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "algo/t_bound.hpp"
#include "common.hpp"
#include "core/instance_io.hpp"
#include "core/lower_bounds.hpp"
#include "core/validate.hpp"
#include "engine/batch.hpp"
#include "engine/registry.hpp"
#include "engine/session.hpp"
#include "perf/alloc.hpp"
#include "serve/service.hpp"
#include "serve/wire.hpp"
#include "util/json.hpp"

namespace perfbench {
namespace {

constexpr std::size_t kHitPrefix = 512;
constexpr std::size_t kColdPrefix = 160;
constexpr int kSessionPrefix = 4;  // passes per connection
constexpr int kPings = 2000;
constexpr std::size_t kQueueWindow = 32;  // 2 connections x 16 in flight

// The rungs the per-layer metrics name (the default registry minus eptas,
// which the default budget never races).
constexpr const char* kRungs[] = {
    "one_per_class", "exact",     "three_halves", "no_huge",
    "five_thirds",   "list_lpt",  "merge_lpt",    "hebrard",
};

template <typename Fn>
double time_us(Fn&& fn) {
  const Clock::time_point t0 = Clock::now();
  fn();
  return us_between(t0, Clock::now());
}

// Keeps timed results observable so no call is optimised away.
std::size_t g_sink = 0;

// One request of the prefix.
struct Request {
  std::string line;
  const SolveInput* solve = nullptr;  // solve requests
};

struct Prefix {
  std::vector<SolveInput> inputs;    // owned solve inputs
  std::vector<Request> requests;     // in replay order
  std::vector<std::string> warm;     // prewarm lines (hit: representatives)
  std::vector<ChurnScript> passes;   // session passes (side probe or own)
  std::vector<SolveInput> snapshots; // session snapshot instances as inputs
  bool hits = false;                 // served from the cache
};

Prefix make_prefix(const Args& args) {
  Prefix prefix;
  // The first passes of each connection, in the order the end-to-end run
  // opens them: pass p runs on connection p % 2.
  for (int p = 0; p < 2 * kSessionPrefix; ++p)
    prefix.passes.push_back(make_churn_script(args.seed, p % 2, p / 2));
  for (const ChurnScript& pass : prefix.passes)
    for (const msrs::Instance& instance : pass.snapshot_instances) {
      if (instance.num_jobs() > 0)
        prefix.snapshots.push_back(solve_input(instance));
    }
  std::uint64_t id = 1;
  switch (args.workload) {
    case Workload::kHitHeavy: {
      prefix.inputs = make_hit_corpus(args.seed);
      prefix.hits = true;
      for (std::size_t i = 0; i < prefix.inputs.size(); i += kHitVariants)
        prefix.warm.push_back(solve_line(id++, prefix.inputs[i].quoted));
      for (std::size_t i = 0; i < kHitPrefix; ++i) {
        const SolveInput& input =
            prefix.inputs[hit_pick(args.seed, 10, i, prefix.inputs.size())];
        prefix.requests.push_back({solve_line(id++, input.quoted), &input});
      }
      break;
    }
    case Workload::kColdMix:
      prefix.inputs = make_cold_pool(args.seed, 21, kColdPrefix);
      for (const SolveInput& input : prefix.inputs)
        prefix.requests.push_back({solve_line(id++, input.quoted), &input});
      break;
    case Workload::kSessionChurn:
      for (std::size_t p = 0; p < prefix.passes.size(); ++p) {
        const ChurnScript& script = prefix.passes[p];
        for (const SessionOp& op : script.ops)
          prefix.requests.push_back(
              {session_line(id++, session_name(static_cast<int>(p % 2), p / 2),
                            script, op)});
      }
      break;
  }
  return prefix;
}

class Tracer {
 public:
  Tracer(const Args& args, Prefix& prefix)
      : args_(args),
        prefix_(prefix),
        portfolio_(msrs::engine::SolverRegistry::default_registry(),
                   served_portfolio_options()),
        handle_on_(prefix.requests.size()),
        handle_off_(prefix.requests.size()),
        stages_(prefix.requests.size()) {}

  // Client and server share one CPU, as in the end-to-end latency phase.
  // Threads created later inherit this thread's CPUs, so they are restored.
  bool ping_probe(std::string* error) {
    const CpuList cpu = plan_placement().client;
    cpu_set_t before;
    CPU_ZERO(&before);
    ::sched_getaffinity(0, sizeof before, &before);
    pin_thread(0, cpu);
    const bool ok = ping_on(cpu, error);
    ::sched_setaffinity(0, sizeof before, &before);
    return ok;
  }

  bool ping_on(const CpuList& cpu, std::string* error) {
    ServerProcess server;
    Conn conn;
    if (!server.start(args_, cpu, error) || !conn.connect(server.port(), error))
      return false;
    std::string response;
    for (int i = 0; i < kPings; ++i) {
      const std::string line =
          "{\"id\":" + std::to_string(i) + ",\"op\":\"ping\"}";
      const Clock::time_point t0 = Clock::now();
      if (!conn.roundtrip(line, &response, 10000)) {
        *error = "ping failed";
        return false;
      }
      add("tcp.ping_rtt_us", us_between(t0, Clock::now()));
    }
    conn.close();
    server.stop();
    return true;
  }

  void round(int index) {
    const bool first = index == 0;
    stage_probe(first);
    // Alternate which recorder setting goes first, so drift over a run
    // does not bias obs.recorder_share.
    handle_probe(index % 2 == 0);
    handle_probe(index % 2 != 0);
    queue_probe();
    session_probe();
  }

  void report() const;

 private:
  void add(const std::string& name, double value) {
    samples_[name].push_back(value);
  }

  // Times each rung the portfolio races on `instance`; returns the sum.
  double time_rungs(const msrs::Instance& instance,
                    std::map<std::string, std::vector<double>>& into) {
    double total = 0.0;
    for (const msrs::engine::Solver* solver : portfolio_.candidates(instance)) {
      msrs::engine::SolverResult run;
      const double us = time_us([&] { run = solver->solve(instance); });
      total += us;
      into[std::string(solver->name())].push_back(us);
      g_sink += run.ok;
    }
    return total;
  }

  // Every layer below the service, called directly on one solve input.
  // Returns (hit path, miss path) stage time of the request.
  std::pair<double, double> solve_layers(const SolveInput& input,
                                         const std::string* line,
                                         bool count_allocs) {
    double parse = 0.0;
    std::string text;
    if (line != nullptr) {
      std::optional<msrs::serve::Request> request;
      parse = time_us([&] { request = msrs::serve::parse_request(*line); });
      add("wire.parse_us", parse);
      text = request->instance;
    } else {
      text = msrs::to_text(input.instance);
    }
    std::optional<msrs::Instance> instance;
    const double from_text = time_us([&] { instance = msrs::from_text(text); });
    add("instance_io.from_text_us", from_text);
    add("instance_io.from_text_ns_per_byte",
        from_text * 1000.0 / static_cast<double>(text.size()));
    msrs::engine::CanonicalForm form;
    const double canonical =
        time_us([&] { form = msrs::engine::canonical_form(*instance); });
    add("batch.canonical_form_us", canonical);
    g_sink += form.classes.size();

    msrs::engine::PortfolioResult result;
    const double race = time_us([&] { result = portfolio_.solve(*instance); });
    add("portfolio.race_us", race);
    const std::size_t racers = portfolio_.candidates(*instance).size();
    add("portfolio.self_us", race - time_rungs(*instance, rung_us_));
    candidates_ += racers;
    ++races_;
    for (const auto& attempt : result.attempts) invalid_ += !attempt.valid;
    attempts_ += result.attempts.size();
    ++wins_[result.solver];

    add("t_bound.us", time_us([&] { g_sink += msrs::three_halves_bound(*instance); }));
    add("lower_bounds.us",
        time_us([&] { g_sink += msrs::lower_bounds(*instance).combined; }));
    add("validate.us", time_us([&] {
          g_sink += msrs::validate(*instance, result.schedule).ok();
        }));
    const msrs::Json id(static_cast<std::int64_t>(7));
    std::string tail;
    std::string response;
    const double tail_us =
        time_us([&] { tail = msrs::serve::solve_response_tail(result); });
    const double compose_us =
        time_us([&] { response = msrs::serve::compose_response(id, tail); });
    add("wire.render_us", tail_us + compose_us);
    g_sink += response.size();

    if (count_allocs && line != nullptr) count_request_allocs(*instance, *line);
    const double front = parse + from_text + canonical;
    return {front + compose_us, front + race + tail_us + compose_us};
  }

  void stage_probe(bool first) {
    for (std::size_t i = 0; i < prefix_.requests.size(); ++i) {
      const Request& request = prefix_.requests[i];
      if (request.solve != nullptr) {
        const auto [hit, miss] =
            solve_layers(*request.solve, &request.line, first);
        stages_[i].push_back(prefix_.hits ? hit : miss);
      } else {
        std::optional<msrs::serve::Request> parsed;
        const double parse = time_us(
            [&] { parsed = msrs::serve::parse_request(request.line); });
        add("wire.parse_us", parse);
        parse_us_.push_back(parse);  // completed by session_probe()
      }
    }
    const bool session = args_.workload == Workload::kSessionChurn;
    // `exact` races only on the snapshots the end-to-end traffic leaves
    // out; its branch-and-bound can take 100 ms there, so once per run.
    if (first)
      for (const ChurnScript& pass : prefix_.passes)
        for (const msrs::Instance& instance : pass.left_out)
          time_rungs(instance, side_rung_us_);
    for (const SolveInput& input : prefix_.snapshots) {
      if (session) {
        solve_layers(input, nullptr, false);
      } else {
        time_rungs(input.instance, side_rung_us_);
      }
    }
    if (session && first) {
      // Session traffic sends no instance text: its allocation counts are
      // of the snapshot instances sent inline as solves.
      for (const SolveInput& input : prefix_.snapshots)
        count_request_allocs(input.instance, solve_line(7, input.quoted));
    }
  }

  // Allocations of the calls the service makes on the calling path of a
  // hit, and of a miss (which adds the race and the tail render), for one
  // solve line; deterministic.
  void count_request_allocs(const msrs::Instance& instance,
                            const std::string& line) {
    const msrs::Json id(static_cast<std::int64_t>(7));
    const std::string tail =
        msrs::serve::solve_response_tail(portfolio_.solve(instance));
    const std::uint64_t shared = msrs::perf::count_allocs([&] {
      auto request = msrs::serve::parse_request(line);
      auto parsed = msrs::from_text(request->instance);
      g_sink += msrs::engine::canonical_form(*parsed).key;
    });
    const std::uint64_t hit = msrs::perf::count_allocs(
        [&] { g_sink += msrs::serve::compose_response(id, tail).size(); });
    const std::uint64_t miss = msrs::perf::count_allocs([&] {
      g_sink += msrs::serve::compose_response(
                    id, msrs::serve::solve_response_tail(
                            portfolio_.solve(instance)))
                    .size();
    });
    allocs_hit_.push_back(static_cast<double>(shared + hit));
    allocs_miss_.push_back(static_cast<double>(shared + miss));
  }

  msrs::serve::ServiceOptions service_options(unsigned shards,
                                              bool recorder) const {
    msrs::serve::ServiceOptions options;
    options.shards = shards;
    if (!recorder) options.recorder_events = 0;
    return options;
  }

  // Service::handle with one shard: the whole service path of each request.
  void handle_probe(bool recorder) {
    msrs::serve::Service service(service_options(1, recorder));
    for (const std::string& line : prefix_.warm) service.handle(line);
    auto& out = recorder ? handle_on_ : handle_off_;
    for (std::size_t i = 0; i < prefix_.requests.size(); ++i) {
      const std::string& line = prefix_.requests[i].line;
      out[i].push_back(time_us([&] { g_sink += service.handle(line).size(); }));
    }
  }

  // The prefix through a two-shard service with kQueueWindow requests in
  // flight, as the end-to-end run keeps them; queue wait, placement and
  // hit ratio come from the service's own `stats` op.
  void queue_probe() {
    msrs::serve::Service service(service_options(2, true));
    for (const std::string& line : prefix_.warm) service.handle(line);
    const std::optional<msrs::Json> before =
        msrs::json_parse(service.handle("{\"op\":\"stats\"}"));
    std::mutex mutex;
    std::condition_variable cv;
    std::size_t in_flight = 0;
    // Hit requests are cheap: replay them several times so the windowed
    // traffic dominates the prewarm in the cumulative histograms.
    const int repeats = prefix_.hits ? 4 : 1;
    for (int r = 0; r < repeats; ++r)
      for (const Request& request : prefix_.requests) {
        {
          std::unique_lock<std::mutex> lock(mutex);
          cv.wait(lock, [&] { return in_flight < kQueueWindow; });
          ++in_flight;
        }
        service.submit(request.line, [&](std::string&&) {
          {
            std::lock_guard<std::mutex> lock(mutex);
            --in_flight;
          }
          cv.notify_all();
        });
      }
    {
      std::unique_lock<std::mutex> lock(mutex);
      cv.wait(lock, [&] { return in_flight == 0; });
    }
    const std::optional<msrs::Json> after =
        msrs::json_parse(service.handle("{\"op\":\"stats\"}"));
    if (!before || !after) return;
    const auto number = [](const msrs::Json& doc, const char* key) {
      const msrs::Json* v = doc.find(key);
      return v != nullptr && v->is_number() ? v->as_number() : 0.0;
    };
    if (const msrs::Json* latency = after->find("latency"))
      if (const msrs::Json* queue = latency->find("queue")) {
        add("service.queue_wait_p50_us", number(*queue, "p50_us"));
        add("service.queue_wait_p99_us", number(*queue, "p99_us"));
      }
    const double hits =
        number(*after, "cache_hits") - number(*before, "cache_hits");
    const double misses =
        number(*after, "cache_misses") - number(*before, "cache_misses");
    add("service.hit_ratio", hits + misses > 0 ? hits / (hits + misses) : 0.0);
    const msrs::Json* served_before = before->find("shard_requests");
    const msrs::Json* served_after = after->find("shard_requests");
    if (served_before != nullptr && served_after != nullptr) {
      std::vector<double> served;
      for (std::size_t s = 0; s < served_after->items().size(); ++s)
        served.push_back(served_after->items()[s].as_number() -
                         served_before->items()[s].as_number());
      double total = 0.0;
      for (const double v : served) total += v;
      const double mean = total / static_cast<double>(served.size());
      add("service.shard_skew",
          mean > 0 ? *std::max_element(served.begin(), served.end()) / mean
                   : 0.0);
    }
  }

  // The session layer: both passes against a fresh SessionEngine each, as
  // the service's shard worker runs them.
  void session_probe() {
    msrs::engine::SessionOptions options;
    options.portfolio = served_portfolio_options();
    options.cache_capacity = msrs::serve::ServiceOptions{}.session_cache;
    const bool own = args_.workload == Workload::kSessionChurn;
    std::size_t request = 0;
    for (const ChurnScript& script : prefix_.passes) {
      std::optional<msrs::engine::SessionEngine> session;
      for (const SessionOp& op : script.ops) {
        double us = 0.0;
        switch (op.kind) {
          case SessionOp::Kind::kOpen:
            us = time_us([&] {
              session.emplace(script.spec.machines,
                              msrs::engine::SolverRegistry::default_registry(),
                              options);
            });
            break;
          case SessionOp::Kind::kSubmit:
            us = time_us([&] {
              g_sink += session->submit("k" + std::to_string(op.cls), op.size);
            });
            add("session.submit_us", us);
            break;
          case SessionOp::Kind::kCancel:
            us = time_us([&] {
              g_sink += session->cancel(static_cast<std::uint64_t>(op.job));
            });
            add("session.cancel_us", us);
            break;
          case SessionOp::Kind::kSnapshot:
            us = time_us([&] { g_sink += session->snapshot().result.valid; });
            add("session.snapshot_us", us);
            break;
          case SessionOp::Kind::kClose:
            repairs_ += session->stats().repairs;
            snapshots_ += session->stats().snapshots;
            us = time_us([&] { session.reset(); });
            break;
        }
        if (own) {
          stages_[request].push_back(parse_us_[parse_us_.size() -
                                               prefix_.requests.size() +
                                               request] +
                                     us);
          ++request;
        }
      }
    }
  }

  const Args& args_;
  Prefix& prefix_;
  msrs::engine::PortfolioSolver portfolio_;
  std::map<std::string, std::vector<double>> samples_;
  std::map<std::string, std::vector<double>> rung_us_, side_rung_us_;
  std::map<std::string, std::size_t> wins_;
  std::size_t races_ = 0, candidates_ = 0, attempts_ = 0, invalid_ = 0;
  std::size_t repairs_ = 0, snapshots_ = 0;
  std::vector<double> allocs_hit_, allocs_miss_;
  std::vector<double> parse_us_;  // session ops' parse time, by request
  // Per request, one sample per round.
  std::vector<std::vector<double>> handle_on_, handle_off_, stages_;
};

void Tracer::report() const {
  std::vector<Metric> metrics;
  std::vector<std::size_t> counts;
  const auto put = [&](const std::string& name, double value,
                       const char* unit, std::size_t n) {
    metrics.push_back({name, value, unit});
    counts.push_back(n);
  };
  const auto med = [&](const char* name, const char* unit) {
    const auto it = samples_.find(name);
    const std::vector<double> empty;
    const std::vector<double>& sample = it == samples_.end() ? empty : it->second;
    put(name, median(sample), unit, sample.size());
  };
  // Per request, the median over rounds; then summed over the prefix.
  const auto per_request_sum = [](const std::vector<std::vector<double>>& v) {
    double total = 0.0;
    for (const auto& rounds : v) total += median(rounds);
    return total;
  };

  med("tcp.ping_rtt_us", "us");
  med("wire.parse_us", "us");
  med("wire.render_us", "us");
  med("instance_io.from_text_us", "us");
  med("instance_io.from_text_ns_per_byte", "ns/B");
  med("batch.canonical_form_us", "us");
  std::vector<double> handle;
  for (const auto& rounds : handle_on_) handle.insert(handle.end(), rounds.begin(), rounds.end());
  put("service.handle_us", median(handle), "us", handle.size());
  med("service.queue_wait_p50_us", "us");
  med("service.queue_wait_p99_us", "us");
  med("service.shard_skew", "ratio");
  med("service.hit_ratio", "ratio");
  const auto mean = [](const std::vector<double>& v) {
    double total = 0.0;
    for (const double x : v) total += x;
    return v.empty() ? 0.0 : total / static_cast<double>(v.size());
  };
  put("service.allocs_per_hit", mean(allocs_hit_), "count", allocs_hit_.size());
  put("service.allocs_per_miss", mean(allocs_miss_), "count",
      allocs_miss_.size());
  med("portfolio.race_us", "us");
  med("portfolio.self_us", "us");
  put("portfolio.candidates",
      races_ > 0 ? static_cast<double>(candidates_) / static_cast<double>(races_) : 0.0,
      "count", races_);
  put("portfolio.invalid_share",
      attempts_ > 0 ? static_cast<double>(invalid_) / static_cast<double>(attempts_) : 0.0,
      "ratio", attempts_);
  for (const char* rung : kRungs) {
    const auto own = rung_us_.find(rung);
    const auto side = side_rung_us_.find(rung);
    const std::vector<double> empty;
    const std::vector<double>& sample =
        own != rung_us_.end() ? own->second
        : side != side_rung_us_.end() ? side->second
                                      : empty;
    put(std::string("algo.") + rung + ".solve_us", median(sample), "us",
        sample.size());
  }
  for (const char* rung : kRungs) {
    const auto it = wins_.find(rung);
    const std::size_t wins = it == wins_.end() ? 0 : it->second;
    put(std::string("algo.") + rung + ".win_share",
        races_ > 0 ? static_cast<double>(wins) / static_cast<double>(races_) : 0.0,
        "ratio", races_);
  }
  med("t_bound.us", "us");
  med("lower_bounds.us", "us");
  med("validate.us", "us");
  med("session.submit_us", "us");
  med("session.cancel_us", "us");
  med("session.snapshot_us", "us");
  put("session.repair_share",
      snapshots_ > 0 ? static_cast<double>(repairs_) / static_cast<double>(snapshots_) : 0.0,
      "ratio", snapshots_);
  const double on = per_request_sum(handle_on_);
  const double off = per_request_sum(handle_off_);
  put("obs.recorder_share", on > 0 ? (on - off) / on : 0.0, "ratio",
      handle_on_.size());
  put("anatomy.unexplained_share",
      on > 0 ? 1.0 - per_request_sum(stages_) / on : 0.0, "ratio",
      stages_.size());

  std::printf("%-36s %14s %9s\n", "metric", "value", "samples");
  for (std::size_t i = 0; i < metrics.size(); ++i)
    std::printf("%-36s %14.4f %9zu %s\n", metrics[i].name.c_str(),
                metrics[i].value, counts[i], metrics[i].unit.c_str());
  const auto hit_ratio = samples_.find("service.hit_ratio");
  const double ratio =
      hit_ratio == samples_.end() ? 0.0 : median(hit_ratio->second);
  bool correct = true;
  if (args_.workload == Workload::kHitHeavy && ratio < 0.99) correct = false;
  if (args_.workload == Workload::kColdMix && ratio > 0.01) correct = false;
  if (!correct) std::printf("INVALID RUN: service.hit_ratio outside its band\n");
  print_result(correct, prefix_.requests.size(), 0, metrics);
}

int run(const Args& args) {
  Prefix prefix = make_prefix(args);
  Tracer tracer(args, prefix);
  const Clock::time_point start = Clock::now();
  std::string error;
  if (!tracer.ping_probe(&error)) {
    std::fprintf(stderr, "perfbench_trace: %s\n", error.c_str());
    return 1;
  }
  int rounds = 0;
  do {
    tracer.round(rounds++);
  } while (std::chrono::duration<double>(Clock::now() - start).count() <
           args.seconds);
  std::printf("traced run: %d rounds over a prefix of %zu requests "
              "(sink %zu)\n",
              rounds, prefix.requests.size(), g_sink % 10);
  tracer.report();
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  std::string error;
  if (!perfbench::parse_args(argc, argv, &args, &error)) {
    std::fprintf(stderr, "perfbench_trace: %s\n", error.c_str());
    return 2;
  }
  return perfbench::run(args);
}
