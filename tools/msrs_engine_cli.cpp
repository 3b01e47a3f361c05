// msrs_engine_cli — front-end for the engine + generator + serving
// subsystems.
//
// Subcommands:
//   solve         solve instance files and/or generated batches (default)
//   generate      emit a corpus of generated instances (instance_io text)
//   sweep         expand a sweep grid, solve it, print a per-cell report
//   bench         run perf-harness cases / bench a generated corpus
//   serve         long-running scheduling service (stdio, or an event loop
//                 on a UNIX socket or TCP)
//   drive         load driver: replay generated corpora against a service
//   stats         one-shot `stats` op against a running service
//   version       schema versions (instance / bench / wire formats)
//   list-solvers  describe the registered solver ladder
//   help          full usage with examples
//
//   $ ./msrs_engine_cli generate "huge_heavy:n=200,m=16,seed=3"
//   $ ./msrs_engine_cli generate uniform --count=8 | ./msrs_engine_cli solve --file=-
//   $ ./msrs_engine_cli sweep "families=all;n=40,80,160;m=8;seeds=5" --threads=4
//   $ ./msrs_engine_cli serve --socket=/tmp/msrs.sock --shards=4 &
//   $ ./msrs_engine_cli drive --socket=/tmp/msrs.sock uniform:n=32,m=4
//         --count=64 --requests=100000 --conns=4
//
// Legacy flag-only invocations (no subcommand) behave exactly like `solve`.
#include <fcntl.h>

#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/instance_io.hpp"
#include "engine/engine.hpp"
#include "obs/flight_recorder.hpp"
#include "perf/cli.hpp"
#include "perf/reporter.hpp"
#include "serve/serve.hpp"
#include "sim/workloads.hpp"
#include "util/table.hpp"

namespace {

using namespace msrs;

struct Options {
  std::vector<std::string> files;
  std::vector<std::string> specs;  // positional spec strings
  std::string family;
  std::string out;   // generate: output path ("" or "-" = stdout)
  int count = 0;     // generate: seeds per spec (0 = the spec's own seed)
  int jobs = 60;
  int machines = 8;
  int seeds = 10;
  int repeat = 1;
  int budget_ms = 100;
  unsigned threads = 0;
  bool cache = true;
  std::size_t cache_capacity = 1 << 16;  // batch/corpus cache bound
  bool attempts = false;
  bool list_solvers = false;
  bool help = false;
  std::vector<std::string> solvers;  // portfolio `only` filter
  // serve / drive
  std::string socket;              // UNIX socket path ("" = stdio serve)
  std::string tcp;                 // TCP HOST:PORT target ("" = off)
  std::size_t idle_timeout_ms = 60'000;  // serve: idle reap bound
  std::string port_file;  // serve --tcp: write bound HOST:PORT here
  unsigned shards = 4;             // serve: worker shards
  std::size_t queue_depth = 1024;  // serve: per-shard admission bound
  std::size_t serve_cache = 1 << 14;  // serve: per-shard LRU entries
  bool reject = false;   // serve: shed load instead of blocking
  std::size_t requests = 0;  // drive: total request bound
  double duration = 0.0;     // drive: wall-clock bound, seconds
  double qps = 0.0;          // drive: open-loop rate (0 = closed loop)
  unsigned conns = 1;        // drive: concurrent connections
  bool payload_spec = false; // drive: send spec strings, not instance text
  std::string emit;          // drive: write request JSONL instead
  std::string churn;         // drive: churn spec (session-trace mode)
  std::string churn_out;     // drive: conn-0 response capture file
  bool json_report = false;  // drive: machine-readable report
  // serve telemetry
  double slow_ms = 1000.0;        // serve: slow-request log threshold
  std::string metrics_dump;       // serve: Prometheus page at exit
                                  // ("" = off, "-" = stderr)
  std::size_t max_conns = 256;    // serve: live-connection budget
  double stats_interval = 0.0;    // drive: mid-run stats poll period, s
  // serve observability (docs/observability.md)
  std::string http;            // serve: HTTP exposition HOST:PORT ("" = off)
  std::string http_port_file;  // serve: write bound HTTP HOST:PORT here
  std::size_t recorder_events = 1 << 14;  // flight-recorder ring (0 = off)
  std::string recorder_dump;   // serve: fatal-signal recorder dump file
  double watchdog_p99_ms = 0.0;      // watchdog p99 threshold, ms (0 = off)
  double watchdog_error_rate = 0.0;  // watchdog error-rate threshold (0=off)
  std::size_t watchdog_queue = 0;    // watchdog queue-depth threshold (0=off)
  double watchdog_interval = 1.0;    // watchdog tick period, seconds
  std::string watchdog_dump;   // serve: watchdog auto-dump file
  bool recorder = false;       // stats: fetch the flight recorder instead
};

std::optional<std::string> arg_value(const char* arg, const char* name) {
  const std::string prefix = std::string("--") + name + "=";
  if (std::strncmp(arg, prefix.c_str(), prefix.size()) == 0)
    return std::string(arg + prefix.size());
  return std::nullopt;
}

// Reads the value of the integer flag `--name` into `out`: decimal digits
// only (a sign is refused: std::stoul reads "-1" as ULONG_MAX), no trailing
// bytes, from `min` to `max`. A bad value is named on stderr and fails the
// parse (exit 2).
template <typename T>
bool read_unsigned(const char* name, const std::string& value, T* out,
                   std::uint64_t min = 0,
                   std::uint64_t max = std::numeric_limits<T>::max()) {
  std::uint64_t parsed = 0;
  const char* end = value.data() + value.size();
  const auto [ptr, ec] = std::from_chars(value.data(), end, parsed);
  if (ec != std::errc() || ptr != end || parsed < min || parsed > max) {
    std::fprintf(stderr,
                 "msrs_engine_cli: --%s needs an unsigned integer from %llu "
                 "to %llu, got '%s'\n",
                 name, static_cast<unsigned long long>(min),
                 static_cast<unsigned long long>(max), value.c_str());
    return false;
  }
  *out = static_cast<T>(parsed);
  return true;
}

std::vector<std::string> split_csv(const std::string& value) {
  std::vector<std::string> out;
  std::size_t begin = 0;
  while (begin <= value.size()) {
    const std::size_t comma = value.find(',', begin);
    const std::size_t end = comma == std::string::npos ? value.size() : comma;
    if (end > begin) out.push_back(value.substr(begin, end - begin));
    if (comma == std::string::npos) break;
    begin = comma + 1;
  }
  return out;
}

void print_usage(std::FILE* to) {
  std::fprintf(to,
               "usage: msrs_engine_cli <command> [options]\n"
               "\n"
               "commands:\n"
               "  solve [--file=F ...] [--family=NAME|all --jobs=N"
               " --machines=M --seeds=K --repeat=R]\n"
               "        [SPEC ...] [--threads=T] [--budget=MS] [--no-cache]"
               " [--solvers=a,b] [--attempts]\n"
               "      Solve instance files and/or generated batches through"
               " the portfolio + cache.\n"
               "      --file=- reads a whole corpus from stdin. Default"
               " command when omitted.\n"
               "  generate SPEC [SPEC ...] [--count=K] [--out=FILE]\n"
               "      Emit instances as instance_io text (a corpus when"
               " several). --count=K draws\n"
               "      seeds 1..K per spec; --out=FILE writes to a file"
               " instead of stdout.\n"
               "  sweep SWEEPSPEC [--threads=T] [--budget=MS] [--no-cache]"
               " [--solvers=a,b]\n"
               "      Expand the grid, solve every cell, print a"
               " deterministic per-cell report\n"
               "      table (stdout) and wall-clock stats (stderr).\n"
               "  bench [CASE ...] [--list] [--json=DIR] [--timing]"
               " [--spec=SPEC] [--sweep=SWEEPSPEC]\n"
               "        [--solvers=a,b] [--baseline=DIR] ...\n"
               "      Run registered perf-harness cases (E1-E12), or bench"
               " solvers over a\n"
               "      generated corpus; writes BENCH_<case>.json with"
               " --json. `bench --help`\n"
               "      shows the full grammar (see docs/benchmarking.md).\n"
               "  serve [--socket=PATH | --tcp=HOST:PORT] [--shards=N]"
               " [--queue-depth=D]\n"
               "        [--serve-cache=K] [--budget=MS] [--reject]"
               " [--solvers=a,b] [--max-conns=C]\n"
               "        [--idle-timeout=MS] [--port-file=FILE]"
               " [--slow-ms=MS] [--metrics-dump[=FILE]]\n"
               "        [--http=HOST:PORT] [--http-port-file=FILE]"
               " [--recorder-events=N]\n"
               "        [--recorder-dump=FILE]"
               " [--watchdog-p99-ms=MS] [--watchdog-error-rate=R]\n"
               "        [--watchdog-queue=N] [--watchdog-interval=S]"
               " [--watchdog-dump=FILE]\n"
               "      Long-running scheduling service: JSONL requests on"
               " stdin (default), or\n"
               "      on one epoll event loop listening on a UNIX socket or"
               " TCP (--tcp port 0\n"
               "      picks an ephemeral port, --port-file records it);"
               " --max-conns sheds\n"
               "      connections past the budget, --idle-timeout reaps"
               " silent ones;\n"
               "      one response line per request, in request order."
               " --reject\n"
               "      sheds load with 'overloaded' errors instead of"
               " blocking; SIGINT/SIGTERM\n"
               "      and the wire 'shutdown' op drain gracefully (see"
               " docs/architecture.md).\n"
               "      --shards is at most 255. Requests slower than"
               " --slow-ms log one line\n"
               "      to stderr (0 disables). --metrics-dump prints a"
               " Prometheus-style\n"
               "      metrics page at exit (see docs/observability.md).\n"
               "      --http serves GET /metrics, /healthz, /recorder and"
               " /watchdog on a\n"
               "      second listener (any transport; port 0 +"
               " --http-port-file supported).\n"
               "      The flight recorder keeps the last N lifecycle events"
               " per thread\n"
               "      (--recorder-events=0 disables); --recorder-dump"
               " writes them on a\n"
               "      fatal signal; --watchdog-* thresholds auto-dump to"
               " --watchdog-dump.\n"
               "  drive SPEC [SPEC ...] (--socket=PATH | --tcp=HOST:PORT)"
               " [--count=K]\n"
               "        [--requests=N] [--duration=S]\n"
               "        [--qps=Q] [--conns=C] [--payload=instance|spec]"
               " [--emit=FILE] [--json]\n"
               "        [--stats-interval=S] [--churn=CHURNSPEC]"
               " [--churn-out=FILE]\n"
               "      Replay the generated corpus against a running"
               " service; reports p50/p95/p99\n"
               "      latency, throughput and cache hit rate. --qps paces"
               " an open loop (default\n"
               "      closed loop); --emit writes the request JSONL for a"
               " stdio pipeline;\n"
               "      --stats-interval polls `stats` mid-run and prints a"
               " live latency\n"
               "      decomposition table to stderr.\n"
               "      --churn replays an online-session trace instead (one"
               " session per\n"
               "      connection, submit/cancel/snapshot in order);"
               " --churn-out captures\n"
               "      connection 0's response bytes. CHURNSPEC ="
               " (poisson|onoff)[:key=v,...],\n"
               "      keys: events, classes, m, max, cancel, snap, rate,"
               " burst, blen, seed —\n"
               "      e.g. poisson:events=200,cancel=0.3,snap=10,seed=1\n"
               "  stats (--socket=PATH | --tcp=HOST:PORT) [--json]"
               " [--recorder]\n"
               "      One-shot `stats` op against a running service:"
               " counters, queue depths,\n"
               "      error/solver breakdowns and the per-stage latency"
               " decomposition.\n"
               "      --recorder fetches the flight recorder's canonical"
               " event dump instead.\n"
               "  version\n"
               "      Schema versions of the instance, bench and wire"
               " formats.\n"
               "  list-solvers\n"
               "      Describe the registered solver ladder.\n"
               "  help\n"
               "      This text.\n"
               "\n"
               "spec strings (see docs/scenarios.md):\n"
               "  SPEC      family[:k=v,...]     keys: n, m, max, seed,"
               " classes, sizes\n"
               "            e.g. huge_heavy:n=5000,m=32,classes=zipf(1.2),"
               "seed=7\n"
               "  SWEEPSPEC key=list[;...]       keys: families, n, m, max,"
               " seeds, classes, sizes\n"
               "            e.g. families=all;n=40,80,160;m=8,16;seeds=5\n"
               "\n"
               "examples:\n"
               "  msrs_engine_cli generate \"satellite:n=120,m=6,seed=2\"\n"
               "  msrs_engine_cli generate uniform --count=8 |"
               " msrs_engine_cli solve --file=-\n"
               "  msrs_engine_cli sweep"
               " \"families=uniform,huge_heavy,lemma9_tight;n=50,100;m=8;"
               "seeds=3\"\n"
               "  msrs_engine_cli solve --family=photolith --jobs=40"
               " --machines=6 --seeds=5 --attempts\n"
               "\nfamilies:");
  for (const Family family : kAllFamilies)
    std::fprintf(to, " %s", family_name(family));
  std::fprintf(to, "\n");
}

int usage() {
  print_usage(stderr);
  return 2;
}

int list_solvers() {
  Table table({"solver", "guarantee", "cost", "budget_ms"});
  for (const auto& solver : engine::SolverRegistry::default_registry()
                                .solvers()) {
    const char* cost = solver->cost() == engine::CostTier::kLinear ? "linear"
                       : solver->cost() == engine::CostTier::kPolynomial
                           ? "poly"
                           : "search";
    table.add_row({std::string(solver->name()),
                   solver->guarantee() > 0.0
                       ? Table::num(solver->guarantee(), 4)
                       : "heuristic",
                   cost,
                   Table::num(static_cast<std::int64_t>(
                       solver->min_budget_ms()))});
  }
  std::printf("%s", table.str().c_str());
  return 0;
}

// Parses flags into `options`; positional (non --) arguments land in
// options.specs. Returns false on an unknown flag or a bad numeric value.
bool parse_flags(int argc, char** argv, int begin, Options* options) {
  bool ok = true;  // false once read_unsigned() refuses a value
  try {
    for (int i = begin; i < argc && ok; ++i) {
      if (argv[i][0] != '-' || std::strcmp(argv[i], "-") == 0) {
        options->specs.push_back(argv[i]);
        continue;
      }
      if (auto v = arg_value(argv[i], "file")) options->files.push_back(*v);
      else if (auto v2 = arg_value(argv[i], "family")) options->family = *v2;
      else if (auto v3 = arg_value(argv[i], "jobs"))
        ok = read_unsigned("jobs", *v3, &options->jobs, 1);
      else if (auto v4 = arg_value(argv[i], "machines"))
        ok = read_unsigned("machines", *v4, &options->machines, 1,
                           kMaxMachines);
      else if (auto v5 = arg_value(argv[i], "seeds"))
        ok = read_unsigned("seeds", *v5, &options->seeds, 1);
      else if (auto v6 = arg_value(argv[i], "repeat"))
        ok = read_unsigned("repeat", *v6, &options->repeat, 1);
      else if (auto v7 = arg_value(argv[i], "budget"))
        ok = read_unsigned("budget", *v7, &options->budget_ms);
      else if (auto v8 = arg_value(argv[i], "threads"))
        ok = read_unsigned("threads", *v8, &options->threads);
      else if (auto v9 = arg_value(argv[i], "solvers"))
        options->solvers = split_csv(*v9);
      else if (auto v10 = arg_value(argv[i], "count"))
        ok = read_unsigned("count", *v10, &options->count);
      else if (auto v11 = arg_value(argv[i], "out")) options->out = *v11;
      else if (auto v12 = arg_value(argv[i], "cache-capacity"))
        ok = read_unsigned("cache-capacity", *v12, &options->cache_capacity);
      else if (auto v13 = arg_value(argv[i], "socket"))
        options->socket = *v13;
      else if (auto v14 = arg_value(argv[i], "shards"))
        ok = read_unsigned("shards", *v14, &options->shards, 0,
                           serve::kMaxShards);
      else if (auto v15 = arg_value(argv[i], "queue-depth"))
        ok = read_unsigned("queue-depth", *v15, &options->queue_depth);
      else if (auto v16 = arg_value(argv[i], "serve-cache"))
        ok = read_unsigned("serve-cache", *v16, &options->serve_cache);
      else if (auto v17 = arg_value(argv[i], "requests"))
        ok = read_unsigned("requests", *v17, &options->requests);
      else if (auto v18 = arg_value(argv[i], "duration"))
        options->duration = std::stod(*v18);
      else if (auto v19 = arg_value(argv[i], "qps"))
        options->qps = std::stod(*v19);
      else if (auto v20 = arg_value(argv[i], "conns"))
        ok = read_unsigned("conns", *v20, &options->conns);
      else if (auto v21 = arg_value(argv[i], "emit")) options->emit = *v21;
      else if (auto c1 = arg_value(argv[i], "churn")) options->churn = *c1;
      else if (auto c2 = arg_value(argv[i], "churn-out"))
        options->churn_out = *c2;
      else if (auto v22 = arg_value(argv[i], "payload")) {
        if (*v22 == "spec") options->payload_spec = true;
        else if (*v22 == "instance") options->payload_spec = false;
        else return false;
      }
      else if (auto v25 = arg_value(argv[i], "slow-ms"))
        options->slow_ms = std::stod(*v25);
      else if (auto v26 = arg_value(argv[i], "metrics-dump"))
        options->metrics_dump = *v26;
      else if (std::strcmp(argv[i], "--metrics-dump") == 0)
        options->metrics_dump = "-";
      else if (auto v27 = arg_value(argv[i], "max-conns"))
        ok = read_unsigned("max-conns", *v27, &options->max_conns);
      else if (auto v28 = arg_value(argv[i], "stats-interval"))
        options->stats_interval = std::stod(*v28);
      else if (auto v29 = arg_value(argv[i], "tcp")) options->tcp = *v29;
      else if (auto v30 = arg_value(argv[i], "idle-timeout"))
        ok = read_unsigned("idle-timeout", *v30, &options->idle_timeout_ms);
      else if (auto v31 = arg_value(argv[i], "port-file"))
        options->port_file = *v31;
      else if (auto v32 = arg_value(argv[i], "http")) options->http = *v32;
      else if (auto v33 = arg_value(argv[i], "http-port-file"))
        options->http_port_file = *v33;
      else if (auto v34 = arg_value(argv[i], "recorder-events"))
        ok = read_unsigned("recorder-events", *v34,
                           &options->recorder_events);
      else if (auto v35 = arg_value(argv[i], "recorder-dump"))
        options->recorder_dump = *v35;
      else if (auto v36 = arg_value(argv[i], "watchdog-p99-ms"))
        options->watchdog_p99_ms = std::stod(*v36);
      else if (auto v37 = arg_value(argv[i], "watchdog-error-rate"))
        options->watchdog_error_rate = std::stod(*v37);
      else if (auto v38 = arg_value(argv[i], "watchdog-queue"))
        ok = read_unsigned("watchdog-queue", *v38, &options->watchdog_queue);
      else if (auto v39 = arg_value(argv[i], "watchdog-interval"))
        options->watchdog_interval = std::stod(*v39);
      else if (auto v40 = arg_value(argv[i], "watchdog-dump"))
        options->watchdog_dump = *v40;
      else if (std::strcmp(argv[i], "--recorder") == 0)
        options->recorder = true;
      else if (std::strcmp(argv[i], "--reject") == 0)
        options->reject = true;
      else if (std::strcmp(argv[i], "--json") == 0)
        options->json_report = true;
      else if (std::strcmp(argv[i], "--no-cache") == 0)
        options->cache = false;
      else if (std::strcmp(argv[i], "--attempts") == 0)
        options->attempts = true;
      else if (std::strcmp(argv[i], "--list-solvers") == 0)
        options->list_solvers = true;
      else if (std::strcmp(argv[i], "--help") == 0 ||
               std::strcmp(argv[i], "-h") == 0)
        options->help = true;
      else return false;
    }
  } catch (const std::exception&) {  // std::stod refused a decimal flag
    return false;
  }
  return ok;
}

engine::BatchOptions batch_options(const Options& options) {
  engine::BatchOptions batch;
  batch.threads = options.threads;
  batch.cache = options.cache;
  batch.cache_capacity = options.cache_capacity;
  batch.portfolio.budget_ms = options.budget_ms;
  batch.portfolio.only = options.solvers;
  return batch;
}

// Validates --solvers names against the registry; returns false (after
// printing the offender) when one is unknown.
bool check_solvers(const Options& options) {
  for (const std::string& name : options.solvers)
    if (engine::SolverRegistry::default_registry().find(name) == nullptr) {
      std::fprintf(stderr, "unknown solver '%s' (see list-solvers)\n",
                   name.c_str());
      return false;
    }
  return true;
}

int run_generate(const Options& options) {
  if (options.specs.empty()) {
    std::fprintf(stderr, "generate: needs at least one spec string\n");
    return usage();
  }
  std::vector<CorpusEntry> corpus;
  for (const std::string& text : options.specs) {
    std::string error;
    const auto spec = parse_spec(text, &error);
    if (!spec) {
      std::fprintf(stderr, "bad spec '%s': %s\n", text.c_str(),
                   error.c_str());
      return 2;
    }
    if (options.count > 0) {
      auto seeded = seed_corpus(*spec, options.count);
      corpus.insert(corpus.end(), std::make_move_iterator(seeded.begin()),
                    std::make_move_iterator(seeded.end()));
    } else {
      corpus.push_back({*spec, generate(*spec)});
    }
  }
  if (options.out.empty() || options.out == "-") {
    write_corpus(std::cout, corpus);
    std::cout.flush();
    return std::cout ? 0 : 1;
  }
  std::ofstream out(options.out);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", options.out.c_str());
    return 1;
  }
  write_corpus(out, corpus);
  // close() before checking: buffered writes may only fail on flush
  // (e.g. a full disk), and the destructor would swallow that.
  out.close();
  if (!out) {
    std::fprintf(stderr, "write error on %s\n", options.out.c_str());
    return 1;
  }
  return 0;
}

// A sweep report row groups one grid cell (spec minus seed).
std::string cell_label(const GeneratorSpec& spec) {
  std::string label = std::string(family_name(spec.family)) +
                      ":n=" + std::to_string(spec.jobs) +
                      ",m=" + std::to_string(spec.machines);
  if (spec.max_size != 1000)
    label += ",max=" + std::to_string(spec.max_size);
  if (spec.class_size.set()) label += ",classes=" + spec.class_size.str();
  if (spec.job_size.set()) label += ",sizes=" + spec.job_size.str();
  return label;
}

int run_sweep(const Options& options) {
  if (options.specs.size() != 1) {
    std::fprintf(stderr, "sweep: needs exactly one sweep spec string\n");
    return usage();
  }
  if (!check_solvers(options)) return 2;
  std::string error;
  const auto sweep = parse_sweep(options.specs[0], &error);
  if (!sweep) {
    std::fprintf(stderr, "bad sweep '%s': %s\n", options.specs[0].c_str(),
                 error.c_str());
    return 2;
  }
  std::vector<std::string> groups;
  std::vector<Instance> instances;
  groups.reserve(sweep->size());
  instances.reserve(sweep->size());
  std::vector<CorpusEntry> corpus = make_corpus(*sweep);
  for (CorpusEntry& entry : corpus) {
    groups.push_back(cell_label(entry.spec));
    instances.push_back(std::move(entry.instance));
  }
  const engine::CorpusReport report = engine::evaluate_corpus(
      groups, instances, engine::SolverRegistry::default_registry(),
      batch_options(options));
  std::printf("%s", report.table().c_str());
  std::fprintf(stderr, "%s\n", report.timing().c_str());
  if (!report.all_valid) {
    std::fprintf(stderr, "some instances have no valid schedule\n");
    return 1;
  }
  return 0;
}

int run_solve(const Options& options) {
  if (!check_solvers(options)) return 2;

  std::vector<Instance> batch;
  std::vector<std::string> labels;
  // Every file input is a corpus: one or more concatenated instances.
  for (const std::string& file : options.files) {
    std::string error;
    std::optional<std::vector<Instance>> corpus;
    std::ifstream stream;
    if (file == "-") {
      corpus = read_corpus(std::cin, &error);
    } else {
      stream.open(file);
      if (!stream) {
        std::fprintf(stderr, "cannot open %s\n", file.c_str());
        return 1;
      }
      corpus = read_corpus(stream, &error);
    }
    const std::string label = file == "-" ? "stdin" : file;
    if (!corpus) {
      std::fprintf(stderr, "%s: parse error: %s\n", label.c_str(),
                   error.c_str());
      return 1;
    }
    if (corpus->empty()) {
      std::fprintf(stderr, "%s: parse error: empty input: missing 'msrs 1'"
                   " header\n", label.c_str());
      return 1;
    }
    for (std::size_t i = 0; i < corpus->size(); ++i) {
      batch.push_back(std::move((*corpus)[i]));
      labels.push_back(corpus->size() == 1 ? label
                                           : label + "[" + std::to_string(i) +
                                                 "]");
    }
  }
  // Positional spec strings: one instance each.
  for (const std::string& text : options.specs) {
    std::string error;
    const auto spec = parse_spec(text, &error);
    if (!spec) {
      std::fprintf(stderr, "bad spec '%s': %s\n", text.c_str(),
                   error.c_str());
      return 2;
    }
    batch.push_back(generate(*spec));
    labels.push_back(spec->str());
  }
  if (!options.family.empty()) {
    std::vector<Family> families;
    if (options.family == "all")
      families.assign(std::begin(kAllFamilies), std::end(kAllFamilies));
    else {
      const auto family = parse_family(options.family);
      if (!family) return usage();
      families.push_back(*family);
    }
    for (int r = 0; r < options.repeat; ++r)
      for (int seed = 1; seed <= options.seeds; ++seed)
        for (const Family family : families) {
          batch.push_back(generate(family, options.jobs, options.machines,
                                   static_cast<std::uint64_t>(seed)));
          labels.push_back(std::string(family_name(family)) + "/s" +
                           std::to_string(seed));
        }
  }
  if (batch.empty()) return usage();

  engine::BatchEngine batch_engine(engine::SolverRegistry::default_registry(),
                                   batch_options(options));

  const auto start = std::chrono::steady_clock::now();
  const std::vector<engine::PortfolioResult> results =
      batch_engine.solve(batch);
  const double elapsed_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - start)
          .count();

  Table table({"instance", "n", "m", "|C|", "solver", "makespan", "t_bound",
               "ratio", "valid", "source"});
  bool all_valid = true;
  for (std::size_t i = 0; i < results.size(); ++i) {
    const engine::PortfolioResult& result = results[i];
    table.add_row(
        {labels[i], Table::num(static_cast<std::int64_t>(batch[i].num_jobs())),
         Table::num(static_cast<std::int64_t>(batch[i].machines())),
         Table::num(static_cast<std::int64_t>(batch[i].num_classes())),
         result.solver, Table::num(result.makespan, 2),
         Table::num(static_cast<std::int64_t>(result.t_bound)),
         Table::num(result.ratio_vs_bound, 4), result.valid ? "yes" : "NO",
         result.from_cache ? "cache" : "solved"});
    all_valid = all_valid && result.valid;
    if (options.attempts) {
      for (const engine::Attempt& attempt : result.attempts)
        std::fprintf(stderr, "    %-16s ok=%d valid=%d makespan=%.2f %s\n",
                     attempt.solver.c_str(), attempt.ok, attempt.valid,
                     attempt.makespan, attempt.error.c_str());
    }
  }
  std::printf("%s\n", table.str().c_str());

  const engine::BatchStats& stats = batch_engine.stats();
  std::printf(
      "batch: %zu instances, %zu solved, %zu cache hits, %zu cache entries\n"
      "time:  %.1f ms (%.0f instances/sec)\n",
      stats.instances, stats.solved, stats.cache_hits, stats.entries,
      elapsed_ms, elapsed_ms > 0 ? 1000.0 * static_cast<double>(batch.size()) /
                                       elapsed_ms
                                 : 0.0);
  if (!all_valid) {
    std::fprintf(stderr, "some instances have no valid schedule\n");
    return 1;
  }
  return 0;
}

int run_version() {
  Table table({"format", "version", "where"});
  table.add_row({"instance", Table::num(static_cast<std::int64_t>(
                                 kInstanceFormatVersion)),
                 "instance_io text ('msrs 1' header)"});
  table.add_row({"bench", Table::num(static_cast<std::int64_t>(
                              perf::kBenchSchemaVersion)),
                 "BENCH_*.json schema_version"});
  table.add_row({"wire", Table::num(static_cast<std::int64_t>(
                             serve::kWireVersion)),
                 "serve/drive JSONL protocol"});
  std::printf("%s", table.str().c_str());
  return 0;
}

// Writes the end-of-run Prometheus-style metrics page of --metrics-dump
// ("-" = stderr, otherwise a file path).
void dump_metrics(serve::Service& service, const std::string& target) {
  const std::string page = service.metrics_snapshot().prometheus();
  if (target == "-") {
    std::fprintf(stderr, "%s", page.c_str());
    return;
  }
  std::ofstream file(target);
  if (!file) {
    std::fprintf(stderr, "serve: cannot write metrics dump %s\n",
                 target.c_str());
    return;
  }
  file << page;
}

// Writes the bound HTTP HOST:PORT of --http-port-file (port 0 serving).
std::function<void(std::uint16_t)> http_port_writer(const Options& options) {
  if (options.http_port_file.empty()) return {};
  return [&options](std::uint16_t port) {
    std::string host = options.http;
    const std::size_t colon = host.rfind(':');
    if (colon != std::string::npos) host.resize(colon);
    std::ofstream file(options.http_port_file);
    file << host << ':' << port << '\n';
  };
}

int run_serve(const Options& options) {
  if (!check_solvers(options)) return 2;
  serve::ServiceOptions service_options;
  service_options.shards = options.shards;
  service_options.queue_depth = options.queue_depth;
  service_options.cache_capacity = options.serve_cache;
  service_options.reject_when_full = options.reject;
  service_options.budget_ms = options.budget_ms;
  service_options.solvers = options.solvers;
  service_options.slow_ms = options.slow_ms;
  service_options.recorder_events = options.recorder_events;
  service_options.watchdog.p99_threshold_us = options.watchdog_p99_ms * 1000.0;
  service_options.watchdog.error_rate_threshold = options.watchdog_error_rate;
  service_options.watchdog.queue_threshold =
      static_cast<std::int64_t>(options.watchdog_queue);
  service_options.watchdog_dump = options.watchdog_dump;
  serve::Service service(service_options);
  serve::install_stop_signals();
  // --recorder-dump: pre-open the file so the fatal-signal handler only has
  // to write(2) — no allocation, no open() in the handler.
  int fatal_fd = -1;
  if (!options.recorder_dump.empty() && service.recorder() != nullptr) {
    fatal_fd = ::open(options.recorder_dump.c_str(),
                      O_CREAT | O_TRUNC | O_WRONLY, 0644);
    if (fatal_fd < 0) {
      std::fprintf(stderr, "serve: cannot open recorder dump %s\n",
                   options.recorder_dump.c_str());
      return 1;
    }
    obs::install_fatal_dump(service.recorder(), fatal_fd);
  }
  const int monitor_interval_ms =
      options.watchdog_interval > 0.0
          ? static_cast<int>(options.watchdog_interval * 1000.0)
          : 0;
  if (options.socket.empty() && options.tcp.empty()) {
    // stdio serve with --http: the exposition listener runs its own
    // event loop on a helper thread while the main thread owns stdio
    // (epoll cannot poll a regular-file stdin).
    std::thread http_thread;
    if (!options.http.empty()) {
      http_thread = std::thread([&] {
        serve::TcpOptions http_options;
        http_options.http = options.http;
        http_options.on_http_listen = http_port_writer(options);
        http_options.monitor_interval_ms = monitor_interval_ms;
        std::string http_error;
        if (serve::serve_tcp(service, "", "", &http_error, http_options) != 0)
          std::fprintf(stderr, "serve: http: %s\n", http_error.c_str());
      });
    }
    const int code = serve::serve_stdio(service, std::cin, std::cout);
    if (http_thread.joinable()) {
      serve::request_stop();
      http_thread.join();
    }
    if (!options.metrics_dump.empty())
      dump_metrics(service, options.metrics_dump);
    return code;
  }
  // --tcp or --socket: one event loop on this thread (--tcp wins).
  serve::TcpOptions loop_options;
  loop_options.max_connections = options.max_conns;
  loop_options.idle_timeout_ms = options.idle_timeout_ms;
  loop_options.http = options.http;
  loop_options.on_http_listen = http_port_writer(options);
  loop_options.monitor_interval_ms = monitor_interval_ms;
  loop_options.on_listen = [&options, &service](std::uint16_t port) {
    if (options.tcp.empty()) {
      std::fprintf(stderr, "serving on %s (%u shards, depth %zu, cache %zu)\n",
                   options.socket.c_str(), service.shards(),
                   options.queue_depth, options.serve_cache);
      return;
    }
    std::string host = options.tcp;
    const std::size_t colon = host.rfind(':');
    if (colon != std::string::npos) host.resize(colon);
    std::fprintf(stderr, "serving on tcp %s:%u (%u shards)\n", host.c_str(),
                 static_cast<unsigned>(port), options.shards);
    if (options.port_file.empty()) return;
    // The bound HOST:PORT, for scripts that serve on an ephemeral port.
    std::ofstream file(options.port_file);
    file << host << ':' << port << '\n';
  };
  std::string error;
  const int code = serve::serve_tcp(service, options.socket, options.tcp,
                                    &error, loop_options);
  if (code != 0) std::fprintf(stderr, "serve: %s\n", error.c_str());
  if (!options.metrics_dump.empty())
    dump_metrics(service, options.metrics_dump);
  return code;
}

// One-shot `stats` op against a running service; prints the
// pretty-printed stats document (queue depths, error/solver breakdowns,
// latency decomposition).
int run_stats(const Options& options) {
  if (options.socket.empty() && options.tcp.empty()) {
    std::fprintf(stderr, "stats: needs --socket=PATH or --tcp=HOST:PORT\n");
    return 2;
  }
  std::string error;
  const std::unique_ptr<serve::LineClient> client =
      serve::connect_line_client(options.socket, options.tcp, &error);
  if (!client) {
    std::fprintf(stderr, "stats: %s\n", error.c_str());
    return 1;
  }
  std::string line;
  const char* request = options.recorder
                            ? "{\"op\":\"dump_recorder\",\"canonical\":true}"
                            : "{\"op\":\"stats\"}";
  if (!client->send_line(request) || !client->recv_line(&line)) {
    std::fprintf(stderr, "stats: service closed the connection\n");
    return 1;
  }
  if (const std::optional<Json> document = json_parse(line))
    std::printf("%s\n", document->str(options.json_report ? 0 : 2).c_str());
  else
    std::printf("%s\n", line.c_str());
  return 0;
}

int run_drive(const Options& options) {
  serve::DriveOptions drive_options;
  drive_options.socket = options.socket;
  drive_options.tcp = options.tcp;
  drive_options.specs = options.specs;
  drive_options.seeds_per_spec = options.count;
  drive_options.requests = options.requests;
  drive_options.duration_s = options.duration;
  drive_options.qps = options.qps;
  drive_options.conns = options.conns;
  drive_options.payload_spec = options.payload_spec;
  drive_options.stats_interval_s = options.stats_interval;
  drive_options.emit = options.emit;
  drive_options.churn = options.churn;
  drive_options.churn_out = options.churn_out;
  std::string error;
  const auto report = serve::drive(drive_options, &error);
  if (!report) {
    std::fprintf(stderr, "drive: %s\n", error.c_str());
    return error.find("bad_spec") != std::string::npos ||
                   error.find("bad_churn") != std::string::npos ||
                   error.find("needs") != std::string::npos
               ? 2
               : 1;
  }
  if (!drive_options.emit.empty()) {
    std::fprintf(stderr, "emitted %zu request lines to %s\n", report->sent,
                 drive_options.emit.c_str());
    return 0;
  }
  if (options.json_report)
    std::printf("%s\n", report->json().str(2).c_str());
  else
    std::printf("%s", report->str().c_str());
  return report->errors == 0 && report->transport_errors == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  // Subcommand dispatch; a leading flag (or nothing) means legacy `solve`.
  std::string command = "solve";
  int flags_begin = 1;
  if (argc > 1 && argv[1][0] != '-') {
    command = argv[1];
    flags_begin = 2;
  }

  // `bench` owns its whole flag grammar (perf/cli.hpp): forward verbatim.
  if (command == "bench")
    return msrs::perf::bench_main(argc - 1, argv + 1, /*default_filter=*/"");

  Options options;
  if (!parse_flags(argc, argv, flags_begin, &options)) return usage();
  if (options.help || command == "help") {
    print_usage(stdout);
    return 0;
  }
  if (options.list_solvers || command == "list-solvers")
    return list_solvers();
  if (command == "generate") return run_generate(options);
  if (command == "sweep") return run_sweep(options);
  if (command == "serve") return run_serve(options);
  if (command == "drive") return run_drive(options);
  if (command == "stats") return run_stats(options);
  if (command == "version") return run_version();
  if (command == "solve") return run_solve(options);
  std::fprintf(stderr, "unknown command '%s'\n\n", command.c_str());
  return usage();
}
