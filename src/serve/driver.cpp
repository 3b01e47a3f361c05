#include "serve/driver.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>

#include "core/instance_io.hpp"
#include "obs/metrics.hpp"
#include "serve/tcp.hpp"
#include "serve/wire.hpp"
#include "sim/arrivals.hpp"
#include "sim/workloads.hpp"
#include "util/table.hpp"

namespace msrs::serve {
namespace {

using Clock = std::chrono::steady_clock;

// Builds the replay payloads: each is the tail of a solve-request line
// (everything after the opening '{'), so a request becomes
// `{"id":N,` + payload without re-serializing JSON per send.
std::optional<std::vector<std::string>> build_payloads(
    const DriveOptions& options, std::string* error) {
  std::vector<CorpusEntry> corpus;
  for (const std::string& text : options.specs) {
    std::string spec_error;
    const auto spec = parse_spec(text, &spec_error);
    if (!spec) {
      if (error) *error = "bad_spec '" + text + "': " + spec_error;
      return std::nullopt;
    }
    if (options.seeds_per_spec > 0) {
      auto seeded = seed_corpus(*spec, options.seeds_per_spec);
      corpus.insert(corpus.end(), std::make_move_iterator(seeded.begin()),
                    std::make_move_iterator(seeded.end()));
    } else {
      corpus.push_back({*spec, generate(*spec)});
    }
  }
  if (corpus.empty()) {
    if (error) *error = "drive needs at least one generator spec";
    return std::nullopt;
  }
  std::vector<std::string> payloads;
  payloads.reserve(corpus.size());
  for (const CorpusEntry& entry : corpus) {
    Json request = Json::object();
    request.set("op", "solve");
    request.set("wire", static_cast<std::int64_t>(kWireVersion));
    if (options.payload_spec)
      request.set("spec", entry.spec.str());
    else
      request.set("instance", to_text(entry.instance));
    std::string payload = request.str();
    payload.front() = ',';  // the '{' comes from the id prefix instead
    payloads.push_back(std::move(payload));
  }
  return payloads;
}

std::string make_line(std::size_t id, const std::string& payload) {
  return "{\"id\":" + std::to_string(id) + payload;
}

// Builds the request lines of one churn-session replay: open_session, the
// trace's submit/cancel/snapshot events in order, close_session. Cancel
// targets use *predicted* job ids, never parsed responses: the session
// engine assigns ids from a monotone counter, so a job's id equals its
// submission index — which is what makes one-pass `--emit` possible.
std::vector<std::string> churn_lines(const ChurnSpec& spec,
                                     const std::vector<ChurnEvent>& events,
                                     const std::string& session) {
  std::vector<std::string> lines;
  lines.reserve(events.size() + 2);
  std::size_t id = 0;
  const auto add = [&](const Json& body) {
    std::string payload = body.str();
    payload.front() = ',';  // the '{' comes from the id prefix instead
    lines.push_back(make_line(id++, payload));
  };
  Json open = Json::object();
  open.set("op", "open_session");
  open.set("wire", static_cast<std::int64_t>(kWireVersion));
  open.set("session", session);
  open.set("machines", static_cast<std::int64_t>(spec.machines));
  add(open);
  for (const ChurnEvent& event : events) {
    Json body = Json::object();
    switch (event.kind) {
      case ChurnEvent::Kind::kSubmit:
        body.set("op", "submit_job");
        body.set("session", session);
        body.set("class", "c" + std::to_string(event.cls));
        body.set("size", static_cast<std::int64_t>(event.size));
        break;
      case ChurnEvent::Kind::kCancel:
        body.set("op", "cancel_job");
        body.set("session", session);
        body.set("job", event.target);
        break;
      case ChurnEvent::Kind::kSnapshot:
        body.set("op", "snapshot");
        body.set("session", session);
        break;
    }
    add(body);
  }
  Json close = Json::object();
  close.set("op", "close_session");
  close.set("session", session);
  add(close);
  return lines;
}

// Version handshake on an open connection: sends `version`, verifies the
// service speaks kWireVersion, surfaces named errors. Returns false (with
// `*error` filled) on any mismatch or transport failure.
bool handshake(LineClient& control, std::string* error) {
  Json hello = Json::object();
  hello.set("op", "version");
  hello.set("wire", static_cast<std::int64_t>(kWireVersion));
  std::string response_line;
  if (!control.send_line(hello.str()) || !control.recv_line(&response_line)) {
    if (error) *error = "service closed the connection during handshake";
    return false;
  }
  const std::optional<Json> response = json_parse(response_line);
  if (!response) {
    if (error) *error = "handshake response is not JSON: " + response_line;
    return false;
  }
  if (const Json* ok = response->find("ok");
      ok == nullptr || !ok->is_bool() || !ok->as_bool()) {
    const Json* code = response->find("error");
    const Json* detail = response->find("detail");
    if (error)
      *error = (code && code->is_string() ? code->as_string()
                                          : std::string("handshake_failed")) +
               ": " +
               (detail && detail->is_string() ? detail->as_string()
                                              : response_line);
    return false;
  }
  const Json* wire = response->find("wire");
  if (wire == nullptr || !wire->is_number() ||
      static_cast<int>(wire->as_number()) != kWireVersion) {
    if (error)
      *error = std::string(wire_error_name(WireError::kVersionMismatch)) +
               ": driver speaks wire version " + std::to_string(kWireVersion) +
               ", service reports " +
               (wire && wire->is_number()
                    ? std::to_string(static_cast<int>(wire->as_number()))
                    : std::string("none"));
    return false;
  }
  return true;
}

// Sends one `stats` op and parses the response document.
std::optional<Json> fetch_stats(LineClient& client) {
  if (!client.send_line("{\"op\":\"stats\"}")) return std::nullopt;
  std::string line;
  if (!client.recv_line(&line)) return std::nullopt;
  return json_parse(line);
}

// One `stats` op over a fresh connection: a connection held open through
// the run would sit idle and be reaped by the server's --idle-timeout.
std::optional<Json> fetch_stats(const DriveOptions& options) {
  const std::unique_ptr<LineClient> client =
      connect_line_client(options.socket, options.tcp, nullptr);
  if (!client) return std::nullopt;
  return fetch_stats(*client);
}

// Reads `cache_hits`/`cache_misses` out of a `stats` response.
bool cache_counters(const std::optional<Json>& document, double* hits,
                    double* misses) {
  if (!document) return false;
  const Json* h = document->find("cache_hits");
  const Json* m = document->find("cache_misses");
  if (h == nullptr || !h->is_number() || m == nullptr || !m->is_number())
    return false;
  *hits = h->as_number();
  *misses = m->as_number();
  return true;
}

// Renders one mid-run stats poll: a one-line counter summary plus the
// latency decomposition table (lifecycle stage x percentiles).
std::string render_stats_poll(const Json& document, double at_s) {
  const auto count = [&document](const char* key) -> std::int64_t {
    const Json* v = document.find(key);
    return v != nullptr && v->is_number()
               ? static_cast<std::int64_t>(v->as_number())
               : 0;
  };
  std::ostringstream out;
  out << "drive stats @ " << Table::num(at_s, 1)
      << " s: received=" << count("received")
      << " responded=" << count("responded") << " errors=" << count("errors")
      << " cache_hits=" << count("cache_hits")
      << " cache_misses=" << count("cache_misses");
  if (const Json* depths = document.find("queue_depths");
      depths != nullptr && depths->is_array()) {
    out << " queue_depths=[";
    for (std::size_t i = 0; i < depths->items().size(); ++i) {
      if (i > 0) out << ',';
      out << static_cast<std::int64_t>(depths->items()[i].as_number());
    }
    out << ']';
  }
  out << '\n';

  const Json* latency = document.find("latency");
  if (latency != nullptr && latency->is_object() &&
      !latency->members().empty()) {
    Table table({"stage", "count", "p50_us", "p95_us", "p99_us", "mean_us"});
    for (const auto& [stage, entry] : latency->members()) {
      const auto cell = [&entry](const char* key) {
        const Json* v = entry.find(key);
        return v != nullptr && v->is_number() ? Table::num(v->as_number(), 1)
                                              : std::string("-");
      };
      const Json* n = entry.find("count");
      table.add_row({stage,
                     Table::num(n != nullptr && n->is_number()
                                    ? static_cast<std::int64_t>(n->as_number())
                                    : 0),
                     cell("p50_us"), cell("p95_us"), cell("p99_us"),
                     cell("mean_us")});
    }
    out << table.str();
  }
  return out.str();
}

// Churn mode: replay a generated session trace (one session per
// connection, strictly in order — mutations are causally dependent, so
// there is no open-loop pacing or shared work queue here).
std::optional<DriveReport> drive_churn(const DriveOptions& options,
                                       std::string* error) {
  std::string churn_error;
  const auto spec = parse_churn(options.churn, &churn_error);
  if (!spec) {
    if (error) *error = "bad_churn '" + options.churn + "': " + churn_error;
    return std::nullopt;
  }
  const std::vector<ChurnEvent> events = generate_churn(*spec);

  if (!options.emit.empty()) {
    // Emit mode: the single-session request stream for a stdio pipeline.
    std::ofstream file;
    const bool to_stdout = options.emit == "-";
    if (!to_stdout) {
      file.open(options.emit);
      if (!file) {
        if (error) *error = "cannot write " + options.emit;
        return std::nullopt;
      }
    }
    std::ostream& out = to_stdout ? std::cout : file;
    const std::vector<std::string> lines = churn_lines(*spec, events, "churn-0");
    for (const std::string& line : lines) out << line << '\n';
    out.flush();
    if (!out) {
      if (error) *error = "write error on " + options.emit;
      return std::nullopt;
    }
    DriveReport report;
    report.sent = lines.size();
    return report;
  }

  if (options.socket.empty() && options.tcp.empty()) {
    if (error)
      *error = "drive needs --socket=PATH or --tcp=HOST:PORT (or --emit=FILE)";
    return std::nullopt;
  }

  {
    const std::unique_ptr<LineClient> control =
        connect_line_client(options.socket, options.tcp, error);
    if (!control || !handshake(*control, error)) return std::nullopt;
  }

  const unsigned conns = options.conns == 0 ? 1 : options.conns;
  std::vector<std::unique_ptr<LineClient>> clients;
  for (unsigned c = 0; c < conns; ++c) {
    auto client = connect_line_client(options.socket, options.tcp, error);
    if (!client) return std::nullopt;
    clients.push_back(std::move(client));
  }

  std::ofstream capture_file;
  std::ostream* capture = nullptr;
  if (!options.churn_out.empty()) {
    if (options.churn_out == "-") {
      capture = &std::cout;
    } else {
      capture_file.open(options.churn_out);
      if (!capture_file) {
        if (error) *error = "cannot write " + options.churn_out;
        return std::nullopt;
      }
      capture = &capture_file;
    }
  }

  std::atomic<std::size_t> ok_count{0}, error_count{0}, rejected_count{0};
  std::atomic<std::size_t> transport_failures{0};
  obs::Histogram latency_hist{obs::latency_buckets_us()};
  std::atomic<std::uint64_t> max_latency_us{0};
  const Clock::time_point start = Clock::now();

  std::vector<std::thread> workers;
  for (unsigned c = 0; c < conns; ++c) {
    workers.emplace_back([&, c] {
      LineClient& client = *clients[c];
      const std::vector<std::string> lines =
          churn_lines(*spec, events, "churn-" + std::to_string(c));
      std::string response;
      for (const std::string& line : lines) {
        const Clock::time_point sent_at = Clock::now();
        if (!client.send_line(line) || !client.recv_line(&response)) {
          transport_failures.fetch_add(1);
          return;
        }
        const double us = std::chrono::duration<double, std::micro>(
                              Clock::now() - sent_at)
                              .count();
        latency_hist.record(us);
        const std::uint64_t us_int =
            static_cast<std::uint64_t>(us < 0.0 ? 0.0 : us);
        std::uint64_t prev = max_latency_us.load();
        while (us_int > prev &&
               !max_latency_us.compare_exchange_weak(prev, us_int)) {
        }
        if (response.find("\"ok\":true") != std::string::npos) {
          ok_count.fetch_add(1);
        } else {
          error_count.fetch_add(1);
          if (response.find("\"error\":\"overloaded\"") != std::string::npos)
            rejected_count.fetch_add(1);
        }
        // Only connection 0 captures: its session replay is a deterministic
        // byte stream, the cross-shard/transport identity artifact.
        if (c == 0 && capture != nullptr) *capture << response << '\n';
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  if (capture != nullptr) {
    capture->flush();
    if (!*capture) {
      if (error) *error = "write error on " + options.churn_out;
      return std::nullopt;
    }
  }
  const double elapsed_s =
      std::chrono::duration<double>(Clock::now() - start).count();

  DriveReport report;
  report.ok = ok_count.load();
  report.errors = error_count.load();
  report.rejected = rejected_count.load();
  report.transport_errors = transport_failures.load();
  report.sent = report.ok + report.errors;
  report.elapsed_s = elapsed_s;
  report.throughput =
      elapsed_s > 0.0 ? static_cast<double>(report.sent) / elapsed_s : 0.0;
  const obs::Histogram::Snapshot latency = latency_hist.snapshot();
  if (latency.count > 0) {
    report.p50_ms = latency.quantile(0.5) / 1000.0;
    report.p95_ms = latency.quantile(0.95) / 1000.0;
    report.p99_ms = latency.quantile(0.99) / 1000.0;
    report.max_ms = static_cast<double>(max_latency_us.load()) / 1000.0;
  }
  return report;
}

}  // namespace

std::string DriveReport::str() const {
  std::ostringstream out;
  out << "drive: " << sent << " requests, " << ok << " ok, " << errors
      << " errors (" << rejected << " rejected)\n";
  if (transport_errors > 0)
    out << "TRANSPORT FAILURE: " << transport_errors
        << " connection(s) died mid-run\n";
  out
      << "time:  " << elapsed_s << " s (" << throughput << " req/s)\n"
      << "latency: p50 " << p50_ms << " ms, p95 " << p95_ms << " ms, p99 "
      << p99_ms << " ms, max " << max_ms << " ms\n";
  if (cache_hit_rate >= 0.0)
    out << "cache: " << 100.0 * cache_hit_rate << "% hit rate\n";
  return out.str();
}

Json DriveReport::json() const {
  Json document = Json::object();
  document.set("sent", static_cast<std::int64_t>(sent));
  document.set("ok", static_cast<std::int64_t>(ok));
  document.set("errors", static_cast<std::int64_t>(errors));
  document.set("rejected", static_cast<std::int64_t>(rejected));
  document.set("transport_errors",
               static_cast<std::int64_t>(transport_errors));
  document.set("elapsed_s", elapsed_s);
  document.set("throughput", throughput);
  document.set("p50_ms", p50_ms);
  document.set("p95_ms", p95_ms);
  document.set("p99_ms", p99_ms);
  document.set("max_ms", max_ms);
  document.set("cache_hit_rate", cache_hit_rate);
  return document;
}

std::optional<DriveReport> drive(const DriveOptions& options,
                                 std::string* error) {
  if (!options.churn.empty()) return drive_churn(options, error);
  const auto payloads = build_payloads(options, error);
  if (!payloads) return std::nullopt;
  std::size_t requests = options.requests;
  if (requests == 0 && options.duration_s <= 0.0)
    requests = payloads->size();  // default: one pass over the corpus

  if (!options.emit.empty()) {
    // Emit mode: write the request stream for a stdio `serve` pipeline.
    const std::size_t count = requests == 0 ? payloads->size() : requests;
    std::ofstream file;
    const bool to_stdout = options.emit == "-";
    if (!to_stdout) {
      file.open(options.emit);
      if (!file) {
        if (error) *error = "cannot write " + options.emit;
        return std::nullopt;
      }
    }
    std::ostream& out = to_stdout ? std::cout : file;
    for (std::size_t i = 0; i < count; ++i)
      out << make_line(i, (*payloads)[i % payloads->size()]) << '\n';
    out.flush();
    if (!out) {
      if (error) *error = "write error on " + options.emit;
      return std::nullopt;
    }
    DriveReport report;
    report.sent = count;
    return report;
  }

  if (options.socket.empty() && options.tcp.empty()) {
    if (error)
      *error = "drive needs --socket=PATH or --tcp=HOST:PORT (or --emit=FILE)";
    return std::nullopt;
  }

  // Version handshake and the "before" cache counters on a control
  // connection closed before the run; every later stats fetch opens a
  // fresh one.
  double hits_before = 0.0, misses_before = 0.0;
  bool have_before = false;
  {
    const std::unique_ptr<LineClient> control =
        connect_line_client(options.socket, options.tcp, error);
    if (!control || !handshake(*control, error)) return std::nullopt;
    have_before =
        cache_counters(fetch_stats(*control), &hits_before, &misses_before);
  }

  const unsigned conns = options.conns == 0 ? 1 : options.conns;
  std::vector<std::unique_ptr<LineClient>> clients;
  for (unsigned c = 0; c < conns; ++c) {
    auto client = connect_line_client(options.socket, options.tcp, error);
    if (!client) return std::nullopt;
    clients.push_back(std::move(client));
  }

  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> ok_count{0}, error_count{0}, rejected_count{0};
  std::atomic<std::size_t> transport_failures{0};
  // One shared latency histogram (obs/metrics.hpp): recording is two
  // relaxed striped fetch_adds, so the measurement loop never allocates —
  // unlike the per-connection vectors it replaced.
  obs::Histogram latency_hist{obs::latency_buckets_us()};
  std::atomic<std::uint64_t> max_latency_us{0};
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      options.duration_s > 0.0
          ? start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(options.duration_s))
          : Clock::time_point::max();
  const double interval_s = options.qps > 0.0 ? 1.0 / options.qps : 0.0;

  // Mid-run stats poller: prints to stderr so a piped --json report stays
  // clean.
  std::atomic<bool> polling{true};
  std::thread poller;
  if (options.stats_interval_s > 0.0) {
    poller = std::thread([&] {
      const auto interval = std::chrono::duration_cast<Clock::duration>(
          std::chrono::duration<double>(options.stats_interval_s));
      Clock::time_point due = start + interval;
      while (polling.load()) {
        if (Clock::now() < due) {
          std::this_thread::sleep_for(std::chrono::milliseconds(10));
          continue;
        }
        due += interval;
        const std::optional<Json> document = fetch_stats(options);
        if (!document) return;  // service gone; stop quietly
        const double at_s =
            std::chrono::duration<double>(Clock::now() - start).count();
        std::cerr << render_stats_poll(*document, at_s);
      }
    });
  }

  std::vector<std::thread> workers;
  for (unsigned c = 0; c < conns; ++c) {
    workers.emplace_back([&, c] {
      LineClient& client = *clients[c];
      std::string response;
      for (;;) {
        const std::size_t i = next.fetch_add(1);
        if (requests != 0 && i >= requests) break;
        Clock::time_point reference = Clock::now();
        if (interval_s > 0.0) {
          // Open loop: request i is due at start + i/qps; latency is
          // charged from the *scheduled* time (no coordinated omission).
          const Clock::time_point scheduled =
              start + std::chrono::duration_cast<Clock::duration>(
                          std::chrono::duration<double>(
                              static_cast<double>(i) * interval_s));
          std::this_thread::sleep_until(scheduled);
          reference = scheduled;
          // The server reaps a connection left idle past its
          // --idle-timeout: reconnect rather than report a failure.
          if (client.peer_closed() &&
              !client.connect(options.socket, options.tcp, nullptr)) {
            transport_failures.fetch_add(1);
            break;
          }
        }
        if (Clock::now() >= deadline) break;
        const std::string line =
            make_line(i, (*payloads)[i % payloads->size()]);
        if (!client.send_line(line) || !client.recv_line(&response)) {
          // The peer vanished mid-run: surface it — a run that silently
          // stops early must not report success.
          transport_failures.fetch_add(1);
          break;
        }
        const double us = std::chrono::duration<double, std::micro>(
                              Clock::now() - reference)
                              .count();
        latency_hist.record(us);
        const std::uint64_t us_int =
            static_cast<std::uint64_t>(us < 0.0 ? 0.0 : us);
        std::uint64_t prev = max_latency_us.load();
        while (us_int > prev &&
               !max_latency_us.compare_exchange_weak(prev, us_int)) {
        }
        if (response.find("\"ok\":true") != std::string::npos) {
          ok_count.fetch_add(1);
        } else {
          error_count.fetch_add(1);
          if (response.find("\"error\":\"overloaded\"") != std::string::npos)
            rejected_count.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  polling.store(false);
  if (poller.joinable()) poller.join();
  const double elapsed_s =
      std::chrono::duration<double>(Clock::now() - start).count();
  if (options.stats_interval_s > 0.0) {
    // Flush the final partial window: a run shorter than the interval
    // would otherwise end with no decomposition rows at all.
    if (const std::optional<Json> document = fetch_stats(options))
      std::cerr << render_stats_poll(*document, elapsed_s);
  }

  DriveReport report;
  report.ok = ok_count.load();
  report.errors = error_count.load();
  report.rejected = rejected_count.load();
  report.transport_errors = transport_failures.load();
  report.sent = report.ok + report.errors;
  report.elapsed_s = elapsed_s;
  report.throughput =
      elapsed_s > 0.0 ? static_cast<double>(report.sent) / elapsed_s : 0.0;

  const obs::Histogram::Snapshot latency = latency_hist.snapshot();
  if (latency.count > 0) {
    report.p50_ms = latency.quantile(0.5) / 1000.0;
    report.p95_ms = latency.quantile(0.95) / 1000.0;
    report.p99_ms = latency.quantile(0.99) / 1000.0;
    report.max_ms = static_cast<double>(max_latency_us.load()) / 1000.0;
  }

  double hits_after = 0.0, misses_after = 0.0;
  if (have_before &&
      cache_counters(fetch_stats(options), &hits_after, &misses_after)) {
    const double lookups =
        (hits_after + misses_after) - (hits_before + misses_before);
    if (lookups > 0.0)
      report.cache_hit_rate = (hits_after - hits_before) / lookups;
  }
  return report;
}

}  // namespace msrs::serve
