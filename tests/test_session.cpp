// Online sessions: the SessionEngine differential harness (>=1000 fuzzed
// churn mutations, each snapshot pinned job for job against an independent
// fresh portfolio race), the wire session lifecycle with named errors,
// snapshot byte-identity across shard counts and across transports (stdio
// vs TCP), the serve.session.* telemetry surface, and the per-session
// admission fairness gate.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <future>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/instance_io.hpp"
#include "core/validate.hpp"
#include "engine/session.hpp"
#include "serve/serve.hpp"
#include "sim/arrivals.hpp"
#include "sim/workloads.hpp"
#include "test_support.hpp"

namespace msrs::engine {
namespace {

PortfolioOptions fast_portfolio() {
  PortfolioOptions options;
  options.budget_ms = 5;  // keep the race fields small for test speed
  options.threads = 1;
  return options;
}

// Replays one churn trace through a SessionEngine, snapshotting after
// EVERY mutation and pinning each snapshot against the oracle: a fresh
// PortfolioSolver::solve of the materialized instance. A memo repair and a
// race must both give exactly its schedule. Returns the mutation count.
std::size_t replay_differential(const ChurnSpec& spec) {
  SessionOptions options;
  options.portfolio = fast_portfolio();
  SessionEngine session(spec.machines, SolverRegistry::default_registry(),
                        options);
  PortfolioSolver oracle(SolverRegistry::default_registry(), fast_portfolio());
  std::size_t mutations = 0;
  for (const ChurnEvent& event : generate_churn(spec)) {
    if (event.kind == ChurnEvent::Kind::kSubmit) {
      const std::uint64_t id =
          session.submit("c" + std::to_string(event.cls), event.size);
      // Ids are a monotone counter: the trace's predicted target holds.
      EXPECT_EQ(id, static_cast<std::uint64_t>(event.target));
    } else if (event.kind == ChurnEvent::Kind::kCancel) {
      EXPECT_TRUE(session.cancel(static_cast<std::uint64_t>(event.target)))
          << "trace cancels only alive jobs";
    } else {
      continue;  // the trace's own snapshots are subsumed: we snapshot below
    }
    ++mutations;

    const SessionSnapshot& snap = session.snapshot();
    if (session.jobs_alive() == 0) {
      EXPECT_EQ(snap.source, SnapshotSource::kEmpty);
      EXPECT_EQ(snap.result.makespan, 0.0);
      EXPECT_TRUE(snap.result.valid);
      continue;
    }
    // The snapshot's schedule is valid on the materialized instance and
    // equal, job for job, to a fresh race's.
    EXPECT_TRUE(snap.result.valid);
    EXPECT_TRUE(validate(snap.instance, snap.result.schedule).ok())
        << "mutation " << mutations;
    const PortfolioResult fresh = oracle.solve(snap.instance);
    EXPECT_TRUE(fresh.valid);
    EXPECT_TRUE(test::same_schedule(snap.result.schedule, fresh.schedule))
        << "mutation " << mutations << " ("
        << snapshot_source_name(snap.source) << ")";
    EXPECT_EQ(snap.result.solver, fresh.solver) << "mutation " << mutations;
    EXPECT_EQ(snap.result.makespan, fresh.makespan)
        << "mutation " << mutations;
    EXPECT_EQ(snap.result.t_bound, fresh.t_bound) << "mutation " << mutations;
  }
  return mutations;
}

TEST(SessionDifferential, PoissonChurnPinnedAgainstFullResolve) {
  std::size_t mutations = 0;
  for (const std::uint64_t seed : {1, 2}) {
    ChurnSpec spec;
    spec.kind = ArrivalKind::kPoisson;
    spec.events = 250;
    spec.classes = 4;
    spec.machines = 4;
    spec.max_size = 20;  // few distinct sizes: shapes repeat, the memo hits
    spec.cancel = 0.4;
    spec.seed = seed;
    mutations += replay_differential(spec);
  }
  EXPECT_GE(mutations, 500u);
}

TEST(SessionDifferential, BurstyOnOffChurnPinnedAgainstFullResolve) {
  std::size_t mutations = 0;
  for (const std::uint64_t seed : {3, 4}) {
    ChurnSpec spec;
    spec.kind = ArrivalKind::kOnOff;
    spec.events = 250;
    spec.classes = 5;
    spec.machines = 3;
    spec.max_size = 30;
    spec.cancel = 0.45;  // heavy churn: deep cancel chains, empty refills
    spec.burst_len = 16;
    spec.seed = seed;
    mutations += replay_differential(spec);
  }
  // Both differential tests together replay >= 1000 fuzzed mutations.
  EXPECT_GE(mutations, 500u);
}

TEST(SessionEngine, CancelUndoingSubmitIsRepairedFromTheMemo) {
  SessionOptions options;
  options.portfolio = fast_portfolio();
  SessionEngine session(3, SolverRegistry::default_registry(), options);
  session.submit("a", 5);
  session.submit("a", 7);
  const double makespan = session.snapshot().result.makespan;  // resolve
  EXPECT_EQ(session.stats().fallbacks, 1u);
  const std::uint64_t extra = session.submit("b", 9);
  (void)session.snapshot();  // new shape: another full resolve
  EXPECT_EQ(session.stats().fallbacks, 2u);
  EXPECT_TRUE(session.cancel(extra));  // back to the first shape
  const SessionSnapshot& repaired = session.snapshot();
  EXPECT_EQ(repaired.source, SnapshotSource::kRepair);
  EXPECT_EQ(session.stats().repairs, 1u);
  EXPECT_EQ(session.stats().fallbacks, 2u);  // no third race
  EXPECT_EQ(repaired.result.makespan, makespan);
  EXPECT_TRUE(validate(repaired.instance, repaired.result.schedule).ok());
}

TEST(SessionEngine, OracleModeNeverRepairs) {
  SessionOptions options;
  options.portfolio = fast_portfolio();
  options.repair = false;
  SessionEngine session(2, SolverRegistry::default_registry(), options);
  const std::uint64_t job = session.submit("a", 4);
  (void)session.snapshot();
  EXPECT_TRUE(session.cancel(job));
  session.submit("a", 4);  // identical shape again
  (void)session.snapshot();
  EXPECT_EQ(session.stats().fallbacks, 2u);  // re-solved, never remapped
  EXPECT_EQ(session.stats().repairs, 0u);
}

TEST(SessionEngine, EmptySessionsAndCancelRulesAreExact) {
  SessionEngine session(4);
  const SessionSnapshot& empty = session.snapshot();
  EXPECT_EQ(empty.source, SnapshotSource::kEmpty);
  EXPECT_EQ(empty.result.solver, "empty");
  EXPECT_TRUE(empty.result.valid);
  EXPECT_EQ(session.jobs_alive(), 0u);
  EXPECT_FALSE(session.cancel(0));   // never assigned
  EXPECT_FALSE(session.cancel(99));  // out of range
  const std::uint64_t a = session.submit("x", 3);
  EXPECT_EQ(a, 0u);
  EXPECT_EQ(session.submit("y", 5), 1u);  // monotone ids
  EXPECT_TRUE(session.cancel(a));
  EXPECT_FALSE(session.cancel(a));  // double-cancel changes nothing
  EXPECT_EQ(session.jobs_alive(), 1u);
  EXPECT_EQ(session.classes_alive(), 1u);  // class "x" is empty now
  EXPECT_TRUE(session.cancel(1));
  EXPECT_EQ(session.snapshot().source, SnapshotSource::kEmpty);
}

}  // namespace
}  // namespace msrs::engine

namespace msrs::serve {
namespace {

ServiceOptions session_service(unsigned shards) {
  ServiceOptions options;
  options.shards = shards;
  options.budget_ms = 10;  // keep race fields small for test speed
  return options;
}

// ---------------- wire schema of the session ops ----------------

TEST(SessionWire, NamedErrorsForSessionDefects) {
  struct Case {
    const char* line;
    WireError expect;
  };
  const Case cases[] = {
      {R"({"op":"open_session"})", WireError::kBadRequest},
      {R"({"op":"open_session","session":""})", WireError::kBadRequest},
      {R"({"op":"open_session","session":"s","machines":0})",
       WireError::kBadRequest},
      {R"({"op":"submit_job","session":"s"})", WireError::kBadRequest},
      {R"({"op":"submit_job","session":"s","class":"c"})",
       WireError::kBadRequest},  // size absent (defaults 0 < 1)
      {R"({"op":"submit_job","session":"s","class":"c","size":-3})",
       WireError::kBadRequest},
      {R"({"op":"cancel_job","session":"s"})", WireError::kBadRequest},
      {R"({"op":"cancel_job","session":"s","job":-1})", WireError::kBadRequest},
      {R"({"op":"snapshot"})", WireError::kBadRequest},
      {R"({"op":"close_session","session":17})", WireError::kBadRequest},
  };
  for (const Case& test_case : cases) {
    WireError code = WireError::kShuttingDown;
    std::string detail;
    const auto request = parse_request(test_case.line, &code, &detail);
    EXPECT_FALSE(request.has_value()) << test_case.line;
    EXPECT_EQ(wire_error_name(code), wire_error_name(test_case.expect))
        << test_case.line;
    EXPECT_FALSE(detail.empty()) << test_case.line;
  }
  const auto good = parse_request(
      R"({"id":1,"op":"submit_job","session":"s1","class":"r","size":12})");
  ASSERT_TRUE(good.has_value());
  EXPECT_EQ(good->op, Op::kSubmitJob);
  EXPECT_EQ(good->session, "s1");
  EXPECT_EQ(good->job_class, "r");
  EXPECT_EQ(good->size, 12);
}

// ---------------- service lifecycle ----------------

TEST(SessionService, LifecycleAndNamedErrors) {
  Service service(session_service(2));
  const auto expect_contains = [&](const std::string& line,
                                   const char* token) {
    EXPECT_NE(service.handle(line).find(token), std::string::npos) << line;
  };
  expect_contains(R"({"op":"open_session","session":"s1","machines":4})",
                  "\"op\":\"open_session\"");
  expect_contains(R"({"op":"open_session","session":"s1"})",
                  "\"error\":\"bad_request\"");  // already open
  expect_contains(R"({"op":"submit_job","session":"s1","class":"a","size":5})",
                  "\"job\":0");
  expect_contains(R"({"op":"submit_job","session":"s1","class":"b","size":9})",
                  "\"job\":1");
  expect_contains(R"({"op":"cancel_job","session":"s1","job":0})",
                  "\"cancelled\":true");
  expect_contains(R"({"op":"cancel_job","session":"s1","job":0})",
                  "\"error\":\"unknown_job\"");  // double cancel
  expect_contains(R"({"op":"cancel_job","session":"s1","job":99})",
                  "\"error\":\"unknown_job\"");
  expect_contains(R"({"op":"snapshot","session":"s1"})", "\"jobs\":1");
  // Unknown sessions are named, for every session op.
  for (const char* line :
       {R"({"op":"submit_job","session":"ghost","class":"a","size":1})",
        R"({"op":"cancel_job","session":"ghost","job":0})",
        R"({"op":"snapshot","session":"ghost"})",
        R"({"op":"close_session","session":"ghost"})"})
    expect_contains(line, "\"error\":\"unknown_session\"");
  expect_contains(R"({"op":"close_session","session":"s1"})",
                  "\"op\":\"close_session\"");
  expect_contains(R"({"op":"snapshot","session":"s1"})",
                  "\"error\":\"unknown_session\"");  // state dropped
  // A closed name is reusable, with fresh state.
  expect_contains(R"({"op":"open_session","session":"s1"})",
                  "\"op\":\"open_session\"");
  expect_contains(R"({"op":"snapshot","session":"s1"})", "\"jobs\":0");
}

TEST(SessionService, SessionLimitIsNamedAndReleasedOnClose) {
  ServiceOptions options = session_service(4);
  options.session_limit = 2;
  Service service(options);
  EXPECT_NE(service.handle(R"({"op":"open_session","session":"a"})")
                .find("\"ok\":true"),
            std::string::npos);
  EXPECT_NE(service.handle(R"({"op":"open_session","session":"b"})")
                .find("\"ok\":true"),
            std::string::npos);
  // The cap is global across shards, and the breach is a named error.
  EXPECT_NE(service.handle(R"({"op":"open_session","session":"c"})")
                .find("\"error\":\"session_limit\""),
            std::string::npos);
  EXPECT_NE(service.handle(R"({"op":"close_session","session":"a"})")
                .find("\"ok\":true"),
            std::string::npos);
  EXPECT_NE(service.handle(R"({"op":"open_session","session":"c"})")
                .find("\"ok\":true"),
            std::string::npos);
}

TEST(SessionService, SnapshotCarriesRepairProvenance) {
  Service service(session_service(1));
  (void)service.handle(R"({"op":"open_session","session":"s","machines":3})");
  const std::string empty = service.handle(R"({"op":"snapshot","session":"s"})");
  EXPECT_NE(empty.find("\"solver\":\"empty\""), std::string::npos);
  EXPECT_NE(empty.find("\"source\":\"empty\""), std::string::npos);
  EXPECT_NE(empty.find("\"valid\":true"), std::string::npos);
  (void)service.handle(
      R"({"op":"submit_job","session":"s","class":"a","size":6})");
  EXPECT_NE(service.handle(R"({"op":"snapshot","session":"s"})")
                .find("\"source\":\"resolve\""),
            std::string::npos);
  (void)service.handle(
      R"({"op":"submit_job","session":"s","class":"b","size":4})");
  (void)service.handle(R"({"op":"snapshot","session":"s"})");
  // Cancel undoes the submit: the shape was seen before, so the session
  // repairs from its memo instead of racing the portfolio again.
  (void)service.handle(R"({"op":"cancel_job","session":"s","job":1})");
  EXPECT_NE(service.handle(R"({"op":"snapshot","session":"s"})")
                .find("\"source\":\"repair\""),
            std::string::npos);

  const obs::MetricsSnapshot snapshot = service.metrics_snapshot();
  EXPECT_EQ(snapshot.counter_or("serve.session.repairs"), 2u);  // empty+remap
  EXPECT_EQ(snapshot.counter_or("serve.session.fallbacks"), 2u);
}

// ---------------- telemetry surface ----------------

TEST(SessionService, StatsOpAndMetricsCoverSessions) {
  Service service(session_service(2));
  (void)service.handle(R"({"op":"open_session","session":"s"})");
  (void)service.handle(
      R"({"op":"submit_job","session":"s","class":"a","size":2})");
  (void)service.handle(
      R"({"op":"submit_job","session":"s","class":"a","size":7})");
  (void)service.handle(R"({"op":"cancel_job","session":"s","job":0})");
  (void)service.handle(R"({"op":"snapshot","session":"s"})");

  const std::optional<Json> stats =
      json_parse(service.handle(R"({"op":"stats"})"));
  ASSERT_TRUE(stats.has_value());
  const Json* sessions = stats->find("sessions");
  ASSERT_NE(sessions, nullptr);
  for (const char* key : {"active", "opened", "closed", "submits", "cancels",
                          "snapshots", "repairs", "fallbacks"})
    ASSERT_NE(sessions->find(key), nullptr) << key;
  EXPECT_EQ(sessions->find("active")->as_number(), 1.0);
  EXPECT_EQ(sessions->find("opened")->as_number(), 1.0);
  EXPECT_EQ(sessions->find("submits")->as_number(), 2.0);
  EXPECT_EQ(sessions->find("cancels")->as_number(), 1.0);
  EXPECT_EQ(sessions->find("snapshots")->as_number(), 1.0);

  (void)service.handle(R"({"op":"close_session","session":"s"})");
  const obs::MetricsSnapshot snapshot = service.metrics_snapshot();
  EXPECT_EQ(snapshot.counter_or("serve.session.closed"), 1u);
  EXPECT_EQ(snapshot.gauge_or("serve.session.active"), 0);
}

// ---------------- byte identity across shard counts ----------------

std::string serve_all(const std::string& input, unsigned shards) {
  Service service(session_service(shards));
  std::istringstream in(input);
  std::ostringstream out;
  EXPECT_EQ(serve_stdio(service, in, out), 0);
  return out.str();
}

// Emits the churn-trace request stream of a spec through the real driver
// path (`drive --churn --emit`).
std::string emit_churn(const std::string& spec) {
  const std::string path = ::testing::TempDir() + "msrs_churn_trace.jsonl";
  DriveOptions options;
  options.churn = spec;
  options.emit = path;
  std::string error;
  const std::optional<DriveReport> report = drive(options, &error);
  EXPECT_TRUE(report.has_value()) << error;
  std::ifstream file(path);
  std::stringstream buffer;
  buffer << file.rdbuf();
  std::remove(path.c_str());
  return buffer.str();
}

TEST(SessionServe, SnapshotBytesIdenticalAcrossShardCounts) {
  const std::string input = emit_churn(
      "poisson:events=120,classes=5,m=4,max=60,cancel=0.35,snap=6,seed=11");
  ASSERT_FALSE(input.empty());
  const std::string one = serve_all(input, 1);
  EXPECT_FALSE(one.empty());
  // The session memo is session-local and routing is by session name, so
  // the full response stream — including repair/resolve provenance — is a
  // pure function of the mutation history, not of the shard layout.
  EXPECT_EQ(one, serve_all(input, 2));
  EXPECT_EQ(one, serve_all(input, 4));
  EXPECT_NE(one.find("\"source\":"), std::string::npos);
  EXPECT_EQ(one.find("\"ok\":false"), std::string::npos);  // clean replay
}

// ---------------- byte identity across transports ----------------

// Runs serve_tcp on an ephemeral loopback port in a background thread
// (same shape as the fixture in test_tcp.cpp).
class TcpChurnServer {
 public:
  explicit TcpChurnServer(ServiceOptions service_options)
      : service_(service_options) {
    std::promise<std::uint16_t> promise;
    std::future<std::uint16_t> future = promise.get_future();
    TcpOptions options;
    options.tick_ms = 20;
    options.on_listen = [&promise](std::uint16_t p) { promise.set_value(p); };
    thread_ = std::thread([this, options] {
      std::string error;
      code_ = serve_tcp(service_, "", "127.0.0.1:0", &error, options);
      error_ = error;
    });
    port_ = future.get();
  }
  ~TcpChurnServer() { stop(); }
  void stop() {
    if (stopped_) return;
    stopped_ = true;
    request_stop();
    thread_.join();
    reset_stop();
    EXPECT_EQ(code_, 0) << error_;
  }
  std::string target() const { return "127.0.0.1:" + std::to_string(port_); }

 private:
  Service service_;
  std::thread thread_;
  std::uint16_t port_ = 0;
  int code_ = -1;
  std::string error_;
  bool stopped_ = false;
};

TEST(SessionServe, SnapshotBytesIdenticalAcrossTransports) {
  if (!tcp_transport_available())
    GTEST_SKIP() << "no TCP transport on this platform";
  const std::string spec =
      "onoff:events=80,classes=4,m=3,max=40,cancel=0.4,snap=8,blen=12,seed=9";
  // Reference: the same trace through the stdio transport.
  const std::string expected = serve_all(emit_churn(spec), 2);
  ASSERT_FALSE(expected.empty());

  // Live: `drive --churn --churn-out` against a TCP service. Connection 0
  // replays session "churn-0" — exactly the emitted stream.
  TcpChurnServer server(session_service(2));
  const std::string capture_path =
      ::testing::TempDir() + "msrs_churn_capture.jsonl";
  DriveOptions options;
  options.tcp = server.target();
  options.churn = spec;
  options.churn_out = capture_path;
  options.conns = 1;
  std::string error;
  const std::optional<DriveReport> report = drive(options, &error);
  ASSERT_TRUE(report.has_value()) << error;
  EXPECT_EQ(report->errors, 0u);
  EXPECT_EQ(report->transport_errors, 0u);
  server.stop();

  std::ifstream file(capture_path);
  std::stringstream captured;
  captured << file.rdbuf();
  std::remove(capture_path.c_str());
  EXPECT_EQ(captured.str(), expected);
}

// ---------------- admission fairness ----------------

TEST(SessionService, RejectModeShedsChurnBurstsByName) {
  ServiceOptions options = session_service(1);
  options.reject_when_full = true;
  options.session_queue_budget = 2;
  Service service(options);
  EXPECT_NE(service.handle(R"({"op":"open_session","session":"chatty"})")
                .find("\"ok\":true"),
            std::string::npos);
  // Occupy the single shard with one slow solve, then burst session
  // mutations: at most budget+1 can be queued/processing, the rest must be
  // shed with the named overloaded error — and every callback still fires.
  Json big = Json::object();
  big.set("op", "solve");
  big.set("instance", to_text(generate(Family::kUniform, 12000, 8, 1)));
  std::atomic<int> overloaded{0}, answered{0};
  const auto classify = [&](std::string&& response) {
    if (response.find("\"error\":\"overloaded\"") != std::string::npos)
      overloaded.fetch_add(1);
    answered.fetch_add(1);
  };
  service.submit(big.str(), classify);
  constexpr int kBurst = 24;
  for (int i = 0; i < kBurst; ++i)
    service.submit(
        R"({"op":"submit_job","session":"chatty","class":"a","size":1})",
        classify);
  EXPECT_TRUE(service.shutdown(std::chrono::seconds(60)));
  EXPECT_EQ(answered.load(), kBurst + 1);
  // With the shard busy, at most a couple of burst ops fit the budget; the
  // rest must be shed by name (>= 1 keeps this robust to scheduling luck).
  EXPECT_GE(overloaded.load(), 1);
}

TEST(SessionService, ChattySessionCannotStarveSolveTraffic) {
  // Blocking mode: the budget backpressures the chatty producer instead of
  // letting it occupy the whole shard queue, so concurrent solve traffic
  // keeps completing. The assertion is liveness: everything is answered
  // and the run terminates (with no gate, the producer could enqueue its
  // whole flood ahead of every solve).
  ServiceOptions options = session_service(1);
  options.session_queue_budget = 4;
  Service service(options);
  EXPECT_NE(service.handle(R"({"op":"open_session","session":"chatty"})")
                .find("\"ok\":true"),
            std::string::npos);
  std::atomic<int> session_answers{0};
  std::atomic<int> solve_ok{0};
  constexpr int kFlood = 200;
  std::thread chatty([&] {
    for (int i = 0; i < kFlood; ++i)
      service.submit(
          R"({"op":"submit_job","session":"chatty","class":"a","size":1})",
          [&](std::string&& response) {
            EXPECT_NE(response.find("\"ok\":true"), std::string::npos);
            session_answers.fetch_add(1);
          });
  });
  for (int i = 0; i < 10; ++i)
    service.submit(
        R"({"op":"solve","spec":"uniform:n=20,m=4,seed=)" +
            std::to_string(i + 1) + "\"}",
        [&](std::string&& response) {
          if (response.find("\"ok\":true") != std::string::npos)
            solve_ok.fetch_add(1);
        });
  chatty.join();
  EXPECT_TRUE(service.shutdown(std::chrono::seconds(60)));
  EXPECT_EQ(session_answers.load(), kFlood);
  EXPECT_EQ(solve_ok.load(), 10);
}

}  // namespace
}  // namespace msrs::serve
