// The event-loop transport: its building blocks (timer wheel, line
// framer, host:port parsing), then — over both address families it listens
// on, TCP and a UNIX path — byte-identity with the stdio transport under
// adversarial packetization, fault injection (silent client, client killed
// mid-request, a client that never reads, over-budget floods), drain, the
// >=256-connection fan-in acceptance bar, and the HTTP exposition listener.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <future>
#include <limits>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "serve/serve.hpp"

namespace msrs::serve {
namespace {

// ---------------- event-loop building blocks ----------------

TEST(TimerWheel, ExpiresArmedKeysOncePassedTheirDeadline) {
  TimerWheel wheel(10, 8);
  wheel.arm(1, 95);
  std::vector<int> expired;
  wheel.advance(50, &expired);
  EXPECT_TRUE(expired.empty());
  wheel.advance(100, &expired);
  ASSERT_EQ(expired.size(), 1u);
  EXPECT_EQ(expired[0], 1);
  EXPECT_EQ(wheel.armed(), 0u);
}

TEST(TimerWheel, ReArmingPushesTheDeadlineWithoutDoubleFiring) {
  TimerWheel wheel(10, 8);
  wheel.arm(5, 30);
  std::vector<int> expired;
  wheel.advance(20, &expired);
  EXPECT_TRUE(expired.empty());
  wheel.arm(5, 100);  // activity on the connection: deadline moves out
  wheel.advance(50, &expired);
  EXPECT_TRUE(expired.empty()) << "stale slot entry fired early";
  wheel.advance(120, &expired);
  ASSERT_EQ(expired.size(), 1u);
  EXPECT_EQ(expired[0], 5);
}

TEST(TimerWheel, CancelDisarmsAndLongSleepsLapTheWholeWheel) {
  TimerWheel wheel(10, 8);
  wheel.arm(7, 40);
  wheel.cancel(7);
  wheel.arm(9, 60);
  std::vector<int> expired;
  // A jump much longer than one wheel revolution must still visit every
  // slot exactly once and fire the armed key.
  wheel.advance(10'000, &expired);
  ASSERT_EQ(expired.size(), 1u);
  EXPECT_EQ(expired[0], 9);
}

TEST(LineFramer, ReassemblesLinesFromOneByteAppends) {
  LineFramer framer(1024);
  const std::string stream = "first\nsecond\n\nlast-no-newline";
  std::vector<std::string> lines;
  std::string line;
  for (const char byte : stream) {
    framer.append(&byte, 1);
    while (framer.next_line(&line)) lines.push_back(line);
  }
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(lines[0], "first");
  EXPECT_EQ(lines[1], "second");
  EXPECT_EQ(lines[2], "");  // empty frames surface; transports skip them
  EXPECT_FALSE(framer.overflowed());
  EXPECT_EQ(framer.take_remainder(), "last-no-newline");
  EXPECT_EQ(framer.buffered(), 0u);
}

TEST(LineFramer, CoalescedSegmentYieldsEveryFrame) {
  LineFramer framer(1024);
  const std::string segment = "{\"op\":\"ping\"}\n{\"op\":\"version\"}\n";
  framer.append(segment.data(), segment.size());
  std::string line;
  ASSERT_TRUE(framer.next_line(&line));
  EXPECT_EQ(line, "{\"op\":\"ping\"}");
  ASSERT_TRUE(framer.next_line(&line));
  EXPECT_EQ(line, "{\"op\":\"version\"}");
  EXPECT_FALSE(framer.next_line(&line));
  EXPECT_GE(framer.highwater(), segment.size());
}

TEST(LineFramer, OverflowLatchesOnceTheTailExceedsTheBound) {
  LineFramer framer(16);
  const std::string flood(64, 'x');  // no newline anywhere
  framer.append(flood.data(), flood.size());
  EXPECT_TRUE(framer.overflowed());
  // Latch: still overflowed after a newline finally arrives.
  framer.append("\n", 1);
  EXPECT_TRUE(framer.overflowed());
}

TEST(ParseHostPort, AcceptsValidAndRejectsMalformedTargets) {
  std::string host;
  std::uint16_t port = 0;
  std::string error;
  ASSERT_TRUE(parse_host_port("127.0.0.1:8080", &host, &port, &error));
  EXPECT_EQ(host, "127.0.0.1");
  EXPECT_EQ(port, 8080);
  ASSERT_TRUE(parse_host_port("localhost:0", &host, &port, &error));
  EXPECT_EQ(port, 0);  // ephemeral
  for (const char* bad :
       {"no-port", ":7", "host:", "host:abc", "host:70000", "host:-1"}) {
    EXPECT_FALSE(parse_host_port(bad, &host, &port, &error)) << bad;
    EXPECT_FALSE(error.empty()) << bad;
  }
}

// ---------------- in-process server fixture ----------------

ServiceOptions small_service(unsigned shards) {
  ServiceOptions options;
  options.shards = shards;
  options.budget_ms = 10;  // keep race fields small for test speed
  return options;
}

// The two address families the event loop listens on.
enum class AddressFamily { kTcp, kUnix };

std::string family_name(const ::testing::TestParamInfo<AddressFamily>& info) {
  return info.param == AddressFamily::kTcp ? "tcp" : "unix";
}

// A fresh UNIX socket path: ctest runs test binaries in parallel, so the
// pid keeps their paths apart.
std::string unix_socket_path() {
  static int counter = 0;
  return ::testing::TempDir() + "msrs_loop_" + std::to_string(::getpid()) +
         "_" + std::to_string(counter++) + ".sock";
}

// Runs serve_tcp on an ephemeral loopback port or a fresh UNIX path in a
// background thread, optionally with the HTTP listener (TcpOptions::http).
// stop() ends the loop via the cooperative stop flag (works even when
// every budget slot is taken); join() waits for a `shutdown` op to end it.
class LoopTestServer {
 public:
  explicit LoopTestServer(AddressFamily family, ServiceOptions service_options,
                          TcpOptions options = {})
      : service_(service_options) {
    if (family == AddressFamily::kUnix) unix_path_ = unix_socket_path();
    std::promise<std::uint16_t> jsonl_promise, http_promise;
    std::future<std::uint16_t> jsonl_port = jsonl_promise.get_future();
    std::future<std::uint16_t> http_port = http_promise.get_future();
    options.on_listen = [&jsonl_promise](std::uint16_t p) {
      jsonl_promise.set_value(p);
    };
    options.on_http_listen = [&http_promise](std::uint16_t p) {
      http_promise.set_value(p);
    };
    if (options.tick_ms <= 0 || options.tick_ms > 20)
      options.tick_ms = 20;  // keep stop() and reaping prompt in tests
    const std::string host_port =
        family == AddressFamily::kTcp ? "127.0.0.1:0" : "";
    thread_ = std::thread([this, options, host_port] {
      std::string error;
      code_ = serve_tcp(service_, unix_path_, host_port, &error, options);
      error_ = error;
    });
    const std::uint16_t port = jsonl_port.get();
    if (family == AddressFamily::kTcp)
      host_port_ = "127.0.0.1:" + std::to_string(port);
    if (!options.http.empty())
      http_target_ = "127.0.0.1:" + std::to_string(http_port.get());
  }

  ~LoopTestServer() { stop(); }

  void stop() {
    if (stopped_) return;
    request_stop();
    join();
  }

  void join() {
    if (stopped_) return;
    stopped_ = true;
    thread_.join();
    reset_stop();
    EXPECT_EQ(code_, 0) << error_;
  }

  bool connect(LineClient& client, std::string* error) const {
    return client.connect(unix_path_, host_port_, error);
  }

  // The listen address in DriveOptions form.
  void target(DriveOptions* options) const {
    options->socket = unix_path_;
    options->tcp = host_port_;
  }

  const std::string& http_target() const { return http_target_; }
  Service& service() { return service_; }

 private:
  Service service_;
  std::thread thread_;
  std::string unix_path_;    // set for the UNIX family
  std::string host_port_;    // set for the TCP family
  std::string http_target_;  // set with TcpOptions::http
  int code_ = -1;
  std::string error_;
  bool stopped_ = false;
};

// Polls a metrics gauge until it reaches `want` (event-loop teardown is
// asynchronous relative to the client's view of the close).
[[nodiscard]] bool wait_for_gauge(Service& service, const std::string& name,
                                  std::int64_t want) {
  for (int i = 0; i < 500; ++i) {
    if (service.metrics_snapshot().gauge_or(name) == want) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return false;
}

[[nodiscard]] bool wait_for_counter(Service& service, const std::string& name,
                                    std::uint64_t at_least) {
  for (int i = 0; i < 500; ++i) {
    if (service.metrics_snapshot().counter_or(name) >= at_least) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return false;
}

// Every TEST_P below runs once per address family.
class LoopTransport : public ::testing::TestWithParam<AddressFamily> {
 protected:
  void SetUp() override {
    if (!tcp_transport_available())
      GTEST_SKIP() << "no event-loop transport on this platform";
  }
};

INSTANTIATE_TEST_SUITE_P(Both, LoopTransport,
                         ::testing::Values(AddressFamily::kTcp,
                                           AddressFamily::kUnix),
                         family_name);

// ---------------- byte-identity with the stdio transport ----------------

std::string stdio_serve_all(const std::string& input, unsigned shards) {
  Service service(small_service(shards));
  std::istringstream in(input);
  std::ostringstream out;
  EXPECT_EQ(serve_stdio(service, in, out), 0);
  return out.str();
}

// The adversarial request stream: control ops, real solves (repeats for
// cache traffic), every named defect, blank lines, trailing garbage with
// no final newline.
std::string adversarial_stream() {
  std::string stream;
  stream += "{\"id\":1,\"op\":\"ping\"}\n";
  stream += "\n";  // blank line: skipped by both transports
  stream += "{\"id\":2,\"op\":\"solve\",\"spec\":\"uniform:n=14,m=3,seed=4\"}\n";
  stream += "{\"id\":3,\"op\":\"version\"}\n";
  stream += "}{ not json\n";
  stream += "{\"id\":4,\"op\":\"solve\",\"spec\":\"uniform:n=14,m=3,seed=4\"}\n";
  stream += "{\"op\":\"solve\",\"spec\":\"no_such_family:n=4\"}\n";
  stream += "{\"id\":5,\"op\":\"fly\"}\n";
  stream += "{\"id\":6,\"op\":\"solve\",\"spec\":\"uniform:n=10,m=2,seed=9\"}\n";
  stream += "trailing garbage without newline";  // final unterminated line
  return stream;
}

// Sends `bytes` in fixed-size chunks over a fresh connection, half-closes,
// and returns everything the server wrote until EOF.
std::string roundtrip_chunked(const LoopTestServer& server,
                              const std::string& bytes, std::size_t chunk) {
  LineClient client;
  std::string error;
  EXPECT_TRUE(server.connect(client, &error)) << error;
  for (std::size_t i = 0; i < bytes.size(); i += chunk) {
    EXPECT_TRUE(
        client.send_bytes(bytes.data() + i, std::min(chunk, bytes.size() - i)));
    // Give tiny segments a chance to arrive as separate reads now and
    // then; correctness must not depend on it either way.
    if (chunk == 1 && i % 64 == 0)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  client.shutdown_write();  // orderly EOF: server flushes the final line
  std::string out;
  std::string line;
  while (client.recv_line(&line)) {
    out += line;
    out += '\n';
  }
  return out;
}

TEST_P(LoopTransport, ByteIdenticalToStdioUnderAdversarialChunking) {
  const std::string stream = adversarial_stream();
  const std::string expected = stdio_serve_all(stream, 2);
  ASSERT_FALSE(expected.empty());
  // The same shard count on the serving side; chunk sizes cover 1-byte
  // writes, splits through the middle of every JSON document, and the
  // whole stream coalesced into one segment.
  for (const std::size_t chunk : {std::size_t{1}, std::size_t{7},
                                  std::size_t{64}, stream.size()}) {
    LoopTestServer server(GetParam(), small_service(2));
    EXPECT_EQ(roundtrip_chunked(server, stream, chunk), expected)
        << "chunk=" << chunk;
    server.stop();
  }
}

TEST_P(LoopTransport, ResponsesStayInRequestOrderAcrossShardCounts) {
  // Mixed-cost solves race across shards; the per-connection writer must
  // restore request order, so 1-shard and 4-shard responses are identical.
  std::string stream;
  for (int i = 0; i < 12; ++i)
    stream += "{\"id\":" + std::to_string(i) +
              ",\"op\":\"solve\",\"spec\":\"uniform:n=" +
              std::to_string(10 + 10 * (i % 4)) + ",m=2,seed=" +
              std::to_string(1 + i % 3) + "\"}\n";
  std::string outputs[2];
  const unsigned shard_counts[2] = {1, 4};
  for (int run = 0; run < 2; ++run) {
    LoopTestServer server(GetParam(), small_service(shard_counts[run]));
    outputs[run] = roundtrip_chunked(server, stream, 13);
    server.stop();
  }
  EXPECT_EQ(outputs[0], outputs[1]);
}

TEST_P(LoopTransport, OversizedLineIsNamedParseErrorThenClose) {
  TcpOptions options;
  options.max_line_bytes = 128;
  LoopTestServer server(GetParam(), small_service(1), options);
  LineClient client;
  std::string error;
  ASSERT_TRUE(server.connect(client, &error)) << error;
  const std::string flood(4096, 'x');  // no newline: unbounded-line attack
  ASSERT_TRUE(client.send_bytes(flood.data(), flood.size()));
  std::string line;
  ASSERT_TRUE(client.recv_line(&line));
  EXPECT_NE(line.find("\"error\":\"parse_error\""), std::string::npos);
  EXPECT_FALSE(client.recv_line(&line));  // EOF: connection is closed
  EXPECT_TRUE(wait_for_gauge(server.service(), "serve.conns.active", 0));
}

// ---------------- fault injection ----------------

TEST_P(LoopTransport, SilentClientIsReapedByIdleTimeout) {
  TcpOptions options;
  options.idle_timeout_ms = 100;
  options.tick_ms = 10;
  LoopTestServer server(GetParam(), small_service(1), options);
  LineClient silent;
  std::string error;
  ASSERT_TRUE(server.connect(silent, &error)) << error;
  // Never sends a byte: the server must close it of its own accord.
  std::string line;
  EXPECT_FALSE(silent.recv_line(&line));  // EOF from the reaper
  EXPECT_TRUE(
      wait_for_counter(server.service(), "serve.conns.idle_reaped", 1));
  EXPECT_TRUE(wait_for_gauge(server.service(), "serve.conns.active", 0));
  // An active client with the same timeout keeps its connection: every
  // request re-arms the idle deadline.
  LineClient busy;
  ASSERT_TRUE(server.connect(busy, &error)) << error;
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(busy.send_line("{\"op\":\"ping\"}"));
    ASSERT_TRUE(busy.recv_line(&line)) << "reaped a live connection at " << i;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
}

TEST_P(LoopTransport, ClientKilledMidRequestLeaksNothing) {
  LoopTestServer server(GetParam(), small_service(2));
  // A batch of casualties: each sends a real solve, then dies without
  // reading its response (RST over TCP). Every fd and connection record
  // must be reclaimed (gauge back to zero; ASan owns the leak check).
  for (int i = 0; i < 8; ++i) {
    LineClient victim;
    std::string error;
    ASSERT_TRUE(server.connect(victim, &error)) << error;
    ASSERT_TRUE(victim.send_line(
        "{\"id\":1,\"op\":\"solve\",\"spec\":\"uniform:n=40,m=4,seed=" +
        std::to_string(i + 1) + "\"}"));
    victim.abort_connection();
  }
  EXPECT_TRUE(wait_for_gauge(server.service(), "serve.conns.active", 0));
  // The service survived and still answers.
  LineClient probe;
  std::string error;
  ASSERT_TRUE(server.connect(probe, &error)) << error;
  std::string line;
  ASSERT_TRUE(probe.send_line("{\"op\":\"ping\"}"));
  ASSERT_TRUE(probe.recv_line(&line));
  EXPECT_NE(line.find("\"ok\":true"), std::string::npos);
}

TEST_P(LoopTransport, ClientThatNeverReadsCannotStallAnotherClientsSolve) {
  // A client that pipelines solves and never reads must not hold up
  // another client of the same shard: shard workers only append to a
  // connection's outbox, and the loop stops reading a connection whose
  // outbox is past the write gate.
  LoopTestServer server(GetParam(), small_service(1));
  LineClient hog;
  std::string error;
  ASSERT_TRUE(server.connect(hog, &error)) << error;
  // A long echoed id makes each request and response about 4 KiB, so the
  // socket buffers and the write gate fill after a few thousand solves.
  const std::string solve = "{\"id\":\"" + std::string(4000, 'h') +
                            "\",\"op\":\"solve\","
                            "\"spec\":\"uniform:n=8,m=2,seed=1\"}";
  std::atomic<std::size_t> sent{0};
  std::thread pipeliner([&hog, &sent, &solve] {
    while (hog.send_line(solve)) sent.fetch_add(1);
  });
  // The write gate stops the loop reading the hog, so its sends block and
  // no more of its lines are admitted: both counts stand still for 300 ms.
  Service& service = server.service();
  std::size_t last_sent = 0;
  std::uint64_t last_received = 0;
  int quiet = 0;
  for (int poll = 0; poll < 400 && quiet < 6; ++poll) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    const std::size_t now_sent = sent.load();
    const std::uint64_t now_received =
        service.metrics_snapshot().counter_or("serve.received");
    quiet = now_sent > 0 && now_sent == last_sent &&
                    now_received == last_received
                ? quiet + 1
                : 0;
    last_sent = now_sent;
    last_received = now_received;
  }
  EXPECT_EQ(quiet, 6) << "the loop kept reading a client that never reads ("
                      << sent.load() << " lines pipelined)";
  // The gate bounds the hog's outbox by itself plus the responses to the
  // lines admitted before it closed: about 1 MiB here, where without the
  // gate every response piles up (over 500 MiB within seconds).
  EXPECT_LT(service.metrics_snapshot().gauge_or(
                "serve.conns.write_buf_highwater"),
            16 << 20);

  LineClient other;
  EXPECT_TRUE(server.connect(other, &error)) << error;
  EXPECT_TRUE(other.send_line(
      R"({"id":7,"op":"solve","spec":"uniform:n=12,m=3,seed=5"})"));
  std::string line;
  std::future<bool> answered = std::async(
      std::launch::async, [&other, &line] { return other.recv_line(&line); });
  EXPECT_EQ(answered.wait_for(std::chrono::seconds(5)),
            std::future_status::ready)
      << "a client that never reads stalled the shard (" << sent.load()
      << " lines pipelined)";

  // Unblock the pipeliner (its blocked send fails once the write side is
  // shut), then drop the hog with its responses unread.
  hog.shutdown_write();
  pipeliner.join();
  hog.close();
  EXPECT_TRUE(answered.get());
  EXPECT_NE(line.find("\"id\":7"), std::string::npos) << line;
  EXPECT_NE(line.find("\"ok\":true"), std::string::npos) << line;
  server.stop();  // and the loop still drains and returns 0
}

TEST_P(LoopTransport, BudgetShedsOverflowWithNamedErrorAndRecovers) {
  TcpOptions options;
  options.max_connections = 2;
  LoopTestServer server(GetParam(), small_service(1), options);
  std::string error;
  std::string line;
  // Fill the budget (N connections against --max-conns N).
  std::vector<std::unique_ptr<LineClient>> holders;
  for (int i = 0; i < 2; ++i) {
    auto holder = std::make_unique<LineClient>();
    ASSERT_TRUE(server.connect(*holder, &error)) << error;
    ASSERT_TRUE(holder->send_line(R"({"id":1,"op":"ping"})"));
    ASSERT_TRUE(holder->recv_line(&line));
    EXPECT_NE(line.find("\"ok\":true"), std::string::npos);
    holders.push_back(std::move(holder));
  }
  // Connection N+1: one named overloaded line, then EOF.
  LineClient extra;
  ASSERT_TRUE(server.connect(extra, &error)) << error;
  ASSERT_TRUE(extra.recv_line(&line));
  EXPECT_NE(line.find("\"error\":\"overloaded\""), std::string::npos);
  EXPECT_FALSE(extra.recv_line(&line));
  // Drop one holder and keep the other, so exactly one slot is free. A
  // slot frees the instant its connection ends, so once the active gauge
  // reads 1 (the remaining holder) the next client MUST be admitted, round
  // after round: a closed connection that kept its slot for a while would
  // be shed here.
  holders[1]->close();
  for (int round = 0; round < 20; ++round) {
    ASSERT_TRUE(wait_for_gauge(server.service(), "serve.conns.active", 1))
        << "round " << round;
    LineClient next;
    ASSERT_TRUE(server.connect(next, &error)) << error;
    ASSERT_TRUE(next.send_line(R"({"op":"ping"})"));
    ASSERT_TRUE(next.recv_line(&line)) << "round " << round;
    EXPECT_NE(line.find("\"ok\":true"), std::string::npos)
        << "round " << round << ": " << line;
  }
  // A `shutdown` op ends the loop; every count is exact.
  holders[0]->close();
  ASSERT_TRUE(wait_for_gauge(server.service(), "serve.conns.active", 0));
  LineClient closer;
  ASSERT_TRUE(server.connect(closer, &error)) << error;
  ASSERT_TRUE(closer.send_line(R"({"op":"shutdown"})"));
  ASSERT_TRUE(closer.recv_line(&line));
  ASSERT_NE(line.find("\"ok\":true"), std::string::npos) << line;
  server.join();
  const obs::MetricsSnapshot snapshot = server.service().metrics_snapshot();
  EXPECT_EQ(snapshot.counter_or("serve.conns.accepted"), 23u);  // 2+20+1
  EXPECT_EQ(snapshot.counter_or("serve.conns.shed"), 1u);
  EXPECT_EQ(snapshot.gauge_or("serve.conns.active"), 0);
}

TEST_P(LoopTransport, ShedIsCountedInTheWatchdogsSheds) {
  TcpOptions options;
  options.max_connections = 1;
  options.monitor_interval_ms = 0;  // the test ticks the watchdog itself
  LoopTestServer server(GetParam(), small_service(1), options);
  Service& service = server.service();
  service.monitor_tick();  // baseline point
  LineClient holder;
  LineClient extra;
  std::string error;
  std::string line;
  ASSERT_TRUE(server.connect(holder, &error)) << error;
  ASSERT_TRUE(holder.send_line(R"({"op":"ping"})"));
  ASSERT_TRUE(holder.recv_line(&line));
  ASSERT_TRUE(server.connect(extra, &error)) << error;
  ASSERT_TRUE(extra.recv_line(&line));
  EXPECT_NE(line.find("\"error\":\"overloaded\""), std::string::npos);
  ASSERT_TRUE(wait_for_counter(service, "serve.conns.shed", 1));
  service.monitor_tick();
  EXPECT_EQ(service.watchdog().ring().back().sheds, 1u);
}

TEST_P(LoopTransport, StatsOpCoversTheConnsSection) {
  LoopTestServer server(GetParam(), small_service(1));
  LineClient client;
  std::string error;
  ASSERT_TRUE(server.connect(client, &error)) << error;
  std::string line;
  ASSERT_TRUE(client.send_line("{\"op\":\"ping\"}"));
  ASSERT_TRUE(client.recv_line(&line));
  ASSERT_TRUE(client.send_line("{\"op\":\"stats\"}"));
  ASSERT_TRUE(client.recv_line(&line));
  const std::optional<Json> document = json_parse(line);
  ASSERT_TRUE(document.has_value()) << line;
  EXPECT_EQ(document->find("tcp"), nullptr) << line;
  const Json* conns = document->find("conns");
  ASSERT_NE(conns, nullptr) << line;
  for (const char* key : {"accepted", "shed", "idle_reaped", "active",
                          "read_buf_highwater", "write_buf_highwater"})
    ASSERT_NE(conns->find(key), nullptr) << key;
  EXPECT_EQ(conns->find("accepted")->as_number(), 1.0);
  EXPECT_EQ(conns->find("active")->as_number(), 1.0);
  EXPECT_GT(conns->find("read_buf_highwater")->as_number(), 0.0);
}

TEST_P(LoopTransport, ShutdownOpAnswersDrainsAndExits) {
  LoopTestServer server(GetParam(), small_service(1));
  LineClient client;
  std::string error;
  ASSERT_TRUE(server.connect(client, &error)) << error;
  // A solve queued before the shutdown op must still be answered, in
  // order, before the connection closes.
  ASSERT_TRUE(client.send_line(
      R"({"id":1,"op":"solve","spec":"uniform:n=20,m=3,seed=2"})"));
  ASSERT_TRUE(client.send_line(R"({"id":2,"op":"shutdown"})"));
  std::string line;
  ASSERT_TRUE(client.recv_line(&line));
  EXPECT_NE(line.find("\"id\":1"), std::string::npos);
  EXPECT_NE(line.find("\"ok\":true"), std::string::npos);
  ASSERT_TRUE(client.recv_line(&line));
  EXPECT_NE(line.find("\"op\":\"shutdown\""), std::string::npos);
  EXPECT_FALSE(client.recv_line(&line));  // server closed after the drain
  server.join();  // the shutdown op ended the loop
}

TEST_P(LoopTransport, ShutdownDrainsLiveSessionsInOrder) {
  LoopTestServer server(GetParam(), small_service(2));
  LineClient client;
  std::string error;
  ASSERT_TRUE(server.connect(client, &error)) << error;
  // A live session's queued mutations and in-flight snapshot must all be
  // answered, in request order, before the shutdown ack closes the stream.
  ASSERT_TRUE(client.send_line(
      R"({"id":1,"op":"open_session","session":"drain","machines":3})"));
  for (int i = 0; i < 4; ++i)
    ASSERT_TRUE(client.send_line(
        R"({"id":)" + std::to_string(i + 2) +
        R"(,"op":"submit_job","session":"drain","class":"c0","size":)" +
        std::to_string(i + 7) + "}"));
  ASSERT_TRUE(
      client.send_line(R"({"id":6,"op":"snapshot","session":"drain"})"));
  ASSERT_TRUE(client.send_line(R"({"id":7,"op":"shutdown"})"));
  std::string line;
  for (int id = 1; id <= 6; ++id) {
    ASSERT_TRUE(client.recv_line(&line)) << "id " << id;
    EXPECT_NE(line.find("\"id\":" + std::to_string(id)), std::string::npos)
        << line;
    EXPECT_NE(line.find("\"ok\":true"), std::string::npos) << line;
  }
  EXPECT_NE(line.find("\"jobs\":4"), std::string::npos) << line;
  EXPECT_NE(line.find("\"valid\":true"), std::string::npos) << line;
  ASSERT_TRUE(client.recv_line(&line));
  EXPECT_NE(line.find("\"op\":\"shutdown\""), std::string::npos);
  EXPECT_FALSE(client.recv_line(&line));  // closed after the session drain
  server.join();
}

// ---------------- fan-in acceptance ----------------

TEST_P(LoopTransport, Sustains256ConcurrentDriverConnections) {
  TcpOptions options;
  options.max_connections = 512;
  ServiceOptions service_options = small_service(4);
  service_options.budget_ms = 5;
  LoopTestServer server(GetParam(), service_options, options);

  DriveOptions drive_options;
  server.target(&drive_options);
  drive_options.specs = {"uniform:n=10,m=2,seed=1"};
  drive_options.seeds_per_spec = 8;
  drive_options.requests = 2048;
  drive_options.conns = 256;
  std::string error;
  const std::optional<DriveReport> report = drive(drive_options, &error);
  ASSERT_TRUE(report.has_value()) << error;
  EXPECT_EQ(report->sent, 2048u);
  EXPECT_EQ(report->ok, 2048u);
  EXPECT_EQ(report->errors, 0u);
  EXPECT_EQ(report->transport_errors, 0u);

  const obs::MetricsSnapshot snapshot = server.service().metrics_snapshot();
  EXPECT_GE(snapshot.counter_or("serve.conns.accepted"), 257u);  // +control
  EXPECT_EQ(snapshot.counter_or("serve.conns.shed"), 0u);
  server.stop();
  EXPECT_TRUE(wait_for_gauge(server.service(), "serve.conns.active", 0));
}

TEST_P(LoopTransport, DriveOutlastsTheIdleTimeout) {
  // An open loop slower than the idle timeout: the server reaps the
  // driver's connections between requests. The drive must still send
  // every request and read the cache counters after the run.
  TcpOptions options;
  options.idle_timeout_ms = 100;
  options.tick_ms = 10;
  LoopTestServer server(GetParam(), small_service(1), options);
  DriveOptions drive_options;
  server.target(&drive_options);
  drive_options.specs = {"uniform:n=10,m=2,seed=1"};
  drive_options.seeds_per_spec = 1;
  drive_options.requests = 3;
  drive_options.qps = 4.0;  // 250 ms between requests
  std::string error;
  const std::optional<DriveReport> report = drive(drive_options, &error);
  ASSERT_TRUE(report.has_value()) << error;
  EXPECT_EQ(report->ok, 3u);
  EXPECT_EQ(report->transport_errors, 0u);
  EXPECT_GE(report->cache_hit_rate, 0.0);
  EXPECT_GE(server.service().metrics_snapshot().counter_or(
                "serve.conns.idle_reaped"),
            2u);
}

// ---------------- request lines of many keys ----------------

// A request line just under the 1 MiB line bound, all distinct keys:
// `{"op":"ping","k0":0,...}` or, as an id object, `{"id":{"k0":0,...},
// "op":"ping"}`.
std::string many_keys_line(bool as_id) {
  std::string line = as_id ? R"({"id":{)" : R"({"op":"ping",)";
  const std::string tail = as_id ? R"(},"op":"ping"})" : "}";
  for (int k = 0; line.size() + tail.size() + 16 < (1u << 20); ++k) {
    if (k > 0) line += ',';
    line += "\"k" + std::to_string(k) + "\":0";
  }
  return line + tail;
}

TEST_P(LoopTransport, AMebibyteOfDistinctKeysDoesNotHoldTheLoop) {
  // Object parsing is linear in the member count: a line of ~1 MiB of
  // distinct keys is answered, and a ping on another connection behind
  // it answers within 2 s. A scan of every earlier key per member took
  // about 30 s for this line in an optimized build. Unoptimized and
  // sanitizer builds parse the id object several times slower, so they
  // get 10 s.
#if defined(NDEBUG) && !defined(__SANITIZE_ADDRESS__) && \
    !defined(__SANITIZE_THREAD__)
  constexpr auto kPingBound = std::chrono::seconds(2);
#else
  constexpr auto kPingBound = std::chrono::seconds(10);
#endif
  LoopTestServer server(GetParam(), small_service(1));
  LineClient heavy, probe;
  std::string error;
  ASSERT_TRUE(server.connect(heavy, &error)) << error;
  ASSERT_TRUE(server.connect(probe, &error)) << error;
  for (const bool as_id : {false, true}) {
    const std::string line = many_keys_line(as_id);
    ASSERT_LT(line.size(), std::size_t{1} << 20);
    ASSERT_TRUE(heavy.send_line(line));
    // Let the loop take in the whole line before the probe is sent, so
    // the ping queues behind the parse.
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    const auto start = std::chrono::steady_clock::now();
    std::string answer;
    ASSERT_TRUE(probe.send_line(R"({"id":2,"op":"ping"})"));
    ASSERT_TRUE(probe.recv_line(&answer));
    EXPECT_EQ(answer, R"({"id":2,"ok":true,"op":"ping"})");
    EXPECT_LT(std::chrono::steady_clock::now() - start, kPingBound)
        << (as_id ? "id object" : "top level");
    ASSERT_TRUE(heavy.recv_line(&answer));
    if (as_id) {
      // The id object is echoed whole, in its key order.
      const std::string ack = R"(},"ok":true,"op":"ping"})";
      ASSERT_GT(answer.size(), line.size() - 64);
      EXPECT_EQ(answer.rfind(R"({"id":{"k0":0,"k1":0,)", 0), 0u);
      EXPECT_EQ(answer.substr(answer.size() - ack.size()), ack);
    } else {
      EXPECT_EQ(answer, R"({"id":null,"ok":true,"op":"ping"})");
    }
  }
  server.stop();
}

// ---------------- the UNIX listener's socket file ----------------

TEST(UnixListener, StaleFileDoesNotBlockTheBindAndThePathGoesOnExit) {
  if (!tcp_transport_available())
    GTEST_SKIP() << "no event-loop transport on this platform";
  const std::string path = unix_socket_path();
  std::ofstream(path) << "left behind by a crashed run\n";
  ASSERT_TRUE(std::filesystem::exists(path));
  Service service(small_service(1));
  TcpOptions options;
  options.tick_ms = 20;
  std::promise<std::uint16_t> promise;
  std::future<std::uint16_t> listening = promise.get_future();
  options.on_listen = [&promise](std::uint16_t p) { promise.set_value(p); };
  std::thread server([&service, &path, options] {
    std::string error;
    EXPECT_EQ(serve_tcp(service, path, "", &error, options), 0) << error;
  });
  if (listening.wait_for(std::chrono::seconds(10)) !=
      std::future_status::ready) {
    server.join();  // setup failed, so the loop has returned
    FAIL() << "the loop never listened on " << path;
  }
  EXPECT_EQ(listening.get(), 0);  // no port for a UNIX listener
  LineClient client;
  std::string error;
  std::string line;
  ASSERT_TRUE(client.connect(path, "", &error)) << error;
  ASSERT_TRUE(client.send_line(R"({"op":"shutdown"})"));
  ASSERT_TRUE(client.recv_line(&line));
  EXPECT_NE(line.find("\"ok\":true"), std::string::npos) << line;
  server.join();
  EXPECT_FALSE(std::filesystem::exists(path)) << "socket file left behind";
}

TEST(UnixListener, OverlongPathIsADescriptiveError) {
  if (!tcp_transport_available())
    GTEST_SKIP() << "no event-loop transport on this platform";
  const std::string path =
      ::testing::TempDir() + std::string(200, 'p') + ".sock";
  Service service(small_service(1));
  std::string error;
  EXPECT_EQ(serve_tcp(service, path, "", &error), 1);
  EXPECT_NE(error.find("socket path too long"), std::string::npos) << error;
  LineClient client;
  error.clear();
  EXPECT_FALSE(client.connect(path, "", &error));
  EXPECT_NE(error.find("socket path too long"), std::string::npos) << error;
}

// ---------------- HTTP exposition listener ----------------

// A TCP loop with the HTTP listener on its own ephemeral port.
TcpOptions with_http(TcpOptions options = {}) {
  options.http = "127.0.0.1:0";
  return options;
}

// This process's peak resident set (VmHWM) in kB, 0 when unknown.
long vm_hwm_kb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0) return std::stol(line.substr(6));
  return 0;
}

// One full HTTP exchange: sends raw bytes, reads to EOF (every route body
// is newline-terminated, so a line-wise read loses nothing). Empty string
// when the connection was refused.
std::string http_exchange(const std::string& target,
                          const std::string& request) {
  LineClient client;
  std::string error;
  if (!client.connect("", target, &error)) return "";
  if (!client.send_bytes(request.data(), request.size())) return "";
  std::string out, line;
  while (client.recv_line(&line)) {
    out += line;
    out += '\n';
  }
  return out;
}

std::string http_get(const std::string& target, const std::string& path) {
  return http_exchange(target,
                       "GET " + path + " HTTP/1.1\r\nHost: test\r\n\r\n");
}

TEST(HttpListener, ServesMetricsHealthzAndRecorderMidRun) {
  if (!tcp_transport_available())
    GTEST_SKIP() << "no TCP transport on this platform";
  LoopTestServer server(AddressFamily::kTcp, small_service(2), with_http());

  // Real JSONL traffic on the sibling listener first.
  LineClient client;
  std::string error;
  ASSERT_TRUE(server.connect(client, &error)) << error;
  std::string response;
  ASSERT_TRUE(client.send_line(
      R"({"id":1,"op":"solve","spec":"uniform:n=14,m=3,seed=4"})"));
  ASSERT_TRUE(client.recv_line(&response));
  EXPECT_NE(response.find("\"ok\":true"), std::string::npos);

  const std::string metrics = http_get(server.http_target(), "/metrics");
  EXPECT_NE(metrics.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(metrics.find("msrs_build_info{"), std::string::npos);
  EXPECT_NE(metrics.find("msrs_serve_received"), std::string::npos);
  EXPECT_NE(metrics.find("msrs_serve_latency_total_us_bucket"),
            std::string::npos);

  const std::string health = http_get(server.http_target(), "/healthz");
  EXPECT_NE(health.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(health.find("ok"), std::string::npos);

  const std::string recorder =
      http_get(server.http_target(), "/recorder?canonical=1");
  EXPECT_NE(recorder.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(recorder.find("\"canonical\":true"), std::string::npos);
  EXPECT_NE(recorder.find("\"event\":\"solve_end\""), std::string::npos);

  const std::string watchdog = http_get(server.http_target(), "/watchdog");
  EXPECT_NE(watchdog.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(watchdog.find("\"thresholds\""), std::string::npos);

  client.close();
  server.stop();
}

TEST(HttpListener, AnswersProtocolDefectsWithoutDying) {
  if (!tcp_transport_available())
    GTEST_SKIP() << "no TCP transport on this platform";
  LoopTestServer server(AddressFamily::kTcp, small_service(1), with_http());
  EXPECT_NE(http_get(server.http_target(), "/nope").find("HTTP/1.1 404"),
            std::string::npos);
  EXPECT_NE(http_exchange(server.http_target(),
                          "POST /metrics HTTP/1.1\r\nHost: x\r\n\r\n")
                .find("HTTP/1.1 405"),
            std::string::npos);
  EXPECT_NE(http_exchange(server.http_target(), "garbage\r\n\r\n")
                .find("HTTP/1.1 400"),
            std::string::npos);
  // A request head over the 8 KiB bound is refused, not buffered forever.
  const std::string huge =
      "GET /" + std::string(10'000, 'x') + " HTTP/1.1\r\n\r\n";
  EXPECT_NE(http_exchange(server.http_target(), huge).find("HTTP/1.1 400"),
            std::string::npos);
  // The loop survived all of it: a healthy exchange still works.
  EXPECT_NE(http_get(server.http_target(), "/healthz").find("200 OK"),
            std::string::npos);
  server.stop();
}

TEST(HttpListener, ScrapesCountAgainstTheConnectionBudget) {
  if (!tcp_transport_available())
    GTEST_SKIP() << "no TCP transport on this platform";
  TcpOptions options;
  options.max_connections = 1;
  LoopTestServer server(AddressFamily::kTcp, small_service(1),
                        with_http(options));
  LineClient client;
  std::string error;
  std::string line;
  ASSERT_TRUE(server.connect(client, &error)) << error;
  ASSERT_TRUE(client.send_line(R"({"op":"ping"})"));
  ASSERT_TRUE(client.recv_line(&line));
  // The one slot is taken by the JSONL client: a scrape is shed with a
  // framed 503 (read before sending a request, so the close is a FIN).
  LineClient scrape;
  ASSERT_TRUE(scrape.connect("", server.http_target(), &error)) << error;
  std::string shed;
  while (scrape.recv_line(&line)) shed += line + "\n";
  EXPECT_NE(shed.find("HTTP/1.1 503"), std::string::npos) << shed;
  EXPECT_NE(shed.find("overloaded"), std::string::npos) << shed;
  client.close();
  server.stop();
}

TEST(HttpListener, StreamingHeadsNeitherHoldTheLoopNorGrowTheReadBuffer) {
  if (!tcp_transport_available())
    GTEST_SKIP() << "no TCP transport on this platform";
  LoopTestServer server(AddressFamily::kTcp, small_service(1), with_http());
  // Two clients stream an endless request head as fast as the server
  // takes it, reconnecting whenever it answers 400 and closes.
  std::atomic<bool> stop{false};
  const auto stream = [&server, &stop] {
    const std::string chunk(64 << 10, 'x');
    while (!stop.load()) {
      LineClient client;
      std::string error;
      if (!client.connect("", server.http_target(), &error)) continue;
      const std::string head = "GET /metrics HTTP/1.1\r\nX-Endless: ";
      if (!client.send_bytes(head.data(), head.size())) continue;
      while (!stop.load() && client.send_bytes(chunk.data(), chunk.size())) {
      }
    }
  };
  const long hwm_before = vm_hwm_kb();
  std::thread first(stream), second(stream);
  std::this_thread::sleep_for(std::chrono::milliseconds(200));

  LineClient client;
  std::string error;
  ASSERT_TRUE(server.connect(client, &error)) << error;
  std::chrono::steady_clock::duration slowest{};
  for (int i = 0; i < 20; ++i) {
    const auto start = std::chrono::steady_clock::now();
    std::string line;
    ASSERT_TRUE(client.send_line(R"({"id":1,"op":"ping"})"));
    ASSERT_TRUE(client.recv_line(&line));
    EXPECT_EQ(line, R"({"id":1,"ok":true,"op":"ping"})");
    slowest = std::max(slowest, std::chrono::steady_clock::now() - start);
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  const long hwm_after = vm_hwm_kb();
  stop.store(true);
  first.join();
  second.join();
  EXPECT_LT(slowest, std::chrono::milliseconds(500));
  // One wakeup reads at most the 8 KiB head bound plus one 4 KiB chunk.
  EXPECT_LE(server.service().metrics_snapshot().gauge_or(
                "serve.conns.read_buf_highwater"),
            8192 + 4096);
  // Unbounded head buffers grew the peak by 40-300 MB. ASan's quarantine
  // keeps freed blocks resident, so there the peak bounds nothing.
#if defined(__SANITIZE_ADDRESS__)
  constexpr long kPeakGrowthKb = std::numeric_limits<long>::max();
#else
  constexpr long kPeakGrowthKb = 32 * 1024;
#endif
  EXPECT_LT(hwm_after - hwm_before, kPeakGrowthKb) << "kB";
  client.close();
  server.stop();
}

TEST(HttpListener, HealthzReports503WhileDraining) {
  if (!tcp_transport_available())
    GTEST_SKIP() << "no TCP transport on this platform";
  ServiceOptions service_options = small_service(1);
  service_options.budget_ms = 60;  // slow enough to observe the drain
  LoopTestServer server(AddressFamily::kTcp, service_options, with_http());

  // Queue several distinct slow solves, then ask for shutdown without
  // reading the solve responses: the service drains while the HTTP
  // listener keeps answering.
  LineClient worker;
  std::string error;
  ASSERT_TRUE(server.connect(worker, &error)) << error;
  for (int seed = 1; seed <= 6; ++seed)
    ASSERT_TRUE(worker.send_line(
        R"({"op":"solve","budget_ms":60,"spec":"huge_heavy:n=2000,m=16,seed=)" +
        std::to_string(seed) + "\"}"));
  // One response read guarantees the queue is loaded before the shutdown.
  std::string first;
  ASSERT_TRUE(worker.recv_line(&first));
  EXPECT_NE(first.find("\"ok\":true"), std::string::npos);
  LineClient closer;
  ASSERT_TRUE(server.connect(closer, &error)) << error;
  ASSERT_TRUE(closer.send_line(R"({"op":"shutdown"})"));

  // Poll /healthz until the drain window reports 503 (or the loop exits,
  // which would fail the expectation below).
  bool saw_draining = false;
  for (int i = 0; i < 500 && !saw_draining; ++i) {
    const std::string health = http_get(server.http_target(), "/healthz");
    if (health.empty()) break;  // listener closed: drain finished
    if (health.find("HTTP/1.1 503") != std::string::npos &&
        health.find("draining") != std::string::npos)
      saw_draining = true;
  }
  EXPECT_TRUE(saw_draining) << "no 503 observed during the drain";
  server.join();
}

}  // namespace
}  // namespace msrs::serve
