// Tests of the perf-harness subsystem (src/perf): deterministic-mode
// reproducibility, the BENCH_*.json schema round-trip, the bench CLI's
// named errors, and the allocation counter.
#include <gtest/gtest.h>

#include <sstream>

#include "perf/perf.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

namespace msrs::perf {
namespace {

// --- util/json -------------------------------------------------------------

TEST(Json, WriterParserRoundTrip) {
  Json doc = Json::object();
  doc.set("text", "line\nwith \"quotes\" and \\slashes\\");
  doc.set("int", static_cast<std::int64_t>(42));
  doc.set("pi", 3.141592653589793);
  doc.set("flag", true);
  doc.set("nothing", Json());
  Json arr = Json::array();
  arr.push_back(1.5);
  arr.push_back("two");
  arr.push_back(Json::object());
  doc.set("arr", std::move(arr));

  for (const int indent : {0, 2}) {
    std::string error;
    const auto back = json_parse(doc.str(indent), &error);
    ASSERT_TRUE(back.has_value()) << error;
    EXPECT_TRUE(doc == *back) << doc.str(2) << "\nvs\n" << back->str(2);
  }
}

TEST(Json, ParserRejectsMalformedInputWithNamedErrors) {
  const std::pair<const char*, const char*> cases[] = {
      {"{", "expected '\"'"},
      {"{\"a\": 1,}", "expected '\"'"},
      {"[1, 2", "expected ',' or ']'"},
      {"\"unterminated", "unterminated string"},
      {"{\"a\" 1}", "expected ':'"},
      {"nul", "expected a value"},
      {"{} trailing", "trailing bytes"},
  };
  for (const auto& [text, expected] : cases) {
    std::string error;
    EXPECT_FALSE(json_parse(text, &error).has_value()) << text;
    EXPECT_NE(error.find(expected), std::string::npos)
        << "input: " << text << " error: " << error;
  }
}

TEST(Json, ParserBoundsNestingDepth) {
  // Untrusted input (the serving layer's wire protocol) must not be able
  // to overflow the parser's stack: one level of recursion per '[', so a
  // 100k-bracket bomb without the cap would kill the process.
  const std::string bomb(100000, '[');
  std::string error;
  EXPECT_FALSE(json_parse(bomb, &error).has_value());
  EXPECT_NE(error.find("nesting"), std::string::npos) << error;

  // Well under the cap still parses.
  std::string deep;
  for (int i = 0; i < 100; ++i) deep += '[';
  deep += '1';
  for (int i = 0; i < 100; ++i) deep += ']';
  EXPECT_TRUE(json_parse(deep).has_value());
}

TEST(Json, RepeatedKeysFoldAsSetDoes) {
  // A repeated key keeps its first position and takes its last value,
  // both when parsed and when an object is built from a member list. Small
  // objects fold by scanning, larger ones by sorting: both must agree with
  // a sequence of set() calls.
  Rng rng(20261017);
  for (const std::size_t count : {0u, 1u, 5u, 32u, 33u, 300u, 5000u}) {
    Json expected = Json::object();
    std::vector<std::pair<std::string, Json>> members;
    std::string text = "{";
    for (std::size_t i = 0; i < count; ++i) {
      const std::string key =
          "k" + std::to_string(rng.uniform(0, static_cast<std::int64_t>(
                                                  count / 2 + 1)));
      const Json value(static_cast<std::int64_t>(i));
      expected.set(key, value);
      members.emplace_back(key, value);
      if (i > 0) text += ',';
      text += "\"" + key + "\":" + std::to_string(i);
    }
    text += '}';
    const std::optional<Json> parsed = json_parse(text);
    ASSERT_TRUE(parsed.has_value()) << count;
    EXPECT_EQ(parsed->str(), expected.str()) << count;  // order and values
    EXPECT_TRUE(*parsed == expected) << count;
    EXPECT_EQ(Json::object(std::move(members)).str(), expected.str()) << count;
  }
}

TEST(Json, MemberReaderLocatesLastValuesAndSharesTheParserErrors) {
  const std::string_view keys[] = {"a", "b", "missing"};
  JsonMember found[3];
  const std::string text =
      R"( {"a":1,"\u0062":[true,{"x":"y"}],"c":"z","a":"two\n"} )";
  ASSERT_EQ(json_scan_members(text, keys, found), JsonScan::kObject);
  ASSERT_TRUE(found[0].found);
  EXPECT_EQ(found[0].type, Json::Type::kString);
  std::string a;
  json_member_string(found[0], &a);
  EXPECT_EQ(a, "two\n");
  ASSERT_TRUE(found[1].found);  // matched through the escaped key
  EXPECT_EQ(found[1].type, Json::Type::kArray);
  EXPECT_EQ(found[1].bytes, R"([true,{"x":"y"}])");
  EXPECT_FALSE(found[2].found);

  EXPECT_EQ(json_scan_members("[1]", keys, found), JsonScan::kNotObject);
  EXPECT_EQ(json_scan_members("\"s\"", keys, found), JsonScan::kNotObject);
  for (const char* bad : {"", "{", R"({"a":1,})", R"({"a":[1,2})",
                          R"({"a":"\q"})", R"({"a":1} x)", "[1,"}) {
    std::string scan_error, tree_error;
    EXPECT_EQ(json_scan_members(bad, keys, found, &scan_error),
              JsonScan::kMalformed)
        << bad;
    EXPECT_FALSE(json_parse(bad, &tree_error).has_value()) << bad;
    EXPECT_EQ(scan_error, tree_error) << bad;
  }
}

TEST(Json, EveryEscapeDecodesAtEveryWordOffset) {
  // Plain runs are scanned eight bytes at a time and decoded a run at a
  // time: each escape, placed at every offset of a word, must decode to
  // its bytes, with raw control and high bytes passing through as they are.
  const std::pair<std::string, std::string> escapes[] = {
      {R"(\")", "\""},           {R"(\\)", "\\"},
      {R"(\/)", "/"},            {R"(\b)", "\b"},
      {R"(\f)", "\f"},           {R"(\n)", "\n"},
      {R"(\r)", "\r"},           {R"(\t)", "\t"},
      {R"(\u0041)", "A"},   {R"(\u0000)", std::string(1, '\0')},
      {R"(\u00e9)", "\xc3\xa9"}, {R"(\u20AC)", "\xe2\x82\xac"},
  };
  for (const auto& [escape, decoded] : escapes) {
    for (std::size_t at = 0; at < 24; ++at) {
      std::string tail(at % 9, '\x01');
      tail += "\x7f\xc3\xa9z";
      std::string text(1, '"');
      text.append(at, 'a');
      text += escape;
      text += tail;
      text += escape;
      text += '"';
      std::string expected(at, 'a');
      expected += decoded;
      expected += tail;
      expected += decoded;
      const std::optional<Json> parsed = json_parse(text);
      ASSERT_TRUE(parsed.has_value()) << text;
      EXPECT_EQ(parsed->as_string(), expected) << text;
    }
  }
}

TEST(Json, NumberFormattingIsCanonical) {
  EXPECT_EQ(Json(static_cast<std::int64_t>(1000000)).str(), "1000000");
  EXPECT_EQ(Json(1.5).str(), "1.5");
  // Round-trips exactly even for doubles needing 17 digits.
  const double awkward = 0.1 + 0.2;
  std::string error;
  const auto back = json_parse(Json(awkward).str(), &error);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->as_number(), awkward);
}

// --- Runner / alloc counter ------------------------------------------------

TEST(Runner, DeterministicModeRunsExactRepeatCount) {
  RunnerOptions options;
  options.warmup = 2;
  options.repeats = 7;
  options.timing = false;
  int calls = 0;
  const Measurement m = Runner(options).measure([&] { ++calls; });
  EXPECT_EQ(calls, 9);  // warmup + repeats
  EXPECT_EQ(m.ops, 7u);
  EXPECT_EQ(m.ns_per_op, 0.0);  // no clocks in deterministic mode
}

TEST(Runner, TimingModeMeasuresAndHonorsMinTime) {
  RunnerOptions options;
  options.warmup = 0;
  options.repeats = 3;
  options.min_time_ms = 1.0;
  options.timing = true;
  const Measurement m = Runner(options).measure([] {
    volatile int sink = 0;
    for (int i = 0; i < 1000; ++i) sink = sink + i;
  });
  EXPECT_GE(m.ops, 3u);
  EXPECT_GT(m.ns_per_op, 0.0);
  EXPECT_LE(m.ns_p25, m.ns_per_op);
  EXPECT_GE(m.ns_p75, m.ns_per_op);
}

TEST(AllocCounter, CountsHeapAllocationsWhenEnabled) {
  if (!alloc_counting_enabled()) GTEST_SKIP() << "counting disabled (ASan)";
  const std::uint64_t allocs = count_allocs([] {
    std::vector<int> v(1000);
    ASSERT_NE(v.data(), nullptr);
  });
  EXPECT_GE(allocs, 1u);
  const std::uint64_t none = count_allocs([] {
    volatile int sink = 7;
    (void)sink;
  });
  EXPECT_EQ(none, 0u);
}

// --- registry + determinism ------------------------------------------------

TEST(BenchRegistry, DefaultRegistryHasTheTwelveECases) {
  const BenchRegistry& registry = BenchRegistry::default_registry();
  const char* expected[] = {
      "e1_ratio_53", "e2_ratio_32",   "e3_vs_baseline", "e4_runtime",
      "e5_nfold",    "e6_eptas",      "e7_hardness",    "e8_completion",
      "e9_bounds",   "e10_ablation",  "e11_engine",     "e12_generator",
  };
  for (const char* name : expected) {
    const BenchCase* bench_case = registry.find(name);
    ASSERT_NE(bench_case, nullptr) << name;
    EXPECT_EQ(bench_case->tier(), Tier::kQuick) << name;
    EXPECT_FALSE(bench_case->description().empty()) << name;
    EXPECT_FALSE(bench_case->paper_ref().empty()) << name;
  }
  EXPECT_EQ(registry.find("nope"), nullptr);
}

TEST(BenchRegistry, RejectsDuplicateNames) {
  BenchRegistry registry;
  registry.add(make_case("a", "d", "p", Tier::kQuick,
                         [](const Runner&) { return std::vector<BenchRow>{}; }));
  EXPECT_THROW(
      registry.add(make_case("a", "d2", "p2", Tier::kQuick,
                             [](const Runner&) {
                               return std::vector<BenchRow>{};
                             })),
      std::invalid_argument);
}

// Repeated runs of the same case in deterministic mode must produce
// identical rows — op counts, makespans, allocation counts, and the
// serialized JSON byte for byte.
TEST(BenchCaseDeterminism, SameCaseTwiceSerializesIdentically) {
  const BenchRegistry& registry = BenchRegistry::default_registry();
  RunnerOptions options;
  options.warmup = 0;
  options.repeats = 2;
  options.timing = false;
  const Runner runner(options);
  for (const char* name : {"e4_runtime", "e9_bounds"}) {
    const BenchCase* bench_case = registry.find(name);
    ASSERT_NE(bench_case, nullptr);
    CaseResult a, b;
    a.name = b.name = name;
    a.rows = bench_case->run(runner);
    b.rows = bench_case->run(runner);
    ASSERT_FALSE(a.rows.empty());
    EXPECT_EQ(bench_json(a).str(2), bench_json(b).str(2)) << name;
  }
}

// --- JsonReporter ----------------------------------------------------------

CaseResult sample_result(bool timing) {
  CaseResult result;
  result.name = "sample";
  result.description = "sample case";
  result.paper_ref = "Note 1";
  result.timing = timing;
  BenchRow row;
  row.name = "row1";
  row.solver = "three_halves";
  row.jobs = 64;
  row.machines = 4;
  row.makespan_ratio = 1.25;
  row.counters.emplace_back("ratio_max", 1.5);
  row.timing.ops = 5;
  row.timing.ns_per_op = 1234.5;
  row.timing.allocs_per_op = 2;
  result.rows.push_back(std::move(row));
  return result;
}

TEST(JsonReporter, OutputRoundTripsThroughAParse) {
  for (const bool timing : {false, true}) {
    const Json document = bench_json(sample_result(timing));
    std::string error;
    const auto back = json_parse(document.str(2), &error);
    ASSERT_TRUE(back.has_value()) << error;
    EXPECT_TRUE(document == *back);
    EXPECT_EQ(check_bench_schema(*back), "");
    // The timing object is present exactly when measured.
    const Json* row = &back->find("rows")->items().front();
    EXPECT_EQ(row->find("timing") != nullptr, timing);
    EXPECT_EQ(back->find("deterministic")->as_bool(), !timing);
  }
}

TEST(JsonReporter, SchemaCheckNamesTheProblem) {
  Json bad = bench_json(sample_result(false));
  bad.set("schema_version", "one");
  EXPECT_NE(check_bench_schema(bad).find("schema_version"),
            std::string::npos);
  EXPECT_NE(check_bench_schema(Json(1.0)), "");
}

TEST(JsonReporter, WritesBenchFileToDirectory) {
  const CaseResult result = sample_result(false);
  EXPECT_EQ(write_bench_json(result, testing::TempDir()), "");
  const std::string bad =
      write_bench_json(result, "/nonexistent-dir-for-sure");
  EXPECT_NE(bad.find("cannot write"), std::string::npos);
}

// --- bench CLI named errors ------------------------------------------------

int run_cli(const std::vector<std::string>& args, std::string* err_text) {
  std::ostringstream out, err;
  const int code = run_bench_cli(args, "", out, err);
  *err_text = err.str();
  return code;
}

TEST(BenchCli, MalformedArgumentsProduceNamedErrors) {
  struct Case {
    std::vector<std::string> args;
    const char* expected;
  };
  const Case cases[] = {
      {{"e99_nothing"}, "unknown case 'e99_nothing'"},
      {{"--repeats=two"}, "bad numeric value in '--repeats=two'"},
      {{"--repeats=0"}, "--repeats must be >= 1"},
      {{"--tier=fast"}, "bad --tier 'fast'"},
      {{"--frobnicate"}, "unknown option '--frobnicate'"},
      {{"--baseline=/tmp"}, "--baseline requires --timing"},
      {{"--spec=bogus:n=1"}, "bad spec 'bogus:n=1'"},
      {{"--sweep=families=bogus"}, "bad sweep 'families=bogus'"},
      {{"--spec=uniform", "--solvers=nope"}, "unknown solver 'nope'"},
      {{"--max-regression=-1"}, "--max-regression must be > 0"},
  };
  for (const Case& c : cases) {
    std::string err_text;
    EXPECT_EQ(run_cli(c.args, &err_text), 2) << c.expected;
    EXPECT_NE(err_text.find(c.expected), std::string::npos) << err_text;
    EXPECT_NE(err_text.find("bench: "), std::string::npos) << err_text;
  }
}

TEST(BenchCli, ListAndHelpSucceed) {
  std::string err_text;
  EXPECT_EQ(run_cli({"--list"}, &err_text), 0);
  EXPECT_EQ(run_cli({"--help"}, &err_text), 0);
}

TEST(BenchCli, CorpusSpecBenchesOnlyTheCorpus) {
  std::ostringstream out, err;
  const int code = run_bench_cli(
      {"--spec=uniform:n=12,m=3", "--count=1", "--solvers=three_halves",
       "--repeats=1", "--warmup=0"},
      "", out, err);
  EXPECT_EQ(code, 0) << err.str();
  EXPECT_NE(out.str().find("corpus1_uniform"), std::string::npos);
  EXPECT_EQ(out.str().find("e1_ratio_53"), std::string::npos);
}

}  // namespace
}  // namespace msrs::perf
