// Mutation and fuzz testing: the exact validator is the safety net of the
// whole repository (every algorithm's output funnels through it in tests),
// so here we verify the net itself: randomly corrupted valid schedules must
// be rejected, and all algorithms must remain coherent with each other and
// with the exact solver on randomized instances.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <future>
#include <map>
#include <numeric>
#include <set>
#include <sstream>
#include <thread>

#include "algo/baselines.hpp"
#include "algo/exact.hpp"
#include "algo/five_thirds.hpp"
#include "algo/greedy.hpp"
#include "algo/three_halves.hpp"
#include "core/instance_io.hpp"
#include "core/lower_bounds.hpp"
#include "core/validate.hpp"
#include "engine/batch.hpp"
#include "serve/event_loop.hpp"
#include "serve/service.hpp"
#include "serve/tcp.hpp"
#include "serve/transport.hpp"
#include "sim/generator.hpp"
#include "sim/spec.hpp"
#include "sim/workloads.hpp"
#include "test_support.hpp"
#include "util/rng.hpp"

namespace msrs {
namespace {

// ---------------- validator mutation testing ----------------

// Mutations that must each break a *tight* valid schedule, or be detected
// as out-of-contract. We use list schedules (no idle gaps beyond resource
// waits) so most mutations genuinely collide.
enum class Mutation {
  kShiftEarlier,    // move one job earlier by 1..p (overlap or negative)
  kCloneOnto,       // move a job onto another machine at an occupied time
  kUnassign,        // drop an assignment
  kBadMachine,      // machine id out of range
  kClassCollision,  // align two same-class jobs in time
};

TEST(ValidatorFuzz, MutationsAreDetected) {
  Rng rng(20240610);
  int detected = 0, attempted = 0;
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    const Instance instance = generate(Family::kUniform, 40, 4, seed);
    const AlgoResult base = list_schedule(instance, ListPriority::kLptJob);
    ASSERT_TRUE(is_valid(instance, base.schedule));

    for (const Mutation mutation :
         {Mutation::kShiftEarlier, Mutation::kCloneOnto, Mutation::kUnassign,
          Mutation::kBadMachine, Mutation::kClassCollision}) {
      Schedule mutant = base.schedule;
      const JobId j = static_cast<JobId>(
          rng.uniform(0, instance.num_jobs() - 1));
      bool expect_invalid = true;
      switch (mutation) {
        case Mutation::kShiftEarlier: {
          const Time start = mutant.start(j);
          if (start == 0) {
            expect_invalid = false;  // nothing to shift; skip
            break;
          }
          mutant.assign(j, mutant.machine(j),
                        std::max<Time>(-1, start - rng.uniform(1, start + 1)));
          // Shifting earlier can still be valid if the machine and the
          // class both happen to be idle there; we only count detections.
          expect_invalid = false;
          break;
        }
        case Mutation::kCloneOnto: {
          const JobId other = static_cast<JobId>(
              rng.uniform(0, instance.num_jobs() - 1));
          if (other == j) {
            expect_invalid = false;
            break;
          }
          // Put j exactly where `other` runs: guaranteed machine overlap.
          mutant.assign(j, mutant.machine(other), mutant.start(other));
          expect_invalid = true;
          break;
        }
        case Mutation::kUnassign:
          mutant.unassign(j);
          break;
        case Mutation::kBadMachine:
          mutant.assign(j, instance.machines() + 3, mutant.start(j));
          break;
        case Mutation::kClassCollision: {
          const auto& members =
              instance.class_jobs(instance.job_class(j));
          if (members.size() < 2) {
            expect_invalid = false;
            break;
          }
          const JobId sibling = members[0] == j ? members[1] : members[0];
          // Run j in parallel with its sibling on another machine.
          mutant.assign(j, (mutant.machine(sibling) + 1) % instance.machines(),
                        mutant.start(sibling));
          expect_invalid = true;
          break;
        }
      }
      ++attempted;
      const bool caught = !is_valid(instance, mutant);
      if (expect_invalid) {
        EXPECT_TRUE(caught) << "mutation " << static_cast<int>(mutation)
                            << " seed " << seed << " escaped the validator";
      }
      detected += caught ? 1 : 0;
    }
  }
  // The validator must catch the guaranteed-invalid mutations (asserted
  // above); across all mutations the detection rate should be high.
  EXPECT_GT(detected, attempted / 2);
}

TEST(ValidatorFuzz, CloneIsAlwaysMachineOverlap) {
  Rng rng(7);
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const Instance instance = generate(Family::kManySmallClasses, 30, 3, seed);
    const AlgoResult base = list_schedule(instance, ListPriority::kInputOrder);
    Schedule mutant = base.schedule;
    const JobId a = 0;
    const JobId b = instance.num_jobs() > 1 ? 1 : 0;
    if (a == b) continue;
    mutant.assign(a, mutant.machine(b), mutant.start(b));
    const auto report = validate(instance, mutant);
    EXPECT_FALSE(report.ok());
    bool has_machine_overlap = false;
    for (const auto& violation : report.violations)
      if (violation.kind == Violation::Kind::kMachineOverlap)
        has_machine_overlap = true;
    EXPECT_TRUE(has_machine_overlap);
  }
}

// ---------------- instance-IO fuzz ----------------

TEST(IoFuzz, RandomTextNeverCrashes) {
  Rng rng(999);
  const char alphabet[] = "msr 1234567890\nclaches ";
  for (int round = 0; round < 200; ++round) {
    std::string text;
    const auto len = static_cast<std::size_t>(rng.uniform(0, 120));
    for (std::size_t i = 0; i < len; ++i)
      text.push_back(alphabet[static_cast<std::size_t>(
          rng.uniform(0, static_cast<std::int64_t>(sizeof alphabet) - 2))]);
    std::string error;
    const auto parsed = from_text(text, &error);
    if (parsed.has_value()) {
      EXPECT_TRUE(parsed->check().empty());
    }
  }
}

TEST(IoFuzz, TruncatedValidInstancesAreRejected) {
  const Instance instance = generate(Family::kUniform, 20, 3, 5);
  const std::string full = to_text(instance);
  for (std::size_t cut = 0; cut + 1 < full.size(); cut += 7) {
    const auto parsed = from_text(full.substr(0, cut));
    if (parsed.has_value()) {
      // A prefix can only parse if it happens to contain complete classes;
      // it must still be well-formed.
      EXPECT_TRUE(parsed->check().empty());
    }
  }
}

// ---------------- instance-parser differential ----------------

// The format's first parser: istream extraction, one token at a time. It
// is kept here as the differential oracle of core/instance_io's
// single-pass parser, with the input limits of core/types.hpp added where
// the single-pass parser checks them (marked "limit"), so both must agree
// byte for byte on every error.
namespace oracle {

// Parses one instance. Returns 1 on success, 0 on clean EOF before the
// header (end of a corpus), -1 on malformed input (*error describes it).
// Consumes nothing past the instance's own tokens, so concatenated
// instances parse by repeated calls.
int read_one(std::istream& in, Instance* out, std::string* error) {
  auto fail = [&](const std::string& message) {
    if (error) *error = message;
    return -1;
  };
  // Echoes the offending token back in the error, so a typo in a keyword is
  // distinguishable from a truncated file.
  auto expect_key = [&](const char* wanted, std::string* got) {
    *got = {};
    if (!(in >> *got)) return false;
    return *got == wanted;
  };

  std::string token;
  if (!expect_key("msrs", &token)) {
    if (token.empty()) return 0;  // clean EOF: no (further) instance
    return fail("bad header: expected 'msrs', got '" + token + "'");
  }
  long long version = 0;
  if (!(in >> version) || version != 1)
    return fail("unsupported format version (expected 1)");

  long long machines = 0;
  if (!expect_key("machines", &token))
    return fail(token.empty()
                    ? "missing 'machines <m>' line"
                    : "expected 'machines', got '" + token + "'");
  if (!(in >> machines)) return fail("machine count is not a number");
  if (machines < 1)
    return fail("machine count must be >= 1, got " + std::to_string(machines));
  if (machines > kMaxMachines)  // limit
    return fail("machine count " + std::to_string(machines) +
                " exceeds the supported maximum of " +
                std::to_string(kMaxMachines));

  long long num_classes = 0;
  if (!expect_key("classes", &token))
    return fail(token.empty() ? "missing 'classes <k>' line"
                              : "expected 'classes', got '" + token + "'");
  if (!(in >> num_classes) || num_classes < 0)
    return fail("class count must be a number >= 0");

  Instance instance;
  instance.set_machines(static_cast<int>(machines));
  for (long long c = 0; c < num_classes; ++c) {
    if (!expect_key("class", &token))
      return fail("class " + std::to_string(c) +
                  (token.empty() ? ": missing 'class' line (file declares " +
                                       std::to_string(num_classes) +
                                       " classes)"
                                 : ": expected 'class', got '" + token + "'"));
    long long count = 0;
    if (!(in >> count)) return fail("class " + std::to_string(c) +
                                    ": job count is not a number");
    if (count < 1)
      return fail("class " + std::to_string(c) +
                  (count == 0 ? " is empty (every class needs >= 1 job)"
                              : ": job count must be >= 1, got " +
                                    std::to_string(count)));
    const ClassId cls = instance.add_class();
    for (long long i = 0; i < count; ++i) {
      Time p = 0;
      if (!(in >> p))
        return fail("class " + std::to_string(c) + ": job " +
                    std::to_string(i) + " of " + std::to_string(count) +
                    " is missing or not a number");
      if (p < 1)
        return fail("class " + std::to_string(c) + ": job size " +
                    std::to_string(p) + " < 1");
      if (p > kMaxJobSize)  // limit
        return fail("class " + std::to_string(c) + ": job size " +
                    std::to_string(p) + " exceeds the supported maximum of " +
                    std::to_string(kMaxJobSize));
      instance.add_job(cls, p);
      if (instance.total_load() > kMaxTotalLoad)  // limit
        return fail("class " + std::to_string(c) +
                    ": total load exceeds the supported maximum of " +
                    std::to_string(kMaxTotalLoad));
    }
  }
  const std::string problem = instance.check();
  if (!problem.empty()) return fail(problem);
  *out = std::move(instance);
  return 1;
}

std::optional<Instance> from_text(const std::string& text,
                                  std::string* error) {
  std::istringstream in(text);
  auto fail = [&](const std::string& message) -> std::optional<Instance> {
    if (error) *error = message;
    return std::nullopt;
  };
  Instance instance;
  const int status = read_one(in, &instance, error);
  if (status == 0) return fail("empty input: missing 'msrs 1' header");
  if (status < 0) return std::nullopt;
  std::string token;
  if (in >> token)
    return fail("trailing garbage after " +
                std::to_string(instance.num_classes()) + " classes: '" +
                token + "'");
  return instance;
}

std::optional<std::vector<Instance>> read_corpus(std::istream& in,
                                                 std::string* error) {
  std::vector<Instance> corpus;
  for (;;) {
    Instance instance;
    const int status = read_one(in, &instance, error);
    if (status == 0) return corpus;
    if (status < 0) {
      if (error)
        *error = "corpus instance " + std::to_string(corpus.size()) + ": " +
                 *error;
      return std::nullopt;
    }
    corpus.push_back(std::move(instance));
  }
}

}  // namespace oracle

// Asserts the parser and the oracle agree on `text`: the same accept or
// reject, the same error string, the same instance (by its rendering).
// Returns whether the oracle accepted it.
bool expect_same_parse(const std::string& text) {
  std::string want_error, got_error;
  const std::optional<Instance> want = oracle::from_text(text, &want_error);
  const std::optional<Instance> got = from_text(text, &got_error);
  EXPECT_EQ(got.has_value(), want.has_value())
      << "<" << text << ">: " << (want ? got_error : want_error);
  if (want && got) {
    EXPECT_EQ(to_text(*got), to_text(*want)) << text;
  } else if (!want && !got) {
    EXPECT_EQ(got_error, want_error) << text;
  }
  return want.has_value();
}

// Byte ranges of the numbers in an instance text (every token but the
// keywords).
std::vector<std::pair<std::size_t, std::size_t>> number_spans(
    const std::string& text) {
  std::vector<std::pair<std::size_t, std::size_t>> spans;
  for (std::size_t i = 0; i < text.size();) {
    if (std::isdigit(static_cast<unsigned char>(text[i])) == 0) {
      ++i;
      continue;
    }
    const std::size_t begin = i;
    while (i < text.size() &&
           std::isdigit(static_cast<unsigned char>(text[i])) != 0)
      ++i;
    spans.emplace_back(begin, i);
  }
  return spans;
}

// One random mutation of the kinds the stream grammar has to agree on:
// odd whitespace, signs, leading zeros, 20-digit numbers, trailing garbage.
std::string mutate(std::string text, Rng& rng) {
  const auto pick = [&rng](std::size_t size) {
    return static_cast<std::size_t>(
        rng.uniform(0, static_cast<std::int64_t>(size) - 1));
  };
  const auto spans = number_spans(text);
  switch (rng.uniform(0, 5)) {
    case 0: {  // every separator becomes a random run of whitespace
      static const std::string kSpace = " \t\n\r\v\f";
      std::string out;
      for (const char c : text) {
        if (c != ' ' && c != '\n') {
          out += c;
          continue;
        }
        const auto run = rng.uniform(1, 3);
        for (std::int64_t k = 0; k < run; ++k) out += kSpace[pick(6)];
      }
      return out;
    }
    case 1: {  // a sign (or a broken one) in front of a number
      static const char* kSigns[] = {"+", "-", "+-", "-+", "++", "--"};
      const auto [begin, end] = spans[pick(spans.size())];
      (void)end;
      return text.insert(begin, kSigns[pick(6)]);
    }
    case 2: {  // leading zeros, up to a 25-digit token
      const auto [begin, end] = spans[pick(spans.size())];
      (void)end;
      return text.insert(begin, static_cast<std::size_t>(rng.uniform(1, 24)),
                         '0');
    }
    case 3: {  // a 20-digit number: always past the int64 range
      const auto [begin, end] = spans[pick(spans.size())];
      std::string digits(1, static_cast<char>('1' + pick(9)));
      while (digits.size() < 20) digits += static_cast<char>('0' + pick(10));
      return text.replace(begin, end - begin, digits);
    }
    case 4: {  // trailing garbage, glued on or separated
      static const char* kTails[] = {"x", " x", "\n7", " msrs", "\tclass 1 5",
                                     " 12abc", "-", " +"};
      return text + kTails[pick(8)];
    }
    default: {  // a byte glued onto a number or keyword
      static const std::string kGlue = "x.e,;0-+";
      return text.insert(pick(text.size() + 1), 1, kGlue[pick(kGlue.size())]);
    }
  }
}

std::vector<std::string> parser_corpus() {
  std::vector<std::string> texts;
  std::uint64_t seed = 1;
  for (const Family family : kAllFamilies)
    texts.push_back(to_text(generate(family, 14, 3, seed++)));
  texts.push_back("msrs 1\nmachines 3\nclasses 0\n");
  return texts;
}

TEST(ParserDifferential, EveryTruncationPointAgreesWithTheOracle) {
  for (const std::string& text : parser_corpus())
    for (std::size_t cut = 0; cut <= text.size(); ++cut)
      expect_same_parse(text.substr(0, cut));
}

TEST(ParserDifferential, MutatedTextsAgreeWithTheOracle) {
  Rng rng(20261016);
  int accepted = 0, rejected = 0;
  for (const std::string& text : parser_corpus()) {
    expect_same_parse(text);
    for (int round = 0; round < 300; ++round) {
      std::string mutant = text;
      const auto mutations = rng.uniform(1, 3);
      for (std::int64_t k = 0; k < mutations; ++k) mutant = mutate(mutant, rng);
      ++(expect_same_parse(mutant) ? accepted : rejected);
    }
  }
  // Both sides of the grammar get exercised.
  EXPECT_GT(accepted, 100);
  EXPECT_GT(rejected, 100);
}

TEST(ParserDifferential, ConcatenatedCorporaAgreeWithTheOracle) {
  Rng rng(1618);
  const std::vector<std::string> texts = parser_corpus();
  for (int round = 0; round < 200; ++round) {
    std::string corpus;
    const auto count = rng.uniform(0, 4);
    for (std::int64_t k = 0; k < count; ++k) {
      std::string text = texts[static_cast<std::size_t>(rng.uniform(
          0, static_cast<std::int64_t>(texts.size()) - 1))];
      if (rng.uniform(0, 3) == 0) text = mutate(text, rng);
      corpus += text;
    }
    if (rng.uniform(0, 4) == 0)
      corpus = corpus.substr(0, static_cast<std::size_t>(rng.uniform(
                                    0, static_cast<std::int64_t>(
                                           corpus.size()))));
    std::string want_error, got_error;
    std::istringstream want_in(corpus), got_in(corpus);
    const auto want = oracle::read_corpus(want_in, &want_error);
    const auto got = read_corpus(got_in, &got_error);
    ASSERT_EQ(got.has_value(), want.has_value()) << corpus;
    if (!want) {
      EXPECT_EQ(got_error, want_error) << corpus;
      continue;
    }
    ASSERT_EQ(got->size(), want->size()) << corpus;
    for (std::size_t i = 0; i < want->size(); ++i)
      EXPECT_EQ(to_text((*got)[i]), to_text((*want)[i])) << corpus;
  }
}

// ---------------- flat canonical shape ----------------

// The first canonical form, kept as the oracle of the flat one: classes as
// nested size vectors sorted descending, ranked heavier vector first (ties
// by class id), hashed in that order.
struct NestedForm {
  std::vector<std::vector<Time>> classes;
  std::vector<JobId> order;
  std::uint64_t key = 0;
};

NestedForm nested_form(const Instance& instance) {
  const auto fold = [](std::uint64_t h, std::uint64_t v) {
    std::uint64_t s = h ^ (v + 0x9e3779b97f4a7c15ULL);
    return splitmix64(s);
  };
  const auto count = static_cast<std::size_t>(instance.num_classes());
  std::vector<std::vector<JobId>> jobs(count);
  std::vector<std::vector<Time>> sizes(count);
  for (ClassId c = 0; c < instance.num_classes(); ++c) {
    auto& members = jobs[static_cast<std::size_t>(c)];
    members = instance.class_jobs(c);
    std::sort(members.begin(), members.end(), [&](JobId a, JobId b) {
      if (instance.size(a) != instance.size(b))
        return instance.size(a) > instance.size(b);
      return a < b;
    });
    for (const JobId j : members)
      sizes[static_cast<std::size_t>(c)].push_back(instance.size(j));
  }
  std::vector<std::size_t> by_shape(count);
  std::iota(by_shape.begin(), by_shape.end(), std::size_t{0});
  std::sort(by_shape.begin(), by_shape.end(),
            [&](std::size_t a, std::size_t b) {
              if (sizes[a] != sizes[b]) return sizes[a] > sizes[b];
              return a < b;
            });
  NestedForm form;
  form.key = fold(0x6d737273ULL,
                  static_cast<std::uint64_t>(instance.machines()));
  for (const std::size_t c : by_shape) {
    form.key = fold(form.key, 0xC1A55EEDULL);
    for (const Time p : sizes[c])
      form.key = fold(form.key, static_cast<std::uint64_t>(p));
    form.order.insert(form.order.end(), jobs[c].begin(), jobs[c].end());
    form.classes.push_back(sizes[c]);
  }
  return form;
}

TEST(ShapeDifferential, FlatShapeMatchesCanonicalFormAndTheNestedOracle) {
  Rng rng(424242);
  for (const Family family : kAllFamilies) {
    for (const int n : {12, 90}) {
      const Instance base =
          generate(family, n, 4, static_cast<std::uint64_t>(n));
      const engine::CanonicalForm base_form = engine::canonical_form(base);
      for (int variant = 0; variant < 4; ++variant) {
        const Instance instance =
            variant == 0 ? base : test::relabel(base, rng);
        const engine::CanonicalForm form = engine::canonical_form(instance);
        const NestedForm nested = nested_form(instance);
        std::vector<Time> sizes;
        std::vector<std::int32_t> lengths;
        for (const auto& cls : nested.classes) {
          sizes.insert(sizes.end(), cls.begin(), cls.end());
          lengths.push_back(static_cast<std::int32_t>(cls.size()));
        }
        EXPECT_EQ(form.key, nested.key) << family_name(family);
        EXPECT_EQ(form.sizes, sizes) << family_name(family);
        EXPECT_EQ(form.classes, lengths) << family_name(family);
        EXPECT_EQ(form.order, nested.order) << family_name(family);

        // The admission path: text -> flat listing -> shape, no Instance.
        const std::optional<FlatInstance> flat = parse_flat(to_text(instance));
        ASSERT_TRUE(flat.has_value());
        engine::CanonicalShape shape;
        engine::canonical_shape(*flat, &shape);
        EXPECT_EQ(shape.machines, form.machines);
        EXPECT_EQ(shape.key, form.key) << family_name(family);
        EXPECT_EQ(shape.sizes, form.sizes) << family_name(family);
        EXPECT_EQ(shape.classes, form.classes) << family_name(family);
        // Relabelling never changes the shape.
        EXPECT_TRUE(shape.same_shape(base_form)) << family_name(family);
      }
    }
  }
}

TEST(ShapeDifferential, GoldenKeysPinTheCacheKey) {
  // Keys computed by the nested canonical form this repository started
  // with: the cache key (canonical_form and the shard's canonical_shape)
  // must never drift.
  const struct {
    Family family;
    int n, m;
    std::uint64_t seed;
    std::uint64_t key;
  } cases[] = {
      {Family::kUniform, 32, 4, 1, 0xdcf79be7aec31ea0ULL},
      {Family::kHugeHeavy, 1000, 16, 7, 0xe9d94ab702fbe0ecULL},
      {Family::kManySmallClasses, 200, 8, 3, 0x936aad4fe7c1a451ULL},
  };
  for (const auto& c : cases) {
    const Instance instance = generate(c.family, c.n, c.m, c.seed);
    EXPECT_EQ(engine::canonical_form(instance).key, c.key)
        << family_name(c.family);
    engine::CanonicalShape shape;
    engine::canonical_shape(flatten(instance), &shape);
    EXPECT_EQ(shape.key, c.key) << family_name(c.family);
  }
}

// ---------------- relabelling metamorphic test ----------------

// Machines and classes carry no labels in the model, so every relabelling
// of an instance gets one answer: a fresh 1-shard service serves one body
// in forward and in reverse arrival order, and PortfolioSolver gives one
// solver, makespan and T, each schedule valid on its own relabelling.
// Scaling every size by 3 triples the makespan and keeps the solver (T
// rounds, so it need not triple).
TEST(RelabelMetamorphic, EveryRelabellingGetsOneAnswerInAnyArrivalOrder) {
  std::vector<Instance> bases;
  for (const Family family : kAllFamilies) {
    bases.push_back(generate(family, 40, 4, 1));
    bases.push_back(generate(family, 1000, 16, 1));
  }
  const std::optional<GeneratorSpec> adv_lpt =
      parse_spec("adv_lpt:n=200,m=8,seed=1");
  ASSERT_TRUE(adv_lpt.has_value());
  bases.push_back(generate(*adv_lpt));

  Rng rng(22);
  const engine::PortfolioSolver portfolio;
  for (const Instance& base : bases) {
    std::vector<Instance> variants;
    std::vector<std::string> lines;
    for (int v = 0; v < 8; ++v) {
      variants.push_back(test::relabel(base, rng));
      Json line = Json::object();
      line.set("id", std::int64_t{1});
      line.set("op", "solve");
      line.set("instance", to_text(variants.back()));
      lines.push_back(line.str());
    }
    std::vector<std::string> bodies;
    for (const bool reverse : {false, true}) {
      serve::ServiceOptions options;
      options.shards = 1;
      serve::Service service(options);
      for (int v = 0; v < 8; ++v)
        bodies.push_back(service.handle(lines[reverse ? 7 - v : v]));
    }
    EXPECT_NE(bodies[0].find("\"ok\":true"), std::string::npos) << bodies[0];
    for (const std::string& body : bodies)
      EXPECT_EQ(body, bodies[0]) << base.summary();

    const engine::PortfolioResult first = portfolio.solve(variants[0]);
    for (const Instance& variant : variants) {
      const engine::PortfolioResult result = portfolio.solve(variant);
      EXPECT_EQ(result.solver, first.solver) << base.summary();
      EXPECT_EQ(result.makespan, first.makespan) << base.summary();
      EXPECT_EQ(result.t_bound, first.t_bound) << base.summary();
      EXPECT_TRUE(is_valid(variant, result.schedule)) << base.summary();
    }
    std::vector<std::vector<Time>> tripled;
    for (ClassId c = 0; c < base.num_classes(); ++c) {
      tripled.emplace_back();
      for (const JobId j : base.class_jobs(c))
        tripled.back().push_back(3 * base.size(j));
    }
    const engine::PortfolioResult scaled =
        portfolio.solve(Instance(base.machines(), tripled));
    EXPECT_EQ(scaled.makespan, 3 * first.makespan) << base.summary();
    EXPECT_EQ(scaled.solver, first.solver) << base.summary();
  }
}

// ---------------- wire request-parser fuzz ----------------

TEST(WireFuzz, RandomRequestLinesNeverCrashAndAlwaysNameAnError) {
  // Random bytes over a JSON-flavored alphabet: the serving-layer request
  // parser must either produce a valid request or a named error — never
  // crash, never return an unnamed failure.
  Rng rng(20260729);
  const char alphabet[] = "{}[]\":,solvepingtau 0123456789.\\ne";
  for (int round = 0; round < 300; ++round) {
    std::string line;
    const auto len = static_cast<std::size_t>(rng.uniform(0, 100));
    for (std::size_t i = 0; i < len; ++i)
      line.push_back(alphabet[static_cast<std::size_t>(rng.uniform(
          0, static_cast<std::int64_t>(sizeof alphabet) - 2))]);
    serve::WireError code = serve::WireError::kParseError;
    std::string detail;
    const auto request = serve::parse_request(line, &code, &detail);
    if (!request.has_value()) {
      EXPECT_FALSE(std::string(serve::wire_error_name(code)).empty());
      EXPECT_NE(serve::wire_error_name(code), "unknown_error") << line;
    }
  }
}

TEST(WireFuzz, MutatedValidRequestsAreHandledByName) {
  // Start from a valid solve request and corrupt one byte at every
  // position; each mutant must parse cleanly or fail with a named error,
  // and a live service must answer it without dying.
  const std::string valid =
      R"({"id":3,"op":"solve","spec":"uniform:n=8,m=2,seed=1","wire":1})";
  serve::ServiceOptions options;
  options.shards = 1;
  serve::Service service(options);
  Rng rng(77);
  for (std::size_t position = 0; position < valid.size(); position += 3) {
    std::string mutant = valid;
    mutant[position] = static_cast<char>(rng.uniform(32, 126));
    const std::string response = service.handle(mutant);
    EXPECT_NE(response.find("\"ok\":"), std::string::npos) << mutant;
  }
  // The service survived the whole mutation sweep.
  const std::string response = service.handle(valid);
  EXPECT_NE(response.find("\"ok\":true"), std::string::npos);
}

// ---------------- wire request scan vs the Json-tree oracle ----------------

// The request parser the serving layer used before its tree-free scan:
// json_parse the whole line into a Json document, then read the members
// from the tree. It is kept here as the differential oracle of
// serve::parse_request, which must agree on every field, error code,
// detail and salvaged id.
namespace wire_oracle {

bool read_int(const Json& object, const std::string& key, int* out,
              std::string* detail) {
  const Json* member = object.find(key);
  if (member == nullptr) return true;
  const double v = member->is_number() ? member->as_number() : -1.0;
  if (v != std::floor(v) || v < 0 || v > 2147483647.0) {
    if (detail)
      *detail = "'" + key + "' must be a non-negative 32-bit integer";
    return false;
  }
  *out = static_cast<int>(v);
  return true;
}

std::optional<serve::Request> parse_request(const std::string& line,
                                            serve::WireError* code,
                                            std::string* detail,
                                            Json* id_out) {
  using serve::Op;
  using serve::WireError;
  const auto fail = [&](WireError c,
                        std::string d) -> std::optional<serve::Request> {
    if (code) *code = c;
    if (detail) *detail = std::move(d);
    return std::nullopt;
  };

  std::string parse_error;
  std::optional<Json> document = json_parse(line, &parse_error);
  if (!document) return fail(WireError::kParseError, parse_error);
  if (!document->is_object())
    return fail(WireError::kBadRequest, "request is not a JSON object");
  if (const Json* id = document->find("id"); id != nullptr && id_out)
    *id_out = *id;

  serve::Request request;
  if (const Json* id = document->find("id")) request.id = *id;

  const Json* op = document->find("op");
  if (op == nullptr || !op->is_string())
    return fail(WireError::kBadRequest, "missing string member 'op'");
  const std::string& name = op->as_string();
  if (name == "solve") request.op = Op::kSolve;
  else if (name == "ping") request.op = Op::kPing;
  else if (name == "stats") request.op = Op::kStats;
  else if (name == "version") request.op = Op::kVersion;
  else if (name == "shutdown") request.op = Op::kShutdown;
  else if (name == "open_session") request.op = Op::kOpenSession;
  else if (name == "submit_job") request.op = Op::kSubmitJob;
  else if (name == "cancel_job") request.op = Op::kCancelJob;
  else if (name == "snapshot") request.op = Op::kSnapshot;
  else if (name == "close_session") request.op = Op::kCloseSession;
  else if (name == "dump_recorder") request.op = Op::kDumpRecorder;
  else return fail(WireError::kUnknownOp, "unknown op '" + name + "'");

  if (request.op == Op::kDumpRecorder) {
    if (const Json* canonical = document->find("canonical")) {
      if (!canonical->is_bool())
        return fail(WireError::kBadRequest, "'canonical' must be a boolean");
      request.canonical = canonical->as_bool();
    }
  }

  std::string int_error;
  if (!read_int(*document, "wire", &request.wire, &int_error))
    return fail(WireError::kBadRequest, int_error);
  if (!read_int(*document, "budget_ms", &request.budget_ms, &int_error))
    return fail(WireError::kBadRequest, int_error);

  if (const Json* spec = document->find("spec")) {
    if (!spec->is_string())
      return fail(WireError::kBadRequest, "'spec' must be a string");
    request.spec = spec->as_string();
  }
  if (const Json* instance = document->find("instance")) {
    if (!instance->is_string())
      return fail(WireError::kBadRequest, "'instance' must be a string");
    request.instance = instance->as_string();
  }
  if (request.op == Op::kSolve &&
      (request.spec.empty() == request.instance.empty()))
    return fail(WireError::kBadRequest,
                "solve needs exactly one of 'spec' or 'instance'");

  const bool session_op =
      request.op == Op::kOpenSession || request.op == Op::kSubmitJob ||
      request.op == Op::kCancelJob || request.op == Op::kSnapshot ||
      request.op == Op::kCloseSession;
  if (session_op) {
    const Json* session = document->find("session");
    if (session == nullptr || !session->is_string() ||
        session->as_string().empty())
      return fail(WireError::kBadRequest,
                  "'" + name + "' needs a non-empty string 'session'");
    request.session = session->as_string();
  }
  if (request.op == Op::kOpenSession) {
    if (!read_int(*document, "machines", &request.machines, &int_error))
      return fail(WireError::kBadRequest, int_error);
    if (request.machines < 1)
      return fail(WireError::kBadRequest, "'machines' must be >= 1");
  }
  if (request.op == Op::kSubmitJob) {
    const Json* cls = document->find("class");
    if (cls == nullptr || !cls->is_string() || cls->as_string().empty())
      return fail(WireError::kBadRequest,
                  "'submit_job' needs a non-empty string 'class'");
    request.job_class = cls->as_string();
    if (!read_int(*document, "size", &request.size, &int_error))
      return fail(WireError::kBadRequest, int_error);
    if (request.size < 1)
      return fail(WireError::kBadRequest, "'size' must be >= 1");
  }
  if (request.op == Op::kCancelJob) {
    if (!read_int(*document, "job", &request.job, &int_error))
      return fail(WireError::kBadRequest, int_error);
    if (request.job < 0)
      return fail(WireError::kBadRequest,
                  "'cancel_job' needs a non-negative integer 'job'");
  }
  return request;
}

}  // namespace wire_oracle

// gtest assertion: the scan and the oracle agree on `line` — the same
// Request fields, or the same error code, detail, salvaged id and error
// response bytes.
::testing::AssertionResult same_request_parse(const std::string& line) {
  serve::WireError code = serve::WireError::kShuttingDown;
  serve::WireError oracle_code = serve::WireError::kShuttingDown;
  std::string detail = "unset", oracle_detail = "unset";
  Json id("unset"), oracle_id("unset");
  const std::optional<serve::Request> got =
      serve::parse_request(line, &code, &detail, &id);
  const std::optional<serve::Request> want =
      wire_oracle::parse_request(line, &oracle_code, &oracle_detail,
                                 &oracle_id);
  const auto failure = [&line]() {
    return ::testing::AssertionFailure()
           << "line (" << line.size() << " bytes): "
           << line.substr(0, 200) << "\n";
  };
  if (got.has_value() != want.has_value())
    return failure() << "scan " << (got ? "accepts" : "rejects")
                     << ", oracle " << (want ? "accepts" : "rejects") << ": "
                     << (got ? oracle_detail : detail);
  if (!(id == oracle_id) || id.str() != oracle_id.str())
    return failure() << "salvaged id " << id.str() << " vs "
                     << oracle_id.str();
  if (!got) {
    if (code != oracle_code || detail != oracle_detail)
      return failure() << serve::wire_error_name(code) << " '" << detail
                       << "' vs " << serve::wire_error_name(oracle_code)
                       << " '" << oracle_detail << "'";
    if (serve::error_response(id, code, detail) !=
        serve::error_response(oracle_id, oracle_code, oracle_detail))
      return failure() << "error response bytes differ";
    return ::testing::AssertionSuccess();
  }
  const serve::Request& a = *got;
  const serve::Request& b = *want;
  if (a.op != b.op || !(a.id == b.id) || a.id.str() != b.id.str() ||
      a.wire != b.wire || a.spec != b.spec || a.instance != b.instance ||
      a.budget_ms != b.budget_ms || a.session != b.session ||
      a.job_class != b.job_class || a.size != b.size || a.job != b.job ||
      a.machines != b.machines || a.canonical != b.canonical)
    return failure() << "request fields differ (id " << a.id.str() << " vs "
                     << b.id.str() << ")";
  return ::testing::AssertionSuccess();
}

// The hand-written corpus: the wire tests' lines, then one family per
// concern the scan must get right.
std::vector<std::string> wire_corpus() {
  std::vector<std::string> lines = {
      // Lines of the wire, service and transport tests.
      R"({"id":7,"op":"solve","spec":"uniform:n=20,m=4,seed=1","wire":1})",
      "not json at all", "[1,2,3]", R"({"id":1})", R"({"op":"fly"})",
      R"({"op":"solve"})", R"({"op":"solve","spec":"a","instance":"b"})",
      R"({"op":"solve","spec":"a","wire":1.5})",
      R"({"op":"solve","spec":[1]})",
      R"({"op":"solve","spec":"a","budget_ms":3000000000})",
      R"({"op":"ping","wire":1e300})", R"({"op":"ping","wire":-7})",
      R"({"id":42,"op":"fly"})", R"({"id":1,"op":"ping"})",
      R"({"op":"version"})", R"({"op":"stats"})", R"({"op":"shutdown"})",
      "}{ not json", R"({"op":"solve","spec":"no_such_family:n=5"})",
      R"({"op":"solve","instance":"msrs 9000"})",
      "{\"id\":1,\"op\":" + std::string(200, '['),
      R"({"id":1,"op":"solve","instance":"msrs 1\nmachines 2147483647\nclasses 1\nclass 1 5\n"})",
      R"({"op":"ping","wire":999})",
      R"({"op":"solve","spec":"uniform:n=20,m=4,seed=2","budget_ms":500})",
      R"({"id":3,"op":"solve","spec":"uniform:n=8,m=2,seed=1","wire":1})",
      R"({"id":1,"op":"open_session","session":"drain","machines":3})",
      R"({"id":2,"op":"submit_job","session":"drain","class":"c0","size":7})",
      R"({"id":6,"op":"snapshot","session":"drain"})",
      R"({"id":9,"op":"cancel_job","session":"s","job":0})",
      R"({"id":9,"op":"cancel_job","session":"s"})",
      R"({"id":9,"op":"close_session","session":""})",
      R"({"id":9,"op":"open_session","session":"s","machines":0})",
      R"({"id":9,"op":"submit_job","session":"s","class":"","size":1})",
      R"({"id":9,"op":"submit_job","session":"s","class":"c","size":0})",
      R"({"id":9,"op":"submit_job","session":5,"class":"c","size":1})",
      R"({"op":"dump_recorder","canonical":true})",
      R"({"op":"dump_recorder","canonical":1})",
      R"({"op":"ping","canonical":1})",
      // Non-object documents and trailing garbage.
      "", " ", "null", "true", "false", "12", "-0", "\"ping\"", "[]", "{}",
      R"({"op":"ping"} x)", R"({"op":"ping"}})", R"({"op":"ping"}{})",
      R"({"op":"ping"},)", "{\"op\":\"ping\"}\t\r\n ", " \n{\"op\":\"ping\"}",
      R"({"op":"ping",})", R"({"op" "ping"})", R"({op:"ping"})",
      R"({"op":'ping'})", R"({"op":"ping"]})", R"({"op":nul})",
      R"({"op":"ping","x":01})", R"({"op":"ping","x":1.})",
      R"({"op":"ping","x":.5})", R"({"op":"ping","x":+1})",
      R"({"op":"ping","x":1e})", R"({"op":"ping","x":--1})",
      // Keys and op names through escapes.
      R"({"\u006fp":"ping"})", R"({"op":"\u0070ing"})",
      R"({"o\p":"ping"})", R"({"op":"pi\ng"})", R"({"\u0069d":4,"op":"fly"})",
      R"({"op":"ping","\u00e9":1})", R"({"op":"ping","id\u0000":1})",
      R"({"id":[1],"op":"ping","\u0069d":2})",
      R"({"op":"ping","a_key_longer_than_sixteen_bytes\n":1})",
  };
  // Members in every order, and duplicate members.
  std::vector<std::string> members = {
      R"("id":5)", R"("op":"solve")", R"("spec":"uniform:n=8,m=2")",
      R"("wire":1)", R"("budget_ms":3)"};
  std::sort(members.begin(), members.end());
  do {
    std::string line = "{";
    for (std::size_t i = 0; i < members.size(); ++i)
      line += (i > 0 ? "," : "") + members[i];
    lines.push_back(line + "}");
  } while (std::next_permutation(members.begin(), members.end()));
  for (const char* dup :
       {R"({"op":"ping","op":"solve","spec":"a"})",
        R"({"op":"solve","spec":"a","op":"ping"})",
        R"({"op":"fly","op":"ping"})", R"({"op":"ping","op":"fly"})",
        R"({"id":1,"op":"ping","id":{"a":[2]}})",
        R"({"id":1,"op":"fly","id":"two"})",
        R"({"op":"solve","spec":"a","spec":5})",
        R"({"op":"solve","spec":5,"spec":"a"})",
        R"({"op":"solve","instance":"x","instance":7})",
        R"({"op":"solve","spec":"a","wire":1,"wire":2.5})",
        R"({"op":"solve","spec":"a","budget_ms":-1,"budget_ms":4})",
        R"({"op":"open_session","session":"","session":"s"})",
        R"({"op":"open_session","session":"s","machines":2,"machines":0})"})
    lines.push_back(dup);
  // Unknown members of each JSON type.
  for (const char* value :
       {"null", "true", "false", "0", "-1.5e3", R"("text")", R"("\"\\")",
        "[]", "{}", R"([1,"a",[null],{"b":{}}])", R"({"x":[{"y":false}]})"}) {
    lines.push_back(std::string(R"({"op":"ping","unknown":)") + value + "}");
    lines.push_back(std::string(R"({"unknown":)") + value +
                    R"(,"op":"solve","spec":"s"})");
  }
  // Ids of each type.
  for (const char* id :
       {"null", "true", "false", "0", "7", "-0", "1e2", "1.50", "1E-3",
        "123456789012345678901234567890", R"("")", R"("abc")",
        R"("é\n")", "[]", R"([1,[2,[3]]])", "{}",
        R"({"a":{"b":[1,{"c":null}]},"a":2})", R"({"z":1,"y":2,"z":3})"}) {
    lines.push_back(std::string(R"({"id":)") + id + R"(,"op":"ping"})");
    lines.push_back(std::string(R"({"op":"fly","id":)") + id + "}");
  }
  // wire and budget_ms at and past the int range.
  for (const char* key : {"wire", "budget_ms"})
    for (const char* value :
         {"0", "1", "2147483647", "2147483648", "-1", "1.5", "1e9", "1e10",
          "-0", "2147483647.0", R"("1")", "true", "null", "[1]"})
      lines.push_back(std::string(R"({"op":"solve","spec":"s",")") + key +
                      "\":" + value + "}");
  // Session integers at and past the int range.
  for (const std::string value :
       {"1", "0", "2147483647", "2147483648", "-1", "1.5"}) {
    lines.push_back(
        R"({"op":"open_session","session":"s","machines":)" + value + "}");
    lines.push_back(R"({"op":"cancel_job","session":"s","job":)" + value +
                    "}");
    lines.push_back(
        R"({"op":"submit_job","session":"s","class":"c","size":)" + value +
        "}");
  }
  // instance escapes and raw control bytes.
  for (const std::string& text :
       {std::string(R"(msrs 1\nmachines 2\nclasses 1\nclass 1 5\n)"),
        std::string(R"(msrs 1\nmachines 2\nclasses 1\nclass 1 5)"),
        std::string(R"(msrs 1\/2\tmachines\r\n)"),
        std::string(R"(msrs \u0031\nmachines \u0032\nclasses 1\nclass 1 5\n)"),
        std::string("msrs 1\nmachines 2\x01\x1f\x7f"),
        std::string(R"(\u00e9\u20ac\b\f)"), std::string(R"(\u12)"),
        std::string(R"(\u12G4)"), std::string(R"(\x)"), std::string(""),
        std::string(40, 'a') + "\\n" + std::string(13, 'b') + "\\\""})
    lines.push_back(R"({"id":1,"op":"solve","instance":")" + text + "\"}");
  lines.push_back("{\"op\":\"solve\",\"instance\":\"unterminated");
  lines.push_back("{\"op\":\"solve\",\"instance\":\"ends in \\");
  // Every truncation of three sample lines.
  const Instance instance = generate(Family::kUniform, 6, 2, 4);
  Json solve = Json::object();
  solve.set("id", "q\"1");
  solve.set("op", "solve");
  solve.set("instance", to_text(instance));
  for (const std::string& sample :
       {solve.str(),
        std::string(R"({"id":[1,{"a":-0.5e1}],"op":"submit_job",)"
                    R"("session":"s1","class":"c","size":3})"),
        std::string(
            R"( {"op":"dump_recorder", "canonical" : false ,"wire":1} )")})
    for (std::size_t cut = 0; cut <= sample.size(); ++cut)
      lines.push_back(sample.substr(0, cut));
  return lines;
}

TEST(WireDifferential, CorpusAgreesWithTheTreeOracle) {
  for (const std::string& line : wire_corpus())
    EXPECT_TRUE(same_request_parse(line));
}

TEST(WireDifferential, RandomAndMutatedLinesAgreeWithTheTreeOracle) {
  Rng rng(20261017);
  // Random lines over a JSON-flavoured alphabet.
  const char alphabet[] = "{}[]\":,solvepingidtau 0123456789.-+eE\\nu/";
  for (int round = 0; round < 3000; ++round) {
    std::string line;
    const auto len = static_cast<std::size_t>(rng.uniform(0, 60));
    for (std::size_t i = 0; i < len; ++i)
      line.push_back(alphabet[static_cast<std::size_t>(rng.uniform(
          0, static_cast<std::int64_t>(sizeof alphabet) - 2))]);
    ASSERT_TRUE(same_request_parse(line));
  }
  // Corpus lines with bytes replaced, inserted and deleted.
  const std::vector<std::string> corpus = wire_corpus();
  for (int round = 0; round < 6000; ++round) {
    std::string line = corpus[static_cast<std::size_t>(rng.uniform(
        0, static_cast<std::int64_t>(corpus.size()) - 1))];
    const int edits = static_cast<int>(rng.uniform(1, 3));
    for (int e = 0; e < edits; ++e) {
      const auto at = static_cast<std::size_t>(
          rng.uniform(0, static_cast<std::int64_t>(line.size())));
      const char byte = alphabet[static_cast<std::size_t>(rng.uniform(
          0, static_cast<std::int64_t>(sizeof alphabet) - 2))];
      switch (rng.uniform(0, 2)) {
        case 0:
          if (at < line.size()) line[at] = byte;
          break;
        case 1:
          line.insert(line.begin() + static_cast<std::ptrdiff_t>(at), byte);
          break;
        default:
          if (at < line.size()) line.erase(at, 1);
      }
    }
    ASSERT_TRUE(same_request_parse(line));
  }
}

// ---------------- byte-stream reassembly fuzz ----------------

// Reference framing: what any correct JSONL reassembler must produce for
// a byte stream, independent of packetization.
void reference_frames(const std::string& stream, std::vector<std::string>* lines,
                      std::string* remainder) {
  std::size_t begin = 0;
  for (std::size_t i = 0; i < stream.size(); ++i) {
    if (stream[i] == '\n') {
      lines->push_back(stream.substr(begin, i - begin));
      begin = i + 1;
    }
  }
  *remainder = stream.substr(begin);
}

TEST(FramerFuzz, RandomSplitPointsNeverChangeTheRecoveredLines) {
  // The transport cannot choose its packet boundaries; the reassembly
  // buffer must recover the identical line sequence for every chunking of
  // the same bytes — including splits through '\n' neighborhoods, empty
  // appends, and an unterminated tail.
  Rng rng(20260807);
  const char alphabet[] = "{}\":,solve ping\\n0123456789\r";
  for (int round = 0; round < 120; ++round) {
    std::string stream;
    const int pieces = static_cast<int>(rng.uniform(0, 12));
    for (int p = 0; p < pieces; ++p) {
      const auto len = static_cast<std::size_t>(rng.uniform(0, 40));
      for (std::size_t i = 0; i < len; ++i)
        stream.push_back(alphabet[static_cast<std::size_t>(rng.uniform(
            0, static_cast<std::int64_t>(sizeof alphabet) - 2))]);
      if (rng.uniform(0, 3) != 0) stream.push_back('\n');
    }
    std::vector<std::string> expected_lines;
    std::string expected_remainder;
    reference_frames(stream, &expected_lines, &expected_remainder);

    serve::LineFramer framer(1 << 16);
    std::vector<std::string> lines;
    std::string line;
    std::size_t offset = 0;
    while (offset < stream.size()) {
      if (rng.uniform(0, 7) == 0) framer.append(stream.data(), 0);  // no-op
      const auto chunk = static_cast<std::size_t>(rng.uniform(
          1, static_cast<std::int64_t>(stream.size() - offset)));
      framer.append(stream.data() + offset, chunk);
      offset += chunk;
      while (framer.next_line(&line)) lines.push_back(line);
    }
    ASSERT_EQ(lines, expected_lines) << "round " << round;
    EXPECT_FALSE(framer.overflowed()) << "round " << round;
    EXPECT_EQ(framer.take_remainder(), expected_remainder)
        << "round " << round;
    EXPECT_EQ(framer.buffered(), 0u) << "round " << round;
  }
}

TEST(FramerFuzz, OverflowLatchIsMonotoneUnderRandomChunking) {
  // Flood streams around the line bound: the framer must never crash, and
  // once the overflow latch trips it must never reset — the transport
  // relies on it to turn the connection into a drain-close exactly once.
  Rng rng(4242);
  for (int round = 0; round < 60; ++round) {
    serve::LineFramer framer(32);
    std::string stream;
    const auto len = static_cast<std::size_t>(rng.uniform(0, 200));
    for (std::size_t i = 0; i < len; ++i)
      stream.push_back(rng.uniform(0, 9) == 0 ? '\n' : 'x');
    bool seen_overflow = false;
    std::string line;
    std::size_t offset = 0;
    while (offset < stream.size()) {
      const auto chunk = static_cast<std::size_t>(
          rng.uniform(1, static_cast<std::int64_t>(stream.size() - offset)));
      framer.append(stream.data() + offset, chunk);
      offset += chunk;
      while (framer.next_line(&line)) {
      }
      if (seen_overflow) {
        EXPECT_TRUE(framer.overflowed()) << "latch reset, round " << round;
      }
      seen_overflow = framer.overflowed();
    }
  }
}

TEST(FramerFuzz, RandomlyChunkedTcpStreamAnswersEveryLineInOrder) {
  // End to end: a mixed valid/garbage request stream pushed through the
  // TCP transport in random-size segments must yield exactly one response
  // per non-empty line, with id-carrying responses in request order.
  if (!serve::tcp_transport_available())
    GTEST_SKIP() << "no TCP transport on this platform";
  serve::ServiceOptions service_options;
  service_options.shards = 2;
  service_options.budget_ms = 10;
  serve::Service service(service_options);
  std::promise<std::uint16_t> promise;
  std::future<std::uint16_t> future = promise.get_future();
  serve::TcpOptions options;
  options.tick_ms = 20;
  options.on_listen = [&promise](std::uint16_t p) { promise.set_value(p); };
  std::thread server([&service, options] {
    std::string error;
    EXPECT_EQ(serve::serve_tcp(service, "", "127.0.0.1:0", &error, options), 0)
        << error;
  });
  const std::string target = "127.0.0.1:" + std::to_string(future.get());

  Rng rng(31337);
  std::string stream;
  std::vector<int> sent_ids;
  std::size_t expected_responses = 0;
  for (int i = 0; i < 40; ++i) {
    switch (rng.uniform(0, 3)) {
      case 0:
        stream += "{\"id\":" + std::to_string(i) + ",\"op\":\"ping\"}\n";
        sent_ids.push_back(i);
        ++expected_responses;
        break;
      case 1:
        stream += "{\"id\":" + std::to_string(i) +
                  ",\"op\":\"solve\",\"spec\":\"uniform:n=10,m=2,seed=" +
                  std::to_string(1 + i % 4) + "\"}\n";
        sent_ids.push_back(i);
        ++expected_responses;
        break;
      case 2:
        stream += "%% not json at all %%\n";  // parse_error, no id echo
        ++expected_responses;
        break;
      default:
        stream += "\n";  // blank: skipped, no response
        break;
    }
  }
  serve::LineClient client;
  std::string error;
  ASSERT_TRUE(client.connect("", target, &error)) << error;
  std::size_t offset = 0;
  while (offset < stream.size()) {
    const auto chunk = static_cast<std::size_t>(
        rng.uniform(1, static_cast<std::int64_t>(stream.size() - offset)));
    ASSERT_TRUE(client.send_bytes(stream.data() + offset, chunk));
    offset += chunk;
  }
  client.shutdown_write();
  std::vector<int> got_ids;
  std::size_t responses = 0;
  std::string line;
  while (client.recv_line(&line)) {
    ++responses;
    const std::optional<Json> document = json_parse(line);
    ASSERT_TRUE(document.has_value()) << line;
    // Garbage lines come back as named errors with a null id; the order
    // contract is checked over the id-carrying successful responses.
    if (document->find("error") == nullptr)
      got_ids.push_back(static_cast<int>(document->find("id")->as_number()));
  }
  EXPECT_EQ(responses, expected_responses);
  EXPECT_EQ(got_ids, sent_ids) << "responses reordered or dropped";

  serve::request_stop();
  server.join();
  serve::reset_stop();
}

// ---------------- session churn fuzz ----------------

// Model-based fuzzing of the online-session ops: random interleavings of
// open/submit/cancel/snapshot/close — including cancels of unknown jobs,
// double-cancels, cancels after snapshots, ops on unknown or closed
// sessions, reopened names, and the open-session cap — replayed against a
// live Service and checked op-by-op against an independent model. Every
// defect must map to exactly the named wire error the model predicts, and
// every snapshot must report a valid schedule. Returns the full response
// transcript so the caller can assert per-seed determinism.
std::string churn_fuzz_round(std::uint64_t seed) {
  struct SessionModel {
    std::set<std::uint64_t> alive;
    std::uint64_t next_id = 0;
  };
  Rng rng(0x5e551a5eULL ^ seed * 0x9e3779b97f4a7c15ULL);
  serve::ServiceOptions options;
  options.shards = static_cast<unsigned>(rng.uniform(1, 4));
  options.budget_ms = 5;
  options.session_limit = 3;
  serve::Service service(options);
  std::map<std::string, SessionModel> open;
  const char* names[] = {"s0", "s1", "s2", "s3"};
  std::string transcript;
  for (int step = 0; step < 60; ++step) {
    const std::string session =
        names[static_cast<std::size_t>(rng.uniform(0, 3))];
    const auto found = open.find(session);
    const bool exists = found != open.end();
    const std::int64_t action = rng.uniform(0, 9);
    std::string line, expect;
    bool is_snapshot = false;
    if (action <= 1) {
      line = R"({"op":"open_session","session":")" + session +
             R"(","machines":)" + std::to_string(rng.uniform(1, 4)) + "}";
      if (exists) expect = "\"error\":\"bad_request\"";
      else if (open.size() >= options.session_limit)
        expect = "\"error\":\"session_limit\"";
      else {
        expect = "\"op\":\"open_session\"";
        open.emplace(session, SessionModel{});
      }
    } else if (action <= 4) {
      line = R"({"op":"submit_job","session":")" + session +
             R"(","class":"c)" + std::to_string(rng.uniform(0, 2)) +
             R"(","size":)" + std::to_string(rng.uniform(1, 40)) + "}";
      if (!exists) {
        expect = "\"error\":\"unknown_session\"";
      } else {
        expect = "\"job\":" + std::to_string(found->second.next_id);
        found->second.alive.insert(found->second.next_id++);
      }
    } else if (action <= 6) {
      // Half the cancels aim at a model-chosen alive job, half at an
      // arbitrary id — which may be dead (double-cancel), never assigned,
      // or accidentally alive; the model decides which response is right.
      std::uint64_t target = static_cast<std::uint64_t>(rng.uniform(0, 9));
      if (exists && !found->second.alive.empty() && rng.uniform(0, 1) == 0) {
        auto it = found->second.alive.begin();
        std::advance(it, rng.uniform(0, static_cast<std::int64_t>(
                                            found->second.alive.size()) -
                                            1));
        target = *it;
      }
      line = R"({"op":"cancel_job","session":")" + session + R"(","job":)" +
             std::to_string(target) + "}";
      if (!exists) {
        expect = "\"error\":\"unknown_session\"";
      } else if (found->second.alive.count(target) > 0) {
        expect = "\"cancelled\":true";
        found->second.alive.erase(target);
      } else {
        expect = "\"error\":\"unknown_job\"";
      }
    } else if (action <= 7) {
      line = R"({"op":"snapshot","session":")" + session + "\"}";
      if (!exists) {
        expect = "\"error\":\"unknown_session\"";
      } else {
        expect = "\"jobs\":" + std::to_string(found->second.alive.size());
        is_snapshot = true;
      }
    } else {
      line = R"({"op":"close_session","session":")" + session + "\"}";
      if (!exists) {
        expect = "\"error\":\"unknown_session\"";
      } else {
        expect = "\"op\":\"close_session\"";
        open.erase(found);
      }
    }
    const std::string response = service.handle(line);
    EXPECT_NE(response.find(expect), std::string::npos)
        << "seed " << seed << " step " << step << ": " << line << " -> "
        << response;
    // A snapshot of an open session is never an invalid schedule, however
    // adversarial the preceding churn was.
    if (is_snapshot) {
      EXPECT_NE(response.find("\"valid\":true"), std::string::npos)
          << "seed " << seed << " step " << step << ": " << response;
    }
    transcript += response;
    transcript += '\n';
  }
  return transcript;
}

TEST(SessionChurnFuzz, RandomInterleavingsMatchTheModel) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed)
    EXPECT_FALSE(churn_fuzz_round(seed).empty());
}

TEST(SessionChurnFuzz, RoundsAreDeterministicPerSeed) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed)
    EXPECT_EQ(churn_fuzz_round(seed), churn_fuzz_round(seed)) << seed;
}

// ---------------- cross-algorithm coherence ----------------

TEST(CoherenceFuzz, AllAlgorithmsDominateExactAndRespectBounds) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    const Instance instance = generate(
        seed % 2 ? Family::kBimodal : Family::kSatellite, 8, 3, seed);
    const ExactResult exact = exact_makespan(instance);
    ASSERT_TRUE(exact.optimal);
    const double opt = static_cast<double>(exact.makespan);
    const Time T = lower_bounds(instance).combined;
    EXPECT_GE(opt, static_cast<double>(T));

    const struct {
      AlgoResult result;
      double guarantee;
    } runs[] = {
        {five_thirds(instance), 5.0 / 3.0},
        {three_halves(instance), 1.5},
        {merge_lpt(instance), 2.0},
        {hebrard_insertion(instance), 2.0},
    };
    for (const auto& run : runs) {
      EXPECT_TRUE(is_valid(instance, run.result.schedule)) << run.result.name;
      const double makespan = run.result.schedule.makespan(instance);
      EXPECT_GE(makespan, opt - 1e-9) << run.result.name;
      EXPECT_LE(makespan, run.guarantee * opt + 1e-9)
          << run.result.name << " seed " << seed;
    }
  }
}

TEST(CoherenceFuzz, ScaledSchedulesAgreeAfterRescale) {
  // Rescaling a schedule must not change validity or the real makespan.
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const Instance instance = generate(Family::kUniform, 30, 4, seed);
    AlgoResult result = three_halves(instance);
    const double before = result.schedule.makespan(instance);
    result.schedule.rescale(7);
    EXPECT_TRUE(is_valid(instance, result.schedule));
    EXPECT_NEAR(result.schedule.makespan(instance), before, 1e-9);
  }
}

TEST(CoherenceFuzz, LowerBoundGrowsWithAddedJobs) {
  // Adding a job never decreases any component of the lower bound.
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Instance instance = generate(Family::kUniform, 25, 4, seed);
    const LowerBounds before = lower_bounds(instance);
    instance.add_job(instance.job_class(0), instance.max_size() + 1);
    const LowerBounds after = lower_bounds(instance);
    EXPECT_GE(after.area, before.area);
    EXPECT_GE(after.class_bound, before.class_bound);
    EXPECT_GE(after.combined, before.combined);
  }
}

}  // namespace
}  // namespace msrs
