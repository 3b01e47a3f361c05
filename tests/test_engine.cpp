// Tests for the engine layer: registry dispatch, portfolio racing and
// validation, batch sharding determinism, and the canonical-form cache.
#include <gtest/gtest.h>

#include <memory>
#include <numeric>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "algo/exact.hpp"
#include "algo/t_bound.hpp"
#include "core/validate.hpp"
#include "engine/engine.hpp"
#include "golden_answers.hpp"
#include "sim/generator.hpp"
#include "sim/workloads.hpp"
#include "test_support.hpp"

namespace msrs::engine {
namespace {

Instance tiny_instance() {
  return test::make_instance(3, {{4, 2}, {3, 3}, {5}});
}

::testing::AssertionResult same_results(
    const std::vector<PortfolioResult>& a,
    const std::vector<PortfolioResult>& b) {
  if (a.size() != b.size())
    return ::testing::AssertionFailure() << "result count differs";
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].solver != b[i].solver)
      return ::testing::AssertionFailure()
             << "result " << i << ": solver " << a[i].solver << " vs "
             << b[i].solver;
    if (a[i].t_bound != b[i].t_bound || a[i].valid != b[i].valid)
      return ::testing::AssertionFailure() << "result " << i << " differs";
    auto schedules = test::same_schedule(a[i].schedule, b[i].schedule);
    if (!schedules)
      return ::testing::AssertionFailure()
             << "result " << i << ": " << schedules.message();
  }
  return ::testing::AssertionSuccess();
}

// --- registry ----------------------------------------------------------------

TEST(Registry, DefaultContainsTheLadder) {
  const SolverRegistry& registry = SolverRegistry::default_registry();
  for (const char* name :
       {"one_per_class", "exact", "three_halves", "no_huge", "five_thirds",
        "eptas", "list_lpt", "merge_lpt", "hebrard"})
    EXPECT_NE(registry.find(name), nullptr) << name;
  EXPECT_EQ(registry.find("nope"), nullptr);
  EXPECT_EQ(registry.names().front(), "one_per_class");
}

class DummySolver final : public Solver {
 public:
  explicit DummySolver(std::string name) : name_(std::move(name)) {}
  std::string_view name() const override { return name_; }
  SolverResult solve(const Instance&) const override { return {}; }

 private:
  std::string name_;
};

TEST(Registry, RejectsDuplicateNames) {
  SolverRegistry registry = SolverRegistry::make_default();
  EXPECT_THROW(registry.add(std::make_unique<DummySolver>("exact")),
               std::invalid_argument);
  registry.add(std::make_unique<DummySolver>("dummy"));
  EXPECT_NE(registry.find("dummy"), nullptr);
}

TEST(Registry, ApplicabilityPredicates) {
  const SolverRegistry& registry = SolverRegistry::default_registry();
  const Instance small = tiny_instance();  // n=5, m=3, |C|=3
  EXPECT_TRUE(registry.find("exact")->applicable(small));
  EXPECT_TRUE(registry.find("one_per_class")->applicable(small));

  const Instance big = generate(Family::kUniform, 200, 8, 1);
  EXPECT_FALSE(registry.find("exact")->applicable(big));
  EXPECT_FALSE(registry.find("one_per_class")->applicable(big))
      << "uniform(200,8) should have more classes than machines";
  EXPECT_TRUE(registry.find("five_thirds")->applicable(big));
  EXPECT_TRUE(registry.find("three_halves")->applicable(big));
}

TEST(Registry, SolverResultsCarryProvenance) {
  const SolverRegistry& registry = SolverRegistry::default_registry();
  const Instance instance = generate(Family::kBimodal, 40, 4, 3);
  for (const auto& solver : registry.solvers()) {
    if (!solver->applicable(instance)) continue;
    const SolverResult result = solver->solve(instance);
    EXPECT_EQ(result.solver, solver->name());
    if (result.ok) {
      EXPECT_TRUE(is_valid(instance, result.schedule)) << result.solver;
    }
  }
}

// --- portfolio ---------------------------------------------------------------

TEST(Portfolio, ValidWithinFiveThirdsOfBoundOnAllFamilies) {
  PortfolioSolver portfolio;
  for (const Family family : kAllFamilies) {
    for (const int machines : {4, 8}) {
      for (const std::uint64_t seed : {1u, 2u}) {
        const Instance instance = generate(family, 48, machines, seed);
        const PortfolioResult result = portfolio.solve(instance);
        ASSERT_TRUE(result.valid) << family_name(family) << " seed " << seed;
        EXPECT_FALSE(result.solver.empty());
        EXPECT_TRUE(is_valid(instance, result.schedule));
        EXPECT_TRUE(result.schedule.complete());
        EXPECT_EQ(result.t_bound, three_halves_bound(instance));
        // Winner is at least as good as five_thirds, so exactly within
        // (5/3)T of the Lemma-9 bound.
        EXPECT_TRUE(test::schedule_within(instance, result.schedule,
                                          result.t_bound, 5, 3))
            << family_name(family) << " m=" << machines << " seed " << seed
            << " via " << result.solver;
        EXPECT_DOUBLE_EQ(
            result.ratio_vs_bound,
            result.makespan / static_cast<double>(result.t_bound));
      }
    }
  }
}

TEST(Portfolio, AttemptsRecordTheRaceAndWinnerIsBest) {
  PortfolioSolver portfolio;
  const Instance instance = generate(Family::kUniform, 60, 6, 7);
  const PortfolioResult result = portfolio.solve(instance);
  ASSERT_TRUE(result.valid);
  ASSERT_GE(result.attempts.size(), 3u);
  bool winner_seen = false;
  for (const Attempt& attempt : result.attempts) {
    EXPECT_FALSE(attempt.solver.empty());
    if (attempt.valid) {
      EXPECT_GE(attempt.makespan, result.makespan - 1e-9) << attempt.solver;
    }
    if (attempt.solver == result.solver) winner_seen = true;
  }
  EXPECT_TRUE(winner_seen);
}

TEST(Portfolio, RegimeShortcutsToOnePerClassWhenMachinesCoverClasses) {
  PortfolioSolver portfolio;
  const Instance instance = test::make_instance(4, {{9, 1}, {5, 5}, {7}});
  const PortfolioResult result = portfolio.solve(instance);
  ASSERT_TRUE(result.valid);
  EXPECT_EQ(result.solver, "one_per_class");
  EXPECT_DOUBLE_EQ(result.makespan, 10.0);  // max class load
}

TEST(Portfolio, ExactWinsOnTinyInstances) {
  PortfolioSolver portfolio;
  const Instance instance = tiny_instance();
  const PortfolioResult result = portfolio.solve(instance);
  ASSERT_TRUE(result.valid);
  const ExactResult exact = exact_makespan(instance);
  ASSERT_TRUE(exact.optimal);
  EXPECT_DOUBLE_EQ(result.makespan, static_cast<double>(exact.makespan));
}

TEST(Portfolio, RespectsOnlyFilter) {
  PortfolioOptions options;
  options.only = {"five_thirds"};
  PortfolioSolver portfolio(SolverRegistry::default_registry(), options);
  const Instance instance = generate(Family::kBimodal, 50, 5, 4);
  const PortfolioResult result = portfolio.solve(instance);
  ASSERT_TRUE(result.valid);
  EXPECT_EQ(result.solver, "five_thirds");
  ASSERT_EQ(result.attempts.size(), 1u);
}

TEST(Portfolio, BudgetGatesSearchSolvers) {
  // m < |C| so the one_per_class regime shortcut does not trigger.
  const Instance instance = test::make_instance(2, {{4, 2}, {3, 3}, {5}});
  PortfolioOptions cheap;
  cheap.budget_ms = 0;
  PortfolioSolver gated(SolverRegistry::default_registry(), cheap);
  for (const Solver* solver : gated.candidates(instance))
    EXPECT_NE(solver->name(), "exact");

  PortfolioSolver rich;  // default budget admits exact on tiny n
  bool exact_raced = false;
  for (const Solver* solver : rich.candidates(instance))
    if (solver->name() == "exact") exact_raced = true;
  EXPECT_TRUE(exact_raced);
}

TEST(Portfolio, RacingThreadsDoNotChangeTheResult) {
  const Instance instance = generate(Family::kHugeHeavy, 40, 6, 9);
  PortfolioOptions sequential;
  sequential.threads = 1;
  PortfolioOptions raced;
  raced.threads = 4;
  const PortfolioResult a =
      PortfolioSolver(SolverRegistry::default_registry(), sequential)
          .solve(instance);
  const PortfolioResult b =
      PortfolioSolver(SolverRegistry::default_registry(), raced)
          .solve(instance);
  ASSERT_TRUE(a.valid);
  EXPECT_EQ(a.solver, b.solver);
  EXPECT_TRUE(test::same_schedule(a.schedule, b.schedule));
}

TEST(Portfolio, EmptyInstanceIsTriviallyValid) {
  PortfolioSolver portfolio;
  Instance instance;
  instance.set_machines(2);
  const PortfolioResult result = portfolio.solve(instance);
  EXPECT_TRUE(result.valid);
  EXPECT_DOUBLE_EQ(result.makespan, 0.0);
}

TEST(Portfolio, LadderArithmeticStaysBelowTwoToTheSixtyTwoAtTheInputLimits) {
  // Instances at the input limits of core/types.hpp: a total load of
  // exactly 2^53 in jobs at the 2^40 size cap, a small one every search
  // rung accepts, and 2^22 machines. Every applicable rung must return a
  // valid schedule whose scaled makespan, times the largest schedule scale
  // the race compares it against (3), stays below the 2^62 headroom that
  // checked_mul asserts in debug builds.
  const std::vector<Time> max_class(512, kMaxJobSize);
  const Instance load_cap(6, std::vector<std::vector<Time>>(16, max_class));
  ASSERT_EQ(load_cap.total_load(), kMaxTotalLoad);
  const Instance search(3, {{kMaxJobSize, kMaxJobSize - 1, 7},
                            {kMaxJobSize, 1},
                            {kMaxJobSize / 3},
                            {kMaxJobSize / 2, 5}});
  const Instance machine_cap(static_cast<int>(kMaxMachines),
                             {{kMaxJobSize, kMaxJobSize}, {kMaxJobSize}});
  PortfolioOptions options;
  options.budget_ms = 500;  // let exact and eptas join on `search`
  const PortfolioSolver portfolio(SolverRegistry::default_registry(), options);
  constexpr Time kHeadroom = (Time{1} << 62) / 3;
  for (const Instance* instance : {&load_cap, &search, &machine_cap}) {
    for (const Solver* solver : portfolio.candidates(*instance)) {
      const SolverResult run = solver->solve(*instance);
      ASSERT_TRUE(run.ok) << solver->name() << ": " << run.error;
      EXPECT_TRUE(is_valid(*instance, run.schedule)) << solver->name();
      EXPECT_LE(run.schedule.scale(), 3) << solver->name();
      EXPECT_LT(run.schedule.makespan_scaled(*instance), kHeadroom)
          << solver->name();
    }
    EXPECT_TRUE(portfolio.solve(*instance).valid) << instance->summary();
  }
}

// One row of test::kGoldenAnswers: `spec solver makespan t_bound`, the
// makespan as a reduced fraction when it is not integral.
std::string golden_row(const CorpusEntry& entry,
                       const PortfolioResult& result) {
  const Time makespan = result.schedule.makespan_scaled(entry.instance);
  const Time divisor = std::gcd(makespan, result.schedule.scale());
  std::string row = entry.spec.str() + " " + result.solver + " " +
                    std::to_string(makespan / divisor);
  if (result.schedule.scale() != divisor)
    row += "/" + std::to_string(result.schedule.scale() / divisor);
  return row + " " + std::to_string(result.t_bound);
}

TEST(GoldenAnswers, DefaultRaceMatchesThePinnedTable) {
  // Pins the winner, its exact makespan and T on 360 instances, 341 of
  // them races of several candidates. Equal makespans are common, so the
  // "registration order breaks ties" contract decides many winners.
  const std::optional<SweepSpec> sweep = parse_sweep(test::kGoldenSweep);
  ASSERT_TRUE(sweep.has_value());
  const PortfolioSolver portfolio;
  std::istringstream golden(test::kGoldenAnswers);
  std::string expected;
  int rows = 0, races = 0;
  for (const CorpusEntry& entry : make_corpus(*sweep)) {
    ASSERT_TRUE(std::getline(golden, expected)) << "golden table too short";
    const PortfolioResult result = portfolio.solve(entry.instance);
    EXPECT_EQ(golden_row(entry, result), expected);
    ++rows;
    if (result.attempts.size() > 1) ++races;
  }
  EXPECT_FALSE(std::getline(golden, expected)) << "golden table too long";
  EXPECT_EQ(rows, 360);
  EXPECT_EQ(races, 341);
}

// --- canonical form ----------------------------------------------------------

TEST(CanonicalForm, InvariantUnderClassAndJobPermutation) {
  const Instance a = test::make_instance(2, {{5, 3}, {7}, {2, 2, 4}});
  const Instance b = test::make_instance(2, {{4, 2, 2}, {3, 5}, {7}});
  const CanonicalForm fa = canonical_form(a);
  const CanonicalForm fb = canonical_form(b);
  EXPECT_EQ(fa.key, fb.key);
  EXPECT_TRUE(fa.same_shape(fb));
}

TEST(CanonicalForm, DistinguishesMachinesAndSizes) {
  const Instance a = test::make_instance(2, {{5, 3}, {7}});
  const Instance b = test::make_instance(3, {{5, 3}, {7}});
  const Instance c = test::make_instance(2, {{5, 4}, {7}});
  EXPECT_FALSE(canonical_form(a).same_shape(canonical_form(b)));
  EXPECT_FALSE(canonical_form(a).same_shape(canonical_form(c)));
}

// --- batch engine ------------------------------------------------------------

std::vector<Instance> mixed_batch(int repeats, int seeds) {
  std::vector<Instance> batch;
  for (int r = 0; r < repeats; ++r)
    for (int s = 1; s <= seeds; ++s)
      for (const Family family :
           {Family::kUniform, Family::kBimodal, Family::kManySmallClasses,
            Family::kSatellite, Family::kPhotolith})
        batch.push_back(generate(family, 18, 3 + (s % 3) * 2,
                                 static_cast<std::uint64_t>(s)));
  return batch;
}

TEST(BatchEngine, OutputIndependentOfThreadCount) {
  const std::vector<Instance> batch = mixed_batch(1, 12);
  BatchOptions one;
  one.threads = 1;
  BatchOptions many;
  many.threads = 8;
  BatchEngine engine_one(SolverRegistry::default_registry(), one);
  BatchEngine engine_many(SolverRegistry::default_registry(), many);
  const auto a = engine_one.solve(batch);
  const auto b = engine_many.solve(batch);
  EXPECT_TRUE(same_results(a, b));
  EXPECT_EQ(engine_one.stats().cache_hits, engine_many.stats().cache_hits);
  EXPECT_EQ(engine_one.stats().solved, engine_many.stats().solved);
}

TEST(BatchEngine, ServesRepeatedInstancesFromCache) {
  std::vector<Instance> batch;
  for (int copy = 0; copy < 3; ++copy)
    for (int s = 1; s <= 4; ++s)
      batch.push_back(generate(Family::kUniform, 20, 4,
                               static_cast<std::uint64_t>(s)));
  BatchEngine engine;
  const auto results = engine.solve(batch);
  EXPECT_EQ(engine.stats().solved, 4u);
  EXPECT_EQ(engine.stats().cache_hits, 8u);
  EXPECT_EQ(engine.stats().entries, 4u);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    EXPECT_TRUE(results[i].valid);
    EXPECT_TRUE(is_valid(batch[i], results[i].schedule)) << i;
  }

  // A second identical batch is served entirely from the resident cache.
  const auto again = engine.solve(batch);
  EXPECT_EQ(engine.stats().solved, 4u);
  EXPECT_EQ(engine.stats().cache_hits, 20u);
  EXPECT_TRUE(same_results(results, again));
}

TEST(BatchEngine, CacheRemapsPermutedTwins) {
  // Same canonical shape, different class/job order: the cached schedule
  // must transfer through the canonical bijection and stay valid.
  const Instance a = test::make_instance(2, {{6, 2}, {5, 5}, {9}});
  const Instance b = test::make_instance(2, {{9}, {2, 6}, {5, 5}});
  BatchEngine engine;
  const auto results = engine.solve({a, b});
  EXPECT_EQ(engine.stats().solved, 1u);
  EXPECT_EQ(engine.stats().cache_hits, 1u);
  ASSERT_TRUE(results[0].valid);
  ASSERT_TRUE(results[1].valid);
  EXPECT_TRUE(is_valid(b, results[1].schedule));
  EXPECT_DOUBLE_EQ(results[0].makespan, results[1].makespan);
  EXPECT_EQ(results[0].solver, results[1].solver);
}

TEST(BatchEngine, BoundedCacheEvictsButStaysCorrect) {
  BatchOptions options;
  options.cache_capacity = 2;  // room for two shapes
  BatchEngine engine(SolverRegistry::default_registry(), options);
  // Four distinct shapes, then a repeat of the first: with capacity 2 the
  // first shape has been evicted, so it is re-solved — correctly.
  std::vector<Instance> batch;
  for (int s = 1; s <= 4; ++s)
    batch.push_back(generate(Family::kUniform, 18 + 2 * s, 4,
                             static_cast<std::uint64_t>(s)));
  const auto first = engine.solve(batch);
  EXPECT_EQ(engine.stats().entries, 2u);
  EXPECT_GE(engine.cache_stats().evictions, 2u);
  EXPECT_EQ(engine.cache_stats().capacity, 2u);

  const auto again = engine.solve({batch[0]});
  EXPECT_EQ(engine.stats().solved, 5u);  // evicted shape solved again
  ASSERT_TRUE(again[0].valid);
  EXPECT_DOUBLE_EQ(again[0].makespan, first[0].makespan);
  EXPECT_TRUE(is_valid(batch[0], again[0].schedule));

  // The repeat of a *resident* shape is still a hit.
  const auto resident = engine.solve({batch[3]});
  EXPECT_EQ(engine.stats().solved, 5u);
  EXPECT_TRUE(resident[0].from_cache);
}

TEST(BatchEngine, CacheDisabledSolvesEverything) {
  const std::vector<Instance> batch = {
      generate(Family::kUniform, 16, 4, 1),
      generate(Family::kUniform, 16, 4, 1),
  };
  BatchOptions options;
  options.cache = false;
  BatchEngine engine(SolverRegistry::default_registry(), options);
  const auto results = engine.solve(batch);
  EXPECT_EQ(engine.stats().solved, 2u);
  EXPECT_EQ(engine.stats().cache_hits, 0u);
  EXPECT_TRUE(same_results({results[0]}, {results[1]}));
}

TEST(BatchEngine, RepeatedShapeWithoutAScheduleStaysInvalid) {
  // `no_huge` does not apply to a huge job, so the race is empty. The
  // repeat is answered from the first race, which has no schedule for
  // remap_result to read.
  const Instance instance = generate(Family::kHugeHeavy, 200, 8, 1);
  BatchOptions options;
  options.portfolio.only = {"no_huge"};
  BatchEngine engine(SolverRegistry::default_registry(), options);
  const auto results = engine.solve({instance, instance});
  EXPECT_EQ(engine.stats().solved, 1u);
  EXPECT_FALSE(results[0].valid);
  EXPECT_FALSE(results[1].valid);
  EXPECT_TRUE(results[1].from_cache);
}

// Acceptance: a 1000-instance mixed batch, solved deterministically with
// measurable cache hits, every result validated.
TEST(BatchEngine, ThousandInstanceMixedBatch) {
  const std::vector<Instance> batch = mixed_batch(/*repeats=*/5, /*seeds=*/40);
  ASSERT_EQ(batch.size(), 1000u);
  BatchOptions options;
  options.threads = 4;
  BatchEngine engine(SolverRegistry::default_registry(), options);
  const auto results = engine.solve(batch);

  EXPECT_EQ(engine.stats().instances, 1000u);
  EXPECT_EQ(engine.stats().solved, 200u);      // 5 families x 40 seeds, once each
  EXPECT_EQ(engine.stats().cache_hits, 800u);  // the other 4 repeats
  for (std::size_t i = 0; i < batch.size(); ++i) {
    ASSERT_TRUE(results[i].valid) << i;
    EXPECT_TRUE(test::schedule_within(batch[i], results[i].schedule,
                                      results[i].t_bound, 5, 3))
        << i << " via " << results[i].solver;
  }

  BatchOptions sequential;
  sequential.threads = 1;
  BatchEngine engine_seq(SolverRegistry::default_registry(), sequential);
  EXPECT_TRUE(same_results(results, engine_seq.solve(batch)));
}

}  // namespace
}  // namespace msrs::engine
