// Tests for the exact branch-and-bound solver.
#include <gtest/gtest.h>

#include "algo/exact.hpp"
#include "algo/three_halves.hpp"
#include "core/lower_bounds.hpp"
#include "sim/generator.hpp"
#include "sim/spec.hpp"
#include "sim/workloads.hpp"
#include "test_support.hpp"

namespace msrs {
namespace {

TEST(Exact, HandComputedOptima) {
  // P||Cmax without conflicts: partition {3,3,2,2,2} on 2 machines -> 6.
  Instance a = test::make_instance(2, {{3}, {3}, {2}, {2}, {2}});
  EXPECT_EQ(exact_makespan(a).makespan, 6);

  // Class conflicts force serialization: one class of three unit jobs on 3
  // machines still needs makespan 3.
  Instance b = test::make_instance(3, {{1, 1, 1}});
  EXPECT_EQ(exact_makespan(b).makespan, 3);

  // Two classes {2,2} on 2 machines: interleave -> 4.
  Instance c = test::make_instance(2, {{2, 2}, {2, 2}});
  EXPECT_EQ(exact_makespan(c).makespan, 4);
}

TEST(Exact, ForcedIdleTime) {
  // m=2. Class A = {2,2}, class B = {1}, class C = {1}:
  // OPT = 4 (A serializes); the second machine has slack.
  Instance instance = test::make_instance(2, {{2, 2}, {1}, {1}});
  const ExactResult result = exact_makespan(instance);
  EXPECT_EQ(result.makespan, 4);
  EXPECT_TRUE(is_valid(instance, result.schedule));
}

TEST(Exact, ScheduleIsValidAndMatchesMakespan) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const Instance instance = generate(Family::kUniform, 8, 3, seed);
    const ExactResult result = exact_makespan(instance);
    ASSERT_TRUE(result.optimal);
    ASSERT_TRUE(is_valid(instance, result.schedule));
    EXPECT_EQ(result.schedule.makespan_scaled(instance), result.makespan);
    EXPECT_GE(result.makespan, lower_bounds(instance).combined);
  }
}

TEST(Exact, PrunedMatchesExhaustive) {
  // The pruned search must agree with the exhaustive one on tiny instances.
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    const Instance instance = generate(Family::kBimodal, 6, 2, seed);
    ExactOptions pruned;
    ExactOptions exhaustive;
    exhaustive.prune = false;
    const ExactResult a = exact_makespan(instance, pruned);
    const ExactResult b = exact_makespan(instance, exhaustive);
    ASSERT_TRUE(a.optimal && b.optimal);
    EXPECT_EQ(a.makespan, b.makespan) << "seed " << seed;
    EXPECT_LE(a.nodes, b.nodes);
  }
}

TEST(Exact, NeverBeatsLowerBoundNorLosesToApprox) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const Instance instance = generate(Family::kSatellite, 9, 3, seed);
    const ExactResult exact = exact_makespan(instance);
    ASSERT_TRUE(exact.optimal);
    EXPECT_GE(exact.makespan, lower_bounds(instance).combined);
    const AlgoResult approx = three_halves(instance);
    EXPECT_LE(static_cast<double>(exact.makespan),
              approx.schedule.makespan(instance) + 1e-9);
  }
}

TEST(ExactDecide, ThresholdBehavior) {
  Instance instance = test::make_instance(2, {{2, 2}, {2, 2}});
  EXPECT_EQ(exact_decide(instance, 3), 0);
  EXPECT_EQ(exact_decide(instance, 4), 1);
  EXPECT_EQ(exact_decide(instance, 100), 1);
}

TEST(ExactDecide, MatchesExactMakespan) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const Instance instance = generate(Family::kUnit, 10, 3, seed);
    const ExactResult exact = exact_makespan(instance);
    ASSERT_TRUE(exact.optimal);
    EXPECT_EQ(exact_decide(instance, exact.makespan), 1);
    if (exact.makespan > 1) {
      EXPECT_EQ(exact_decide(instance, exact.makespan - 1), 0);
    }
  }
}

TEST(Exact, NodeLimitReportsNonOptimal) {
  ExactOptions options;
  options.node_limit = 10;
  const Instance instance = generate(Family::kUniform, 12, 3, 42);
  const ExactResult result = exact_makespan(instance, options);
  EXPECT_FALSE(result.optimal);
  EXPECT_GT(result.makespan, 0);
}

TEST(Exact, TakesTFromTheBoundNotFromAlgorithmThreeHalves) {
  // Algorithm_3/2 has thrown "ran out of machines" on this instance. The
  // exact search needs only T, so it must not run the algorithm to read it.
  const std::optional<GeneratorSpec> spec =
      parse_spec("lemma9_tight:n=20,m=6,seed=10");
  ASSERT_TRUE(spec.has_value());
  const Instance instance = generate(*spec);
  ExactOptions options;
  options.node_limit = 1000;
  ExactResult result;
  ASSERT_NO_THROW(result = exact_makespan(instance, options));
  EXPECT_GE(result.makespan, lower_bounds(instance).combined);
}

}  // namespace
}  // namespace msrs
