#include <gtest/gtest.h>

#include <sstream>

#include "core/instance.hpp"
#include "core/instance_io.hpp"
#include "core/lower_bounds.hpp"
#include "core/schedule.hpp"
#include "core/validate.hpp"
#include "sim/workloads.hpp"
#include "test_support.hpp"

namespace msrs {
namespace {

TEST(Instance, AggregatesAreMaintained) {
  Instance instance = test::make_instance(3, {{5, 3}, {7}, {2, 2, 2}});
  EXPECT_EQ(instance.num_jobs(), 6);
  EXPECT_EQ(instance.num_classes(), 3);
  EXPECT_EQ(instance.class_load(0), 8);
  EXPECT_EQ(instance.class_load(1), 7);
  EXPECT_EQ(instance.class_load(2), 6);
  EXPECT_EQ(instance.class_max(0), 5);
  EXPECT_EQ(instance.class_max(2), 2);
  EXPECT_EQ(instance.total_load(), 21);
  EXPECT_EQ(instance.max_size(), 7);
  EXPECT_TRUE(instance.check().empty());
}

TEST(Instance, CheckRejectsEmptyClass) {
  Instance instance;
  instance.set_machines(2);
  instance.add_class();
  EXPECT_FALSE(instance.check().empty());
}

TEST(Instance, CheckRejectsZeroSize) {
  Instance instance;
  instance.set_machines(2);
  const ClassId c = instance.add_class();
  instance.add_job(c, 0);
  EXPECT_FALSE(instance.check().empty());
}

TEST(Instance, JobClassBackPointers) {
  Instance instance = test::make_instance(1, {{1, 2}, {3}});
  EXPECT_EQ(instance.job_class(0), 0);
  EXPECT_EQ(instance.job_class(1), 0);
  EXPECT_EQ(instance.job_class(2), 1);
}

TEST(Schedule, MakespanAndScale) {
  Instance instance = test::make_instance(2, {{4}, {6}});
  Schedule schedule(instance.num_jobs(), /*scale=*/2);
  schedule.assign(0, 0, 0);   // [0, 8) scaled
  schedule.assign(1, 1, 3);   // [3, 15) scaled
  EXPECT_EQ(schedule.makespan_scaled(instance), 15);
  EXPECT_DOUBLE_EQ(schedule.makespan(instance), 7.5);
}

TEST(Schedule, RescaleKeepsRationalTimes) {
  Instance instance = test::make_instance(1, {{3}});
  Schedule schedule(1, 1);
  schedule.assign(0, 0, 2);
  schedule.rescale(6);
  EXPECT_EQ(schedule.scale(), 6);
  EXPECT_EQ(schedule.start(0), 12);
  EXPECT_DOUBLE_EQ(schedule.makespan(instance), 5.0);
}

TEST(Validate, AcceptsDisjointSchedule) {
  Instance instance = test::make_instance(2, {{2, 2}, {3}});
  Schedule schedule(3, 1);
  schedule.assign(0, 0, 0);
  schedule.assign(1, 0, 2);  // same class, sequential: fine
  schedule.assign(2, 1, 0);
  EXPECT_TRUE(is_valid(instance, schedule));
}

TEST(Validate, DetectsMachineOverlap) {
  Instance instance = test::make_instance(1, {{2}, {2}});
  Schedule schedule(2, 1);
  schedule.assign(0, 0, 0);
  schedule.assign(1, 0, 1);
  const auto report = validate(instance, schedule);
  ASSERT_EQ(report.violations.size(), 1u);
  EXPECT_EQ(report.violations[0].kind, Violation::Kind::kMachineOverlap);
}

TEST(Validate, DetectsClassOverlapAcrossMachines) {
  Instance instance = test::make_instance(2, {{2, 2}});
  Schedule schedule(2, 1);
  schedule.assign(0, 0, 0);
  schedule.assign(1, 1, 1);  // same resource, overlapping in time
  const auto report = validate(instance, schedule);
  ASSERT_EQ(report.violations.size(), 1u);
  EXPECT_EQ(report.violations[0].kind, Violation::Kind::kClassOverlap);
}

TEST(Validate, DetectsUnassignedAndBadMachine) {
  Instance instance = test::make_instance(1, {{1}, {1}});
  Schedule schedule(2, 1);
  schedule.assign(1, 5, 0);
  const auto report = validate(instance, schedule);
  EXPECT_EQ(report.violations.size(), 2u);
}

TEST(Validate, DetectsNegativeStart) {
  Instance single = test::make_instance(1, {{3}});
  Schedule alone(1, 1);
  alone.assign(0, 0, -1);
  const auto report = validate(single, alone);
  ASSERT_EQ(report.violations.size(), 1u);
  EXPECT_EQ(report.violations[0].kind, Violation::Kind::kNegativeStart);
  EXPECT_EQ(report.violations[0].a, 0);

  // Valid with job 0 at 0; moving it to -1 breaks only that rule.
  Instance pair = test::make_instance(2, {{2}, {3}});
  Schedule schedule(2, 1);
  schedule.assign(0, 0, -1);
  schedule.assign(1, 1, 0);
  const auto pair_report = validate(pair, schedule);
  ASSERT_EQ(pair_report.violations.size(), 1u);
  EXPECT_EQ(pair_report.violations[0].kind, Violation::Kind::kNegativeStart);
  EXPECT_EQ(pair_report.violations[0].a, 0);
}

TEST(Validate, MakespanLimit) {
  Instance instance = test::make_instance(1, {{3}});
  Schedule schedule(1, 1);
  schedule.assign(0, 0, 1);
  EXPECT_TRUE(validate(instance, schedule, 4).ok());
  EXPECT_FALSE(validate(instance, schedule, 3).ok());
}

TEST(Validate, TouchingIntervalsAreFine) {
  Instance instance = test::make_instance(2, {{2, 2}});
  Schedule schedule(2, 1);
  schedule.assign(0, 0, 0);
  schedule.assign(1, 1, 2);  // starts exactly when the first ends
  EXPECT_TRUE(is_valid(instance, schedule));
}

TEST(LowerBounds, MatchesHandComputation) {
  // m=2; loads: class A=10 (jobs 7,3), B=5, C=4. p(J)=19 => area=10.
  Instance instance = test::make_instance(2, {{7, 3}, {5}, {4}});
  const auto lb = lower_bounds(instance);
  EXPECT_EQ(lb.area, 10);
  EXPECT_EQ(lb.class_bound, 10);
  // sizes sorted: 7,5,4,3 ; m=2 -> p_(2)+p_(3) = 5+4 = 9
  EXPECT_EQ(lb.pair, 9);
  EXPECT_EQ(lb.combined, 10);
}

TEST(LowerBounds, PairBoundZeroWhenFewJobs) {
  Instance instance = test::make_instance(4, {{5}, {6}});
  EXPECT_EQ(lower_bounds(instance).pair, 0);
}

TEST(LowerBounds, NeverExceedsTrivialUpperBound) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const Instance instance = generate(Family::kUniform, 40, 4, seed);
    const auto lb = lower_bounds(instance);
    EXPECT_LE(lb.combined, instance.total_load());
    EXPECT_GE(lb.combined, lb.area);
    EXPECT_GE(lb.combined, lb.class_bound);
    EXPECT_GE(lb.combined, lb.pair);
  }
}

TEST(InstanceIo, RoundTrip) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const Instance original = generate(Family::kBimodal, 30, 3, seed);
    const std::string text = to_text(original);
    std::string error;
    const auto parsed = from_text(text, &error);
    ASSERT_TRUE(parsed.has_value()) << error;
    EXPECT_EQ(parsed->machines(), original.machines());
    EXPECT_EQ(parsed->num_jobs(), original.num_jobs());
    EXPECT_EQ(parsed->num_classes(), original.num_classes());
    EXPECT_EQ(to_text(*parsed), text);
  }
}

TEST(InstanceIo, RoundTripPreservesEveryJob) {
  for (const Family family :
       {Family::kUniform, Family::kHugeHeavy, Family::kUnit}) {
    const Instance original = generate(family, 50, 5, 11);
    std::string error;
    const auto parsed = from_text(to_text(original), &error);
    ASSERT_TRUE(parsed.has_value()) << error;
    ASSERT_EQ(parsed->num_jobs(), original.num_jobs());
    for (JobId j = 0; j < original.num_jobs(); ++j) {
      EXPECT_EQ(parsed->size(j), original.size(j));
      EXPECT_EQ(parsed->job_class(j), original.job_class(j));
    }
    EXPECT_EQ(parsed->total_load(), original.total_load());
  }
}

TEST(InstanceIo, RejectsGarbage) {
  std::string error;
  EXPECT_FALSE(from_text("not an instance", &error).has_value());
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(from_text("msrs 2\nmachines 1\nclasses 0\n").has_value());
  EXPECT_FALSE(
      from_text("msrs 1\nmachines 1\nclasses 1\nclass 1 0\n").has_value());
}

// `jobs` jobs of size 2^40 in one class on 2 machines: a total load of
// jobs * 2^40 (2^53 at 8192 jobs).
std::string max_size_jobs(int jobs) {
  std::ostringstream text;
  text << "msrs 1\nmachines 2\nclasses 1\nclass " << jobs;
  for (int i = 0; i < jobs; ++i) text << ' ' << kMaxJobSize;
  text << '\n';
  return text.str();
}

// The parser must say *what* is malformed, not just refuse.
TEST(InstanceIo, DescriptiveErrorsForMalformedFiles) {
  const struct {
    std::string text;
    const char* expect;  // substring of the reported error
  } cases[] = {
      {"", "empty input"},
      {"msrs 1\nclasses 1\nclass 1 5\n", "expected 'machines'"},
      {"msrs 1\nmachines\n", "not a number"},
      {"msrs 1\nmachines 0\nclasses 0\n", "machine count must be >= 1"},
      {"msrs 1\nmachines -3\nclasses 0\n", "machine count must be >= 1"},
      {"msrs 1\nmachines 4294967297\nclasses 0\n",
       "exceeds the supported maximum"},
      {"msrs 1\nmachines 2\n", "missing 'classes"},
      {"msrs 1\nmachines 2\nclasses 2\nclass 1 5\n", "missing 'class' line"},
      {"msrs 1\nmachines 2\nclasses 1\nclass 0\n", "is empty"},
      {"msrs 1\nmachines 2\nclasses 1\nclass -1\n", "job count must be >= 1"},
      {"msrs 1\nmachines 2\nclasses 1\nclass 2 5\n", "missing or not a number"},
      {"msrs 1\nmachines 2\nclasses 1\nclass 2 5 0\n", "job size 0 < 1"},
      {"msrs 1\nmachines 2\nclasses 1\nclass 2 5 -4\n", "job size -4 < 1"},
      {"msrs 1\nmachines 2\nclasses 1\nclass 1 5\nclass 1 3\n",
       "trailing garbage"},
      // Input limits (core/types.hpp): each a named refusal, never an
      // allocation the size of the claim or a signed overflow.
      {"msrs 1\nmachines 2147483647\nclasses 1\nclass 1 5\n",
       "machine count 2147483647 exceeds the supported maximum of 4194304"},
      {"msrs 1\nmachines 4194305\nclasses 0\n",
       "exceeds the supported maximum of 4194304"},
      {"msrs 1\nmachines 2\nclasses 1\n"
       "class 2 9223372036854775807 9223372036854775807\n",
       "job size 9223372036854775807 exceeds the supported maximum of "
       "1099511627776"},
      {"msrs 1\nmachines 2\nclasses 1\nclass 1 1099511627777\n",
       "class 0: job size 1099511627777 exceeds the supported maximum"},
      {max_size_jobs(8193),
       "total load exceeds the supported maximum of 9007199254740992"},
  };
  for (const auto& bad : cases) {
    std::string error;
    EXPECT_FALSE(from_text(bad.text, &error).has_value()) << bad.text;
    EXPECT_NE(error.find(bad.expect), std::string::npos)
        << "input <" << bad.text.substr(0, 120) << "> produced error <"
        << error << ">, expected it to mention <" << bad.expect << ">";
  }
}

TEST(InstanceIo, AcceptsInputsAtTheLimits) {
  std::string error;
  const auto machines = from_text(
      "msrs 1\nmachines 4194304\nclasses 1\nclass 1 1099511627776\n", &error);
  ASSERT_TRUE(machines.has_value()) << error;
  EXPECT_EQ(machines->machines(), kMaxMachines);
  EXPECT_EQ(machines->max_size(), kMaxJobSize);
  const auto load = from_text(max_size_jobs(8192), &error);
  ASSERT_TRUE(load.has_value()) << error;
  EXPECT_EQ(load->total_load(), kMaxTotalLoad);
}

TEST(InstanceIo, FlatListingRebuildsEveryGeneratedInstanceExactly) {
  // The serving layer admits a spec request as flatten(generate(spec)) and
  // builds its Instance back from that listing: job ids, sizes and classes
  // must all survive, or the solve (and its response bytes) could change.
  for (const Family family : kAllFamilies) {
    const Instance original = generate(family, 60, 4, 5);
    const FlatInstance flat = flatten(original);
    const Instance rebuilt = flat.build();
    ASSERT_EQ(rebuilt.num_jobs(), original.num_jobs()) << family_name(family);
    EXPECT_EQ(rebuilt.machines(), original.machines());
    EXPECT_EQ(rebuilt.num_classes(), original.num_classes());
    for (JobId j = 0; j < original.num_jobs(); ++j) {
      EXPECT_EQ(rebuilt.size(j), original.size(j)) << family_name(family);
      EXPECT_EQ(rebuilt.job_class(j), original.job_class(j))
          << family_name(family);
    }
    // The text format lists the same thing.
    const auto parsed = parse_flat(to_text(original));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->sizes, flat.sizes);
    EXPECT_EQ(parsed->classes, flat.classes);
  }
}

TEST(InstanceIo, AcceptsZeroClasses) {
  std::string error;
  const auto parsed = from_text("msrs 1\nmachines 3\nclasses 0\n", &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(parsed->num_jobs(), 0);
  EXPECT_EQ(parsed->machines(), 3);
}

TEST(ScheduleRender, ProducesGantt) {
  Instance instance = test::make_instance(2, {{2}, {3}});
  Schedule schedule(2, 1);
  schedule.assign(0, 0, 0);
  schedule.assign(1, 1, 0);
  const std::string out = schedule.render(instance);
  EXPECT_NE(out.find("m0"), std::string::npos);
  EXPECT_NE(out.find("c0"), std::string::npos);
}

}  // namespace
}  // namespace msrs
