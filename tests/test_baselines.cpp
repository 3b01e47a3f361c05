// Tests for the prior-art baselines and generic list scheduling.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <string>
#include <vector>

#include "algo/baselines.hpp"
#include "algo/greedy.hpp"
#include "core/lower_bounds.hpp"
#include "sim/workloads.hpp"
#include "test_support.hpp"
#include "util/rng.hpp"

namespace msrs {
namespace {

using test::same_schedule;

// The per-job scans that list_schedule and hebrard_insertion ran before
// their heaps (MachineHeap, hebrard's class heap), plus the same machine
// scan for merge_lpt's class blocks. They are kept here as differential
// oracles: each heap-driven rung must return the scan's schedule, machine
// and start of every job.
namespace oracle {

// The machine giving the earliest feasible start max(machine_free[k],
// class_free); ties go to the machine that frees first, then to the lower
// index. O(m) per job.
std::size_t earliest_start(const std::vector<Time>& machine_free,
                           Time class_free, Time* start) {
  std::size_t best = 0;
  Time best_start = std::max(machine_free[0], class_free);
  for (std::size_t k = 1; k < machine_free.size(); ++k) {
    const Time candidate = std::max(machine_free[k], class_free);
    if (candidate < best_start ||
        (candidate == best_start && machine_free[k] < machine_free[best])) {
      best = k;
      best_start = candidate;
    }
  }
  *start = best_start;
  return best;
}

Schedule list_schedule(const Instance& instance, ListPriority priority) {
  Schedule schedule(instance.num_jobs(), /*scale=*/1);
  std::vector<Time> machine_free(static_cast<std::size_t>(instance.machines()),
                                 0);
  std::vector<Time> class_free(static_cast<std::size_t>(instance.num_classes()),
                               0);
  for (JobId j : priority_order(instance, priority)) {
    const auto c = static_cast<std::size_t>(instance.job_class(j));
    Time start = 0;
    const std::size_t best =
        earliest_start(machine_free, class_free[c], &start);
    schedule.assign(j, static_cast<int>(best), start);
    machine_free[best] = start + instance.size(j);
    class_free[c] = start + instance.size(j);
  }
  return schedule;
}

Schedule merge_lpt(const Instance& instance) {
  Schedule schedule(instance.num_jobs(), /*scale=*/1);
  std::vector<ClassId> classes(
      static_cast<std::size_t>(instance.num_classes()));
  std::iota(classes.begin(), classes.end(), 0);
  std::sort(classes.begin(), classes.end(), [&](ClassId a, ClassId b) {
    if (instance.class_load(a) != instance.class_load(b))
      return instance.class_load(a) > instance.class_load(b);
    return a < b;
  });
  std::vector<Time> machine_free(static_cast<std::size_t>(instance.machines()),
                                 0);
  for (ClassId c : classes) {
    Time start = 0;
    const std::size_t best = earliest_start(machine_free, 0, &start);
    machine_free[best] = place_block(instance, schedule, instance.class_jobs(c),
                                     static_cast<int>(best), start);
  }
  return schedule;
}

// O(n * (|C| + m)): every job scans every class, then every machine.
Schedule hebrard_insertion(const Instance& instance) {
  Schedule schedule(instance.num_jobs(), /*scale=*/1);
  std::vector<Time> remaining(static_cast<std::size_t>(instance.num_classes()));
  std::vector<std::vector<JobId>> queue(
      static_cast<std::size_t>(instance.num_classes()));
  for (ClassId c = 0; c < instance.num_classes(); ++c) {
    const auto ci = static_cast<std::size_t>(c);
    remaining[ci] = instance.class_load(c);
    queue[ci] = instance.class_jobs(c);
    std::sort(queue[ci].begin(), queue[ci].end(), [&](JobId a, JobId b) {
      return instance.size(a) > instance.size(b);
    });
  }
  std::vector<Time> machine_free(static_cast<std::size_t>(instance.machines()),
                                 0);
  std::vector<Time> class_free(static_cast<std::size_t>(instance.num_classes()),
                               0);
  std::vector<std::size_t> next_in_class(
      static_cast<std::size_t>(instance.num_classes()), 0);

  for (int placed = 0; placed < instance.num_jobs(); ++placed) {
    // Class with maximum remaining load; ties go to the earlier resource
    // release, then to the lower id.
    ClassId best_class = kInvalidClass;
    for (ClassId c = 0; c < instance.num_classes(); ++c) {
      const auto ci = static_cast<std::size_t>(c);
      if (next_in_class[ci] >= queue[ci].size()) continue;
      if (best_class == kInvalidClass ||
          remaining[ci] > remaining[static_cast<std::size_t>(best_class)] ||
          (remaining[ci] == remaining[static_cast<std::size_t>(best_class)] &&
           class_free[ci] < class_free[static_cast<std::size_t>(best_class)]))
        best_class = c;
    }
    const auto ci = static_cast<std::size_t>(best_class);
    const JobId j = queue[ci][next_in_class[ci]++];
    Time start = 0;
    const std::size_t best =
        earliest_start(machine_free, class_free[ci], &start);
    schedule.assign(j, static_cast<int>(best), start);
    machine_free[best] = start + instance.size(j);
    class_free[ci] = start + instance.size(j);
    remaining[ci] -= instance.size(j);
  }
  return schedule;
}

}  // namespace oracle

// Every heap-driven rung against its scan oracle on one instance.
void expect_rungs_match_oracles(const Instance& instance,
                                const std::string& label) {
  for (const ListPriority priority :
       {ListPriority::kInputOrder, ListPriority::kLptJob,
        ListPriority::kClassLoadDesc})
    EXPECT_TRUE(same_schedule(oracle::list_schedule(instance, priority),
                              list_schedule(instance, priority).schedule))
        << label << " list priority " << static_cast<int>(priority);
  EXPECT_TRUE(same_schedule(oracle::merge_lpt(instance),
                            merge_lpt(instance).schedule))
      << label << " merge_lpt";
  EXPECT_TRUE(same_schedule(oracle::hebrard_insertion(instance),
                            hebrard_insertion(instance).schedule))
      << label << " hebrard";
}

TEST(HeapRungs, MatchTheScanOraclesOnEveryFamilyAndARelabelling) {
  // `unit` keeps every size equal, so loads and free times tie constantly
  // and the machine and class tie-breaks decide most placements.
  Rng rng(20230501);
  for (const Family family : kAllFamilies)
    for (const int n : {5, 17, 40, 200, 1000, 5000})
      for (const int m : {2, 3, 8, 16, 64}) {
        const Instance instance =
            generate(family, n, m, static_cast<std::uint64_t>(n + m));
        const std::string label = std::string(family_name(family)) +
                                  " n=" + std::to_string(n) +
                                  " m=" + std::to_string(m);
        expect_rungs_match_oracles(instance, label);
        expect_rungs_match_oracles(test::relabel(instance, rng),
                                   label + " relabelled");
      }
}

TEST(HeapRungs, ClassTiesGoToEarliestReleaseThenLowestId) {
  // Three classes of two 3s on two machines: all tie on remaining load
  // and release at first, so ids decide; later A and B tie on both while
  // C is released later. Jobs: A = {0, 1}, B = {2, 3}, C = {4, 5}.
  const Instance instance = test::make_instance(2, {{3, 3}, {3, 3}, {3, 3}});
  const Schedule schedule = hebrard_insertion(instance).schedule;
  EXPECT_TRUE(same_schedule(oracle::hebrard_insertion(instance), schedule));
  struct Placement {
    JobId job;
    int machine;
    Time start;
  };
  // A (id tie), B (id tie), C; then A over B (id tie at release 3), B over
  // C (earlier release); machines tie on free time at 3 and 6, so the
  // lower index goes first.
  for (const Placement& want : {Placement{0, 0, 0}, Placement{2, 1, 0},
                                Placement{4, 0, 3}, Placement{1, 1, 3},
                                Placement{3, 0, 6}, Placement{5, 1, 6}}) {
    EXPECT_EQ(schedule.machine(want.job), want.machine) << "job " << want.job;
    EXPECT_EQ(schedule.start(want.job), want.start) << "job " << want.job;
  }
}

TEST(HeapRungs, MatchTheScanOraclesWhenMachinesCoverClasses) {
  // m >= |C|: some machines are never used and ties on free time 0 last.
  for (const int m : {3, 4, 9}) {
    const Instance instance =
        test::make_instance(m, {{5, 2, 2}, {4, 3}, {7}});
    expect_rungs_match_oracles(instance, "m=" + std::to_string(m));
    EXPECT_TRUE(is_valid(instance, hebrard_insertion(instance).schedule));
  }
}

TEST(MergeLpt, NoConflictsByConstruction) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const Instance instance = generate(Family::kUniform, 60, 5, seed);
    const AlgoResult result = merge_lpt(instance);
    EXPECT_TRUE(is_valid(instance, result.schedule)) << "seed " << seed;
  }
}

TEST(MergeLpt, WithinTwoTimesBound) {
  // 2m/(m+1) < 2, so twice the lower bound is always safe.
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const Instance instance = generate(Family::kBimodal, 80, 6, seed);
    const AlgoResult result = merge_lpt(instance);
    ASSERT_TRUE(test::schedule_within(instance, result.schedule,
                                      result.lower_bound, 2, 1));
  }
}

TEST(MergeLpt, RespectsTheoreticalRatioBound) {
  // Strusevich: makespan <= (2m/(m+1)) OPT. Against the combined lower
  // bound this can only be tested as <= 2m/(m+1) * something >= OPT... we
  // check against the bound ratio with OPT replaced by p-based T, which the
  // analysis also supports on merged instances.
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const Instance instance = generate(Family::kManySmallClasses, 60, 4, seed);
    const AlgoResult result = merge_lpt(instance);
    const int m = instance.machines();
    const double bound = 2.0 * m / (m + 1.0);
    // class-merged LPT vs class-aware lower bound can exceed the ratio only
    // through the merge, which the 2m/(m+1) analysis covers.
    EXPECT_LE(result.ratio_vs_bound(instance), bound + 1.0)
        << "sanity corridor, seed " << seed;
  }
}

TEST(Hebrard, ValidSchedules) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const Instance instance = generate(Family::kSatellite, 70, 6, seed);
    const AlgoResult result = hebrard_insertion(instance);
    EXPECT_TRUE(is_valid(instance, result.schedule)) << "seed " << seed;
  }
}

TEST(ListSchedule, AllPrioritiesValid) {
  for (const ListPriority priority :
       {ListPriority::kInputOrder, ListPriority::kLptJob,
        ListPriority::kClassLoadDesc}) {
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
      const Instance instance = generate(Family::kPhotolith, 50, 4, seed);
      const AlgoResult result = list_schedule(instance, priority);
      EXPECT_TRUE(is_valid(instance, result.schedule));
    }
  }
}

TEST(ListSchedule, PriorityOrderIsPermutation) {
  const Instance instance = generate(Family::kUniform, 30, 3, 7);
  for (const ListPriority priority :
       {ListPriority::kInputOrder, ListPriority::kLptJob,
        ListPriority::kClassLoadDesc}) {
    auto order = priority_order(instance, priority);
    std::sort(order.begin(), order.end());
    for (JobId j = 0; j < instance.num_jobs(); ++j)
      EXPECT_EQ(order[static_cast<std::size_t>(j)], j);
  }
}

TEST(ListSchedule, LptOrderIsSorted) {
  const Instance instance = generate(Family::kUniform, 30, 3, 7);
  const auto order = priority_order(instance, ListPriority::kLptJob);
  for (std::size_t i = 1; i < order.size(); ++i)
    EXPECT_GE(instance.size(order[i - 1]), instance.size(order[i]));
}

TEST(OneMachinePerClass, OptimalWhenEnoughMachines) {
  const Instance instance = test::make_instance(3, {{5, 5}, {9}, {4, 4}});
  const AlgoResult result = one_machine_per_class(instance);
  EXPECT_TRUE(is_valid(instance, result.schedule));
  EXPECT_DOUBLE_EQ(result.schedule.makespan(instance), 10.0);
}

}  // namespace
}  // namespace msrs
