// Shared helpers for the test suite.
#pragma once

#include <gtest/gtest.h>

#include <numeric>
#include <string>
#include <vector>

#include "core/instance.hpp"
#include "core/schedule.hpp"
#include "core/validate.hpp"
#include "sim/generator.hpp"
#include "util/rng.hpp"

namespace msrs::test {

// Builds an instance from per-class job size lists.
inline Instance make_instance(int machines,
                              std::vector<std::vector<Time>> classes) {
  return Instance(machines, classes);
}

// The deterministic seed corpus (seeds 1..seeds) of one generator cell —
// the same instances bench_common's quality rows measure, so a test
// sweeping it pins exactly what the benches report on.
inline std::vector<Instance> seed_instances(Family family, int jobs,
                                            int machines, int seeds) {
  GeneratorSpec base;
  base.family = family;
  base.jobs = jobs;
  base.machines = machines;
  std::vector<Instance> instances;
  instances.reserve(static_cast<std::size_t>(seeds));
  for (CorpusEntry& entry : seed_corpus(base, seeds))
    instances.push_back(std::move(entry.instance));
  return instances;
}

// An isomorphic copy with classes and the jobs inside each class permuted.
inline Instance relabel(const Instance& in, Rng& rng) {
  std::vector<ClassId> classes(static_cast<std::size_t>(in.num_classes()));
  std::iota(classes.begin(), classes.end(), 0);
  rng.shuffle(classes);
  Instance out;
  out.set_machines(in.machines());
  for (const ClassId c : classes) {
    std::vector<Time> sizes;
    for (const JobId j : in.class_jobs(c)) sizes.push_back(in.size(j));
    rng.shuffle(sizes);
    out.add_class(sizes);
  }
  return out;
}

// gtest assertion: both schedules put every job on the same machine at the
// same start, at the same scale.
inline ::testing::AssertionResult same_schedule(const Schedule& a,
                                                const Schedule& b) {
  if (a.scale() != b.scale())
    return ::testing::AssertionFailure()
           << "scale " << a.scale() << " vs " << b.scale();
  if (a.num_jobs() != b.num_jobs())
    return ::testing::AssertionFailure() << "job count differs";
  for (JobId j = 0; j < a.num_jobs(); ++j) {
    if (a.machine(j) != b.machine(j) || a.start(j) != b.start(j))
      return ::testing::AssertionFailure()
             << "job " << j << ": (" << a.machine(j) << "," << a.start(j)
             << ") vs (" << b.machine(j) << "," << b.start(j) << ")";
  }
  return ::testing::AssertionSuccess();
}

// gtest assertion: schedule valid and all jobs done by `limit_num/limit_den`
// times the instance-unit bound `T`.
inline ::testing::AssertionResult schedule_within(
    const Instance& instance, const Schedule& schedule, Time T,
    Time ratio_num, Time ratio_den) {
  const auto report = validate(instance, schedule);
  if (!report.ok())
    return ::testing::AssertionFailure() << report.summary();
  if (!schedule.complete())
    return ::testing::AssertionFailure() << "schedule incomplete";
  // makespan_scaled <= (num/den) * T * scale  <=>  den*ms <= num*T*scale
  const Time ms = schedule.makespan_scaled(instance);
  if (ratio_den * ms > ratio_num * T * schedule.scale())
    return ::testing::AssertionFailure()
           << "makespan " << ms << "/" << schedule.scale() << " exceeds "
           << ratio_num << "/" << ratio_den << " * " << T;
  return ::testing::AssertionSuccess();
}

}  // namespace msrs::test
