#include "algo/baselines.hpp"

#include <algorithm>
#include <numeric>
#include <vector>

#include "algo/greedy.hpp"
#include "core/lower_bounds.hpp"

namespace msrs {

AlgoResult merge_lpt(const Instance& instance) {
  AlgoResult result;
  result.name = "merge_lpt";
  result.lower_bound = lower_bounds(instance).combined;
  result.schedule = Schedule(instance.num_jobs(), /*scale=*/1);

  // LPT over merged class-jobs: repeatedly give the largest remaining class
  // to the machine with minimum load.
  std::vector<ClassId> classes(static_cast<std::size_t>(instance.num_classes()));
  std::iota(classes.begin(), classes.end(), 0);
  std::sort(classes.begin(), classes.end(), [&](ClassId a, ClassId b) {
    if (instance.class_load(a) != instance.class_load(b))
      return instance.class_load(a) > instance.class_load(b);
    return a < b;
  });

  MachineHeap machines;
  machines.reset(instance.machines());
  for (ClassId c : classes)
    machines.occupy_top(place_block(instance, result.schedule,
                                    instance.class_jobs(c),
                                    machines.top_machine(),
                                    machines.top_free()));
  return result;
}

AlgoResult hebrard_insertion(const Instance& instance) {
  AlgoResult result;
  result.name = "hebrard_insertion";
  result.lower_bound = lower_bounds(instance).combined;
  result.schedule = Schedule(instance.num_jobs(), /*scale=*/1);

  // Dynamic priority: repeatedly take the largest unscheduled job of the
  // class with maximum remaining load ("chooses jobs based on their size
  // and the size of the remaining jobs in their class"), placed at the
  // earliest feasible start. Re-evaluating after every placement
  // interleaves the heavy classes instead of serializing them. A
  // placement changes only its own class's key, so popping the top class,
  // placing its job and pushing it back keeps the class heap exact.
  struct ClassEntry {
    Time remaining;  // load of the class's unscheduled jobs
    Time free;       // when the class's resource is released
    ClassId id;
    std::int32_t next;  // the class's next job in `jobs`
    std::int32_t end;   // one past its last job
  };
  // Max-heap order: most remaining load, then earliest release (so
  // machines do not starve), then lowest id.
  const auto lower_priority = [](const ClassEntry& a, const ClassEntry& b) {
    if (a.remaining != b.remaining) return a.remaining < b.remaining;
    if (a.free != b.free) return a.free > b.free;
    return a.id > b.id;
  };

  // Every class's jobs, largest first, in one flat buffer.
  std::vector<JobId> jobs;
  jobs.reserve(static_cast<std::size_t>(instance.num_jobs()));
  std::vector<ClassEntry> classes;
  classes.reserve(static_cast<std::size_t>(instance.num_classes()));
  for (ClassId c = 0; c < instance.num_classes(); ++c) {
    const std::vector<JobId>& members = instance.class_jobs(c);
    if (members.empty()) continue;
    const auto begin = static_cast<std::int32_t>(jobs.size());
    jobs.insert(jobs.end(), members.begin(), members.end());
    std::sort(jobs.begin() + begin, jobs.end(), [&](JobId a, JobId b) {
      return instance.size(a) > instance.size(b);
    });
    classes.push_back({instance.class_load(c), 0, c, begin,
                       static_cast<std::int32_t>(jobs.size())});
  }
  std::make_heap(classes.begin(), classes.end(), lower_priority);
  MachineHeap machines;
  machines.reset(instance.machines());

  while (!classes.empty()) {
    std::pop_heap(classes.begin(), classes.end(), lower_priority);
    ClassEntry& cls = classes.back();
    const JobId j = jobs[static_cast<std::size_t>(cls.next++)];
    const Time start = std::max(machines.top_free(), cls.free);
    result.schedule.assign(j, machines.top_machine(), start);
    cls.free = start + instance.size(j);
    cls.remaining -= instance.size(j);
    machines.occupy_top(cls.free);
    if (cls.next < cls.end)
      std::push_heap(classes.begin(), classes.end(), lower_priority);
    else
      classes.pop_back();
  }
  return result;
}

}  // namespace msrs
