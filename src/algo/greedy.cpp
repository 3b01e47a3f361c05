#include "algo/greedy.hpp"

#include <algorithm>
#include <numeric>

#include "core/lower_bounds.hpp"

namespace msrs {
namespace {

// Reused per-thread buffers of the list-scheduling hot path: one arena per
// thread means every BatchEngine shard (and every portfolio race worker)
// serves its whole instance stream without re-allocating these.
struct ListScratch {
  std::vector<JobId> order;
  MachineHeap machines;
  std::vector<Time> class_free;
};

thread_local ListScratch t_scratch;

// The comparators below add the job id as the final tie-break, which makes
// plain sort produce exactly the stable_sort order without its temporary
// buffer allocation.
void priority_order_into(const Instance& instance, ListPriority priority,
                         std::vector<JobId>& order) {
  order.resize(static_cast<std::size_t>(instance.num_jobs()));
  std::iota(order.begin(), order.end(), 0);
  switch (priority) {
    case ListPriority::kInputOrder:
      break;
    case ListPriority::kLptJob:
      std::sort(order.begin(), order.end(), [&](JobId a, JobId b) {
        if (instance.size(a) != instance.size(b))
          return instance.size(a) > instance.size(b);
        return a < b;
      });
      break;
    case ListPriority::kClassLoadDesc:
      std::sort(order.begin(), order.end(), [&](JobId a, JobId b) {
        const Time la = instance.class_load(instance.job_class(a));
        const Time lb = instance.class_load(instance.job_class(b));
        if (la != lb) return la > lb;
        if (instance.job_class(a) != instance.job_class(b))
          return instance.job_class(a) < instance.job_class(b);
        if (instance.size(a) != instance.size(b))
          return instance.size(a) > instance.size(b);
        return a < b;
      });
      break;
  }
}

}  // namespace

std::vector<JobId> priority_order(const Instance& instance,
                                  ListPriority priority) {
  std::vector<JobId> order;
  priority_order_into(instance, priority, order);
  return order;
}

AlgoResult list_schedule(const Instance& instance, ListPriority priority) {
  AlgoResult result;
  result.name = "list_schedule";
  result.lower_bound = lower_bounds(instance).combined;
  result.schedule = Schedule(instance.num_jobs(), /*scale=*/1);

  ListScratch& scratch = t_scratch;
  priority_order_into(instance, priority, scratch.order);
  scratch.machines.reset(instance.machines());
  scratch.class_free.assign(static_cast<std::size_t>(instance.num_classes()),
                            0);
  MachineHeap& machines = scratch.machines;
  std::vector<Time>& class_free = scratch.class_free;

  for (JobId j : scratch.order) {
    const auto c = static_cast<std::size_t>(instance.job_class(j));
    // The machine that frees first also gives the earliest feasible start
    // max(free, class_free[c]): no other machine starts sooner, or as soon
    // on an earlier free time, or on the same free time at a lower index.
    const Time start = std::max(machines.top_free(), class_free[c]);
    result.schedule.assign(j, machines.top_machine(), start);
    class_free[c] = start + instance.size(j);
    machines.occupy_top(class_free[c]);
  }
  return result;
}

AlgoResult one_machine_per_class(const Instance& instance) {
  AlgoResult result;
  result.name = "one_machine_per_class";
  result.lower_bound = lower_bounds(instance).combined;
  result.schedule = Schedule(instance.num_jobs(), /*scale=*/1);
  for (ClassId c = 0; c < instance.num_classes(); ++c)
    place_block(instance, result.schedule, instance.class_jobs(c),
                /*machine=*/c, /*start=*/0);
  return result;
}

}  // namespace msrs
