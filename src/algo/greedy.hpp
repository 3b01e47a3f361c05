/// \file
/// Resource-aware list scheduling: the workhorse behind the prior-art
/// baselines (Section 1 of the paper) and a sanity baseline of its own.
#pragma once

#include <vector>

#include "algo/common.hpp"
#include "core/instance.hpp"

namespace msrs {

/// Job orderings of list_schedule().
enum class ListPriority {
  kInputOrder,      ///< jobs in instance order
  kLptJob,          ///< largest processing time first
  kClassLoadDesc,   ///< classes by total load (desc), jobs within by size
};

/// Schedules jobs one by one in priority order. Each job starts at
/// max(min_k machine_free[k], class_free[class]) on the machine that frees
/// first; ties on free time go to the lowest machine index. That machine
/// attains the earliest feasible start, so resource conflicts are avoided
/// by construction. O(n log n): the priority sort, then O(log m) per job
/// on a MachineHeap (algo/common.hpp). Allocation-free in steady state
/// (per-thread scratch buffers; see docs/benchmarking.md).
AlgoResult list_schedule(const Instance& instance, ListPriority priority);

/// Returns the job order used by `list_schedule` (exposed for tests).
std::vector<JobId> priority_order(const Instance& instance,
                                  ListPriority priority);

}  // namespace msrs
