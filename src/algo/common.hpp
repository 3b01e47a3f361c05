/// \file
/// Shared helpers for the scheduling algorithms.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "core/instance.hpp"
#include "core/schedule.hpp"

namespace msrs {

/// Result of an approximation algorithm: the schedule plus the lower bound T
/// it was proven against (the paper's T; always <= OPT). The guarantee of
/// algorithm X is makespan_scaled <= ratio * T * scale.
struct AlgoResult {
  Schedule schedule;     ///< the produced schedule
  Time lower_bound = 0;  ///< T, in instance units (0 = none proven)
  std::string name;      ///< producing algorithm

  /// makespan / lower_bound; an upper bound on the real approximation ratio.
  double ratio_vs_bound(const Instance& instance) const {
    if (lower_bound == 0) return 1.0;
    return schedule.makespan(instance) / static_cast<double>(lower_bound);
  }
};

/// Places `jobs` consecutively on `machine` starting at scaled time `start`.
/// Returns the scaled end time.
inline Time place_block(const Instance& instance, Schedule& schedule,
                        std::span<const JobId> jobs, int machine, Time start) {
  Time cursor = start;
  for (JobId j : jobs) {
    schedule.assign(j, machine, cursor);
    cursor += checked_mul(instance.size(j), schedule.scale());
  }
  return cursor;
}

/// Places `jobs` consecutively on `machine` so the block ends at scaled time
/// `end`. Returns the scaled start time.
inline Time place_block_ending(const Instance& instance, Schedule& schedule,
                               std::span<const JobId> jobs, int machine,
                               Time end) {
  Time total = 0;
  for (JobId j : jobs) total += checked_mul(instance.size(j), schedule.scale());
  place_block(instance, schedule, jobs, machine, end - total);
  return end - total;
}

/// Total scaled length of a block.
inline Time block_length(const Instance& instance, const Schedule& schedule,
                         std::span<const JobId> jobs) {
  Time total = 0;
  for (JobId j : jobs) total += checked_mul(instance.size(j), schedule.scale());
  return total;
}

/// The earliest-free machine in O(log m) per placement: a binary min-heap
/// of (free time, machine index). Ties on free time go to the lowest index,
/// and every key ends in a distinct index, so the sequence of machines it
/// hands out is fully determined. The greedy rungs (list_schedule,
/// merge_lpt, hebrard_insertion) all place through it. reset() reuses the
/// buffer, so a reused heap is allocation-free in steady state.
class MachineHeap {
 public:
  /// All `machines` machines free at time 0 (sorted keys form a heap).
  void reset(int machines) {
    heap_.resize(static_cast<std::size_t>(machines));
    for (int k = 0; k < machines; ++k)
      heap_[static_cast<std::size_t>(k)] = {0, k};
  }

  /// The machine that frees first.
  int top_machine() const { return heap_.front().machine; }
  /// When top_machine() frees.
  Time top_free() const { return heap_.front().free; }

  /// Keeps top_machine() busy until `free` (never earlier than
  /// top_free()), then restores heap order by one sift-down.
  void occupy_top(Time free) {
    const Entry moving{free, heap_.front().machine};
    const std::size_t size = heap_.size();
    std::size_t hole = 0;
    for (std::size_t child = 1; child < size; child = 2 * hole + 1) {
      if (child + 1 < size && before(heap_[child + 1], heap_[child])) ++child;
      if (!before(heap_[child], moving)) break;
      heap_[hole] = heap_[child];
      hole = child;
    }
    heap_[hole] = moving;
  }

 private:
  struct Entry {
    Time free;
    int machine;
  };
  static bool before(const Entry& a, const Entry& b) {
    if (a.free != b.free) return a.free < b.free;
    return a.machine < b.machine;
  }
  std::vector<Entry> heap_;
};

/// The trivial schedule used when m >= |C|: one machine per class
/// (paper, Note 1 discussion). Scale 1, makespan = max_c p(c).
AlgoResult one_machine_per_class(const Instance& instance);

}  // namespace msrs
