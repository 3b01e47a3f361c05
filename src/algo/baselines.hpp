/// \file
/// Prior-art baselines the paper compares against (Section 1):
///
///  * Strusevich [29]: merge each class into a single job (no two jobs of a
///    class can ever run in parallel anyway) and run LPT on the resulting
///    resource-free instance. This is his "faster, simpler"
///    (2m/(m+1))-approximation.
///  * Hebrard et al. [17]: successively choose jobs by their size and the
///    remaining load of their class, inserting each at the earliest feasible
///    start. (Our implementation is a faithful reading of the paper's
///    one-sentence description of that algorithm; the published
///    (2m/(m+1)) analysis applies to the authors' exact insertion procedure,
///    so we report measured ratios without claiming their bound.)
#pragma once

#include "algo/common.hpp"
#include "core/instance.hpp"

namespace msrs {

/// Strusevich-style class merging + LPT: classes by load (desc, then id),
/// each as one block on the machine that frees first (ties: lowest
/// index). O(n + |C| log |C| + |C| log m).
AlgoResult merge_lpt(const Instance& instance);

/// Hebrard-style priority insertion (classes by remaining load, jobs by
/// size). Each step takes the largest unscheduled job of the class with
/// the most remaining load; ties go to the class whose resource is
/// released earliest, then to the lowest class id. Equal-size jobs of a
/// class keep the order std::sort gives them by size alone. The job starts
/// on the machine that frees first (ties: lowest index), at the later of
/// that machine's and its class's free time. O(n log n): a class max-heap
/// and a MachineHeap (algo/common.hpp), O(log |C| + log m) per job.
AlgoResult hebrard_insertion(const Instance& instance);

}  // namespace msrs
