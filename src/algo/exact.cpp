#include "algo/exact.hpp"

#include <algorithm>
#include <limits>
#include <vector>

#include "algo/t_bound.hpp"
#include "core/lower_bounds.hpp"

namespace msrs {
namespace {

constexpr Time kInf = std::numeric_limits<Time>::max() / 4;

class Search {
 public:
  Search(const Instance& instance, const ExactOptions& options, Time bound)
      : inst_(instance),
        opts_(options),
        bound_(bound),
        machine_free_(static_cast<std::size_t>(instance.machines()), 0),
        retired_(static_cast<std::size_t>(instance.machines()), false),
        class_free_(static_cast<std::size_t>(instance.num_classes()), 0),
        class_remaining_(static_cast<std::size_t>(instance.num_classes()), 0),
        scheduled_(static_cast<std::size_t>(instance.num_jobs()), false),
        best_schedule_(instance.num_jobs(), 1),
        current_(instance.num_jobs(), 1) {
    for (JobId j = 0; j < instance.num_jobs(); ++j)
      class_remaining_[static_cast<std::size_t>(instance.job_class(j))] +=
          instance.size(j);
    remaining_ = instance.total_load();
    // Order jobs by size (descending) for branching.
    order_.resize(static_cast<std::size_t>(instance.num_jobs()));
    for (JobId j = 0; j < instance.num_jobs(); ++j)
      order_[static_cast<std::size_t>(j)] = j;
    std::stable_sort(order_.begin(), order_.end(), [&](JobId a, JobId b) {
      return instance.size(a) > instance.size(b);
    });
  }

  void run() { dfs(0, 0); }

  bool found() const { return best_makespan_ < kInf; }
  Time best_makespan() const { return best_makespan_; }
  const Schedule& best_schedule() const { return best_schedule_; }
  bool hit_limit() const { return hit_limit_; }
  std::uint64_t nodes() const { return nodes_; }

 private:
  Time lower_bound(Time cmax) const {
    Time lb = cmax;
    // Area bound over active machines.
    Time sum_free = 0;
    int active = 0;
    for (std::size_t k = 0; k < machine_free_.size(); ++k) {
      if (retired_[k]) continue;
      sum_free += machine_free_[k];
      ++active;
    }
    if (active == 0) return kInf;
    lb = std::max(lb, ceil_div(remaining_ + sum_free, active));
    // Per-class chain bound.
    for (std::size_t c = 0; c < class_free_.size(); ++c)
      if (class_remaining_[c] > 0)
        lb = std::max(lb, class_free_[c] + class_remaining_[c]);
    return lb;
  }

  void record(Time cmax) {
    if (cmax < best_makespan_) {
      best_makespan_ = cmax;
      best_schedule_ = current_;
      bound_ = std::min(bound_, cmax - 1);  // now search strictly better
    }
  }

  void dfs(int scheduled_count, Time cmax) {
    if (hit_limit_) return;
    if (++nodes_ > opts_.node_limit) {
      hit_limit_ = true;
      return;
    }
    if (scheduled_count == inst_.num_jobs()) {
      record(cmax);
      return;
    }
    if (opts_.prune && lower_bound(cmax) > bound_) return;

    // Decision point: earliest-free active machine (lowest index on ties).
    int machine = -1;
    Time t = kInf;
    for (std::size_t k = 0; k < machine_free_.size(); ++k) {
      if (retired_[k]) continue;
      if (machine_free_[k] < t) {
        t = machine_free_[k];
        machine = static_cast<int>(k);
      }
    }
    if (machine < 0) return;  // everything retired but jobs remain
    const auto midx = static_cast<std::size_t>(machine);

    // Branch 1: schedule an available job here (dedup identical class/size).
    std::vector<std::pair<ClassId, Time>> seen;
    for (JobId j : order_) {
      if (scheduled_[static_cast<std::size_t>(j)]) continue;
      const ClassId c = inst_.job_class(j);
      const auto cidx = static_cast<std::size_t>(c);
      if (class_free_[cidx] > t) continue;
      const Time p = inst_.size(j);
      if (t + p > bound_ && opts_.prune) continue;
      bool dup = false;
      for (const auto& [sc, sp] : seen)
        if (sc == c && sp == p) {
          dup = true;
          break;
        }
      if (dup) continue;
      seen.emplace_back(c, p);

      // apply
      scheduled_[static_cast<std::size_t>(j)] = true;
      const Time saved_machine = machine_free_[midx];
      const Time saved_class = class_free_[cidx];
      machine_free_[midx] = t + p;
      class_free_[cidx] = t + p;
      class_remaining_[cidx] -= p;
      remaining_ -= p;
      current_.assign(j, machine, t);
      dfs(scheduled_count + 1, std::max(cmax, t + p));
      // undo
      current_.unassign(j);
      remaining_ += p;
      class_remaining_[cidx] += p;
      class_free_[cidx] = saved_class;
      machine_free_[midx] = saved_machine;
      scheduled_[static_cast<std::size_t>(j)] = false;
      if (hit_limit_) return;
    }

    // Branch 2: idle this machine until the next class release.
    Time next_event = kInf;
    for (std::size_t c = 0; c < class_free_.size(); ++c)
      if (class_remaining_[c] > 0 && class_free_[c] > t)
        next_event = std::min(next_event, class_free_[c]);
    if (next_event < kInf && (!opts_.prune || next_event <= bound_)) {
      const Time saved = machine_free_[midx];
      machine_free_[midx] = next_event;
      dfs(scheduled_count, cmax);
      machine_free_[midx] = saved;
      if (hit_limit_) return;
    }

    // Branch 3: retire this machine (it receives no further jobs). Only
    // useful while at least one other machine stays active.
    int active = 0;
    for (std::size_t k = 0; k < retired_.size(); ++k)
      if (!retired_[k]) ++active;
    if (active > 1) {
      retired_[midx] = true;
      dfs(scheduled_count, cmax);
      retired_[midx] = false;
    }
  }

  const Instance& inst_;
  const ExactOptions& opts_;
  Time bound_;  // only schedules with makespan <= bound_ are searched
  std::vector<Time> machine_free_;
  std::vector<bool> retired_;
  std::vector<Time> class_free_;
  std::vector<Time> class_remaining_;
  std::vector<bool> scheduled_;
  Time remaining_ = 0;
  std::vector<JobId> order_;

  Time best_makespan_ = kInf;
  Schedule best_schedule_;
  Schedule current_;
  std::uint64_t nodes_ = 0;
  bool hit_limit_ = false;
};

}  // namespace

ExactResult exact_makespan(const Instance& instance,
                           const ExactOptions& options) {
  ExactResult result;
  if (instance.num_jobs() == 0) {
    result.schedule = Schedule(0, 1);
    result.optimal = true;
    return result;
  }
  // Upper bound: OPT is integral and <= (3/2)T by Theorem 7, so searching
  // makespans <= floor(3T/2) is complete. The incumbent schedule comes from
  // the search itself.
  const Time T = three_halves_bound(instance);
  const Time bound =
      std::max(floor_div(3 * T, 2), lower_bounds(instance).combined);
  Search search(instance, options, bound);
  search.run();

  result.nodes = search.nodes();
  result.optimal = !search.hit_limit();
  if (search.found()) {
    result.makespan = search.best_makespan();
    result.schedule = search.best_schedule();
  } else {
    // Node limit hit before any schedule was found: fall back to the search
    // bound, which Theorem 7 puts above OPT (not claimed optimal).
    result.makespan = bound;
    result.schedule = Schedule(instance.num_jobs(), 1);
    result.optimal = false;
  }
  return result;
}

int exact_decide(const Instance& instance, Time deadline,
                 const ExactOptions& options) {
  if (instance.num_jobs() == 0) return 1;
  ExactOptions opts = options;
  opts.prune = true;  // the deadline is enforced through the search bound
  Search search(instance, opts, deadline);
  search.run();
  if (search.found()) return 1;
  return search.hit_limit() ? -1 : 0;
}

}  // namespace msrs
