// The default BenchRegistry: the twelve paper experiments E1-E12, ported
// from the former ad-hoc google-benchmark binaries onto the harness
// (docs/benchmarking.md maps each case to its paper section and former
// binary). Every row is deterministic in the runner's deterministic mode;
// only the ns fields change when timing is on.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <future>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "algo/baselines.hpp"
#include "algo/exact.hpp"
#include "algo/five_thirds.hpp"
#include "algo/greedy.hpp"
#include "algo/t_bound.hpp"
#include "algo/three_halves.hpp"
#include "core/instance_io.hpp"
#include "core/lower_bounds.hpp"
#include "core/validate.hpp"
#include "engine/engine.hpp"
#include "engine/session.hpp"
#include "obs/obs.hpp"
#include "serve/driver.hpp"
#include "serve/service.hpp"
#include "serve/tcp.hpp"
#include "ext/completion_time.hpp"
#include "multires/mschedule.hpp"
#include "multires/reduction.hpp"
#include "multires/sat.hpp"
#include "opt/nfold.hpp"
#include "perf/corpus_case.hpp"
#include "perf/registry.hpp"
#include "ptas/eptas.hpp"
#include "sim/arrivals.hpp"
#include "sim/workloads.hpp"
#include "util/stats.hpp"

namespace msrs::perf {
namespace {

using AlgoFn = std::function<AlgoResult(const Instance&)>;

// --- shared helpers (the former bench_common.hpp, now runner-backed) -------

struct Quality {
  double ratio_mean = 0.0;  // makespan / T (combined lower bound)
  double ratio_max = 0.0;
  int invalid = 0;  // validation failures (must be 0)
  int seeds = 0;
};

Quality quality_over(const AlgoFn& algorithm,
                     const std::vector<CorpusEntry>& corpus) {
  Quality q;
  std::vector<double> ratios;
  for (const CorpusEntry& entry : corpus) {
    const Instance& instance = entry.instance;
    const AlgoResult result = algorithm(instance);
    if (!is_valid(instance, result.schedule)) {
      ++q.invalid;
      continue;
    }
    const Time T = lower_bounds(instance).combined;
    ratios.push_back(result.schedule.makespan(instance) /
                     static_cast<double>(T));
  }
  const Summary summary = summarize(ratios);
  q.ratio_mean = summary.mean;
  q.ratio_max = summary.max;
  q.seeds = static_cast<int>(corpus.size());
  return q;
}

std::vector<CorpusEntry> corpus_of(Family family, int jobs, int machines,
                                   int seeds) {
  GeneratorSpec base;
  base.family = family;
  base.jobs = jobs;
  base.machines = machines;
  return seed_corpus(base, seeds);
}

// One quality row: validated ratios computed once (deterministic), the
// measured op is the raw algorithm pass over the corpus (no validation).
BenchRow quality_row(const Runner& runner, std::string name,
                     std::string solver, const AlgoFn& algorithm,
                     Family family, int jobs, int machines, int seeds) {
  const std::vector<CorpusEntry> corpus =
      corpus_of(family, jobs, machines, seeds);
  const Quality q = quality_over(algorithm, corpus);
  BenchRow row;
  row.name = std::move(name);
  row.solver = std::move(solver);
  row.jobs = jobs;
  row.machines = machines;
  row.makespan_ratio = q.ratio_mean;
  row.counters.emplace_back("ratio_max", q.ratio_max);
  row.counters.emplace_back("invalid", q.invalid);
  row.counters.emplace_back("seeds", q.seeds);
  row.timing = runner.measure([&] {
    for (const CorpusEntry& entry : corpus) {
      const AlgoResult result = algorithm(entry.instance);
      (void)result;
    }
  });
  return row;
}

// Mean/max ratio against the exact optimum on exhaustively solvable
// instances (quality only; nothing worth timing at n <= 10).
BenchRow vs_exact_row(std::string name, std::string solver,
                      const AlgoFn& algorithm, Family family, int jobs,
                      int machines, int seeds) {
  double worst = 1.0, mean = 0.0;
  int samples = 0;
  for (std::uint64_t seed = 1; seed <= static_cast<std::uint64_t>(seeds);
       ++seed) {
    const Instance instance = generate(family, jobs, machines, seed);
    const ExactResult exact = exact_makespan(instance);
    if (!exact.optimal) continue;
    const AlgoResult approx = algorithm(instance);
    const double ratio = approx.schedule.makespan(instance) /
                         static_cast<double>(exact.makespan);
    worst = std::max(worst, ratio);
    mean += ratio;
    ++samples;
  }
  if (samples > 0) mean /= samples;
  BenchRow row;
  row.name = std::move(name);
  row.solver = std::move(solver);
  row.jobs = jobs;
  row.machines = machines;
  row.makespan_ratio = mean;
  row.counters.emplace_back("ratio_vs_opt_max", worst);
  row.counters.emplace_back("samples", samples);
  row.timing.ops = static_cast<std::uint64_t>(samples);
  return row;
}

const Instance& cached_instance(Family family, int jobs, int machines) {
  static std::map<std::tuple<Family, int, int>, Instance> cache;
  const auto key = std::make_tuple(family, jobs, machines);
  auto it = cache.find(key);
  if (it == cache.end())
    it = cache.emplace(key, generate(family, jobs, machines, 42)).first;
  return it->second;
}

// One runtime row: ns/op + allocs/op of `algorithm` on one cached
// instance, plus its (deterministic) makespan ratio on that instance.
BenchRow runtime_row(const Runner& runner, std::string solver, Family family,
                     int jobs, int machines, const AlgoFn& algorithm) {
  const Instance& instance = cached_instance(family, jobs, machines);
  BenchRow row;
  row.name = solver + "/" + family_name(family) + "/n=" +
             std::to_string(jobs) + ",m=" + std::to_string(machines);
  row.solver = std::move(solver);
  row.jobs = jobs;
  row.machines = machines;
  const AlgoResult once = algorithm(instance);
  if (once.lower_bound > 0)
    row.makespan_ratio = once.ratio_vs_bound(instance);
  row.timing = runner.measure([&] {
    const AlgoResult result = algorithm(instance);
    (void)result;
  });
  return row;
}

// --- E1 / E2: approximation-ratio experiments ------------------------------

std::vector<BenchRow> ratio_case(const Runner& runner, const AlgoFn& algorithm,
                                 const std::string& solver) {
  std::vector<BenchRow> rows;
  for (const Family family :
       {Family::kUniform, Family::kHugeHeavy, Family::kFewFatClasses,
        Family::kAdversarialLpt, Family::kLemma9Tight}) {
    rows.push_back(quality_row(
        runner, std::string(family_name(family)) + "/n=240,m=8", solver,
        algorithm, family, 240, 8, /*seeds=*/5));
  }
  for (const Family family : {Family::kUniform, Family::kHugeHeavy}) {
    rows.push_back(vs_exact_row(
        std::string("vs_exact/") + family_name(family) + "/n=9,m=3", solver,
        algorithm, family, 9, 3, /*seeds=*/6));
  }
  return rows;
}

// --- E3: ladder vs the prior (2m/(m+1))-approximations ---------------------

AlgoResult run_registry_solver(const std::string& name,
                               const Instance& instance) {
  const engine::Solver* solver =
      engine::SolverRegistry::default_registry().find(name);
  engine::SolverResult result = solver->solve(instance);
  AlgoResult out;
  out.schedule = std::move(result.schedule);
  out.lower_bound = result.lower_bound;
  out.name = result.solver;
  return out;
}

std::vector<BenchRow> e3_vs_baseline(const Runner& runner) {
  const std::pair<const char*, double> contenders[] = {
      {"merge_lpt", 0.0},  // guarantee 2m/(m+1), filled per row
      {"hebrard", 0.0},
      {"five_thirds", 5.0 / 3.0},
      {"three_halves", 1.5},
  };
  std::vector<BenchRow> rows;
  for (const auto& [name, guarantee] : contenders) {
    for (const int machines : {4, 8}) {
      const AlgoFn fn = [&name = name](const Instance& instance) {
        return run_registry_solver(name, instance);
      };
      BenchRow row = quality_row(
          runner, std::string(name) + "/m=" + std::to_string(machines), name,
          fn, Family::kAdversarialLpt, 12 * machines, machines, /*seeds=*/5);
      row.counters.emplace_back(
          "guarantee", guarantee > 0.0
                           ? guarantee
                           : 2.0 * machines / (machines + 1.0));
      rows.push_back(std::move(row));
    }
  }
  return rows;
}

// --- E4: running-time shape (THE hot-loop case of the perf trajectory) -----

std::vector<BenchRow> e4_runtime(const Runner& runner, bool full) {
  std::vector<BenchRow> rows;
  // Serving shape: many small instances => per-op constant factors (and
  // allocations) dominate. This is where the hot-path scratch reuse shows.
  for (const int jobs : {64, 512}) {
    rows.push_back(runtime_row(runner, "list_lpt", Family::kUniform, jobs, 8,
                               [](const Instance& i) {
                                 return list_schedule(i,
                                                      ListPriority::kLptJob);
                               }));
    rows.push_back(runtime_row(runner, "three_halves", Family::kManySmallClasses,
                               jobs, 4,
                               [](const Instance& i) { return three_halves(i); }));
  }
  // Linear-time shape: per-row time should scale ~linearly in n.
  const std::vector<int> sizes =
      full ? std::vector<int>{4096, 32768, 262144} : std::vector<int>{4096};
  for (const int jobs : sizes) {
    rows.push_back(runtime_row(runner, "five_thirds", Family::kUniform, jobs,
                               16,
                               [](const Instance& i) { return five_thirds(i); }));
    rows.push_back(runtime_row(runner, "three_halves", Family::kUniform, jobs,
                               16,
                               [](const Instance& i) { return three_halves(i); }));
    rows.push_back(runtime_row(runner, "merge_lpt", Family::kUniform, jobs, 16,
                               [](const Instance& i) { return merge_lpt(i); }));
    // The heap-driven heuristics: O(n log n), no per-job machine or class
    // scan (|C| grows with n here).
    rows.push_back(runtime_row(runner, "hebrard", Family::kUniform, jobs, 16,
                               [](const Instance& i) {
                                 return hebrard_insertion(i);
                               }));
    rows.push_back(runtime_row(runner, "list_lpt", Family::kUniform, jobs, 16,
                               [](const Instance& i) {
                                 return list_schedule(i,
                                                      ListPriority::kLptJob);
                               }));
    // Lemma-9 bound alone (Theorem 7's O(n + m log m) term).
    const Instance& instance = cached_instance(Family::kUniform, jobs, 16);
    BenchRow row;
    row.name = "t_bound/uniform/n=" + std::to_string(jobs) + ",m=16";
    row.solver = "t_bound";
    row.jobs = jobs;
    row.machines = 16;
    row.counters.emplace_back(
        "t", static_cast<double>(three_halves_bound(instance)));
    row.timing = runner.measure([&] {
      const Time t = three_halves_bound(instance);
      (void)t;
    });
    rows.push_back(std::move(row));
  }
  return rows;
}

// --- E5: N-fold IP augmentation solver -------------------------------------

NFold nfold_toy(int N, std::int64_t target) {
  NFold problem;
  problem.r = 1;
  problem.s = 1;
  problem.t = 2;
  problem.N = N;
  for (int i = 0; i < N; ++i) {
    problem.A.push_back({1, 0});
    problem.B.push_back({1, -1});
  }
  problem.b.assign(static_cast<std::size_t>(1 + N), 0);
  problem.b[0] = target;
  problem.lower.assign(static_cast<std::size_t>(2 * N), 0);
  problem.upper.assign(static_cast<std::size_t>(2 * N), 3);
  problem.c.assign(static_cast<std::size_t>(2 * N), 0);
  for (int i = 0; i < N; ++i)
    problem.c[static_cast<std::size_t>(2 * i)] = (i % 3) + 1;
  return problem;
}

std::vector<BenchRow> e5_nfold(const Runner& runner) {
  std::vector<BenchRow> rows;
  for (const int N : {4, 16, 64}) {
    const NFold problem = nfold_toy(N, 2 * N / 3);
    const NFoldResult once = solve_nfold(problem);
    BenchRow row;
    row.name = "solve/N=" + std::to_string(N);
    row.solver = "nfold";
    row.counters.emplace_back("aug_iterations",
                              static_cast<double>(once.iterations));
    row.counters.emplace_back("feasible", once.feasible ? 1.0 : 0.0);
    row.counters.emplace_back("objective",
                              static_cast<double>(once.objective));
    row.timing = runner.measure([&] {
      const NFoldResult result = solve_nfold(problem);
      (void)result;
    });
    rows.push_back(std::move(row));
  }
  return rows;
}

// --- E6: EPTAS quality vs epsilon ------------------------------------------

std::vector<BenchRow> e6_eptas(const Runner& runner) {
  std::vector<BenchRow> rows;
  for (const int e : {2, 3}) {
    for (const Family family : {Family::kUniform, Family::kHugeHeavy}) {
      double mean = 0.0, worst = 1.0, fallbacks = 0.0;
      int samples = 0;
      for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        const Instance instance = generate(family, 10, 3, seed);
        const EptasResult result = eptas(instance, {.e = e});
        const ExactResult exact = exact_makespan(instance);
        if (!exact.optimal) continue;
        const double ratio = result.schedule.makespan(instance) /
                             static_cast<double>(exact.makespan);
        mean += ratio;
        worst = std::max(worst, ratio);
        fallbacks += result.used_fallback ? 1.0 : 0.0;
        ++samples;
      }
      if (samples > 0) mean /= samples;
      BenchRow row;
      row.name = std::string(family_name(family)) + "/eps=1over" +
                 std::to_string(e);
      row.solver = "eptas";
      row.jobs = 10;
      row.machines = 3;
      row.makespan_ratio = mean;
      row.counters.emplace_back("ratio_vs_opt_max", worst);
      row.counters.emplace_back("one_plus_eps", 1.0 + 1.0 / e);
      row.counters.emplace_back("fallbacks", fallbacks);
      row.counters.emplace_back("samples", samples);
      const Instance timed = generate(family, 10, 3, 1);
      row.timing = runner.measure([&] {
        const EptasResult result = eptas(timed, {.e = e});
        (void)result;
      });
      rows.push_back(std::move(row));
    }
  }
  // Resource-augmentation mode: extra-machine usage.
  {
    double machines_used = 0.0, ratio_mean = 0.0;
    int samples = 0;
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      const Instance instance = generate(Family::kUniform, 40, 6, seed);
      const EptasResult result =
          eptas(instance, {.e = 2, .m_constant = false});
      machines_used =
          std::max(machines_used, static_cast<double>(result.machines_used));
      const Time T = lower_bounds(instance).combined;
      ratio_mean +=
          result.schedule.makespan(instance) / static_cast<double>(T);
      ++samples;
    }
    BenchRow row;
    row.name = "augmentation/uniform/n=40,m=6";
    row.solver = "eptas";
    row.jobs = 40;
    row.machines = 6;
    row.makespan_ratio = ratio_mean / samples;
    row.counters.emplace_back("machines_used_max", machines_used);
    row.counters.emplace_back("samples", samples);
    row.timing.ops = static_cast<std::uint64_t>(samples);
    rows.push_back(std::move(row));
  }
  return rows;
}

// --- E7: the Section-5 hardness reduction ----------------------------------

std::vector<BenchRow> e7_hardness(const Runner& runner) {
  std::vector<BenchRow> rows;
  for (const int vars : {6, 12, 24}) {
    int sat = 0, decoded = 0, total = 0;
    double jobs = 0.0;
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
      const Cnf formula = generate_monotone22(vars, seed);
      const auto model = dpll(formula);
      const Reduction red = build_reduction(formula);
      jobs = red.instance.num_jobs();
      ++total;
      if (model.has_value()) {
        ++sat;
        const MSchedule schedule = schedule_from_assignment(red, *model);
        if (validate_multi(red.instance, schedule, 4).ok()) {
          const auto back = assignment_from_schedule(red, schedule);
          if (back && formula.satisfied_by(*back)) ++decoded;
        }
      }
      const MSchedule fallback = trivial_schedule(red);
      const bool five_ok = validate_multi(red.instance, fallback, 5).ok();
      (void)five_ok;
    }
    BenchRow row;
    row.name = "gap/vars=" + std::to_string(vars);
    row.solver = "reduction";
    row.counters.emplace_back("sat_rate",
                              static_cast<double>(sat) / total);
    row.counters.emplace_back(
        "decode_roundtrip",
        sat > 0 ? static_cast<double>(decoded) / sat : 1.0);
    row.counters.emplace_back("gap", 5.0 / 4.0);
    row.counters.emplace_back("gadget_jobs", jobs);
    // Construction cost: the polynomial transformation itself.
    const Cnf formula = generate_monotone22(vars, 1);
    row.timing = runner.measure([&] {
      const Reduction red = build_reduction(formula);
      (void)red.instance.num_jobs();
    });
    rows.push_back(std::move(row));
  }
  return rows;
}

// --- E8: total-completion-time extension -----------------------------------

std::vector<BenchRow> e8_completion(const Runner& runner) {
  std::vector<BenchRow> rows;
  for (const Family family :
       {Family::kUniform, Family::kManySmallClasses, Family::kPhotolith}) {
    for (const int machines : {2, 8}) {
      std::vector<double> ratios;
      const std::vector<CorpusEntry> corpus =
          corpus_of(family, 20 * machines, machines, /*seeds=*/5);
      for (const CorpusEntry& entry : corpus) {
        const AlgoResult result = spt_completion(entry.instance);
        const double objective =
            total_completion_time(entry.instance, result.schedule);
        const double bound = static_cast<double>(
            completion_time_lower_bound(entry.instance));
        ratios.push_back(objective / bound);
      }
      const Summary summary = summarize(ratios);
      BenchRow row;
      row.name = std::string(family_name(family)) + "/m=" +
                 std::to_string(machines);
      row.solver = "spt";
      row.jobs = 20 * machines;
      row.machines = machines;
      row.makespan_ratio = summary.mean;  // completion-time ratio here
      row.counters.emplace_back("ratio_max", summary.max);
      row.counters.emplace_back("two_minus_1_over_m", 2.0 - 1.0 / machines);
      row.timing = runner.measure([&] {
        for (const CorpusEntry& entry : corpus) {
          const AlgoResult result = spt_completion(entry.instance);
          (void)result;
        }
      });
      rows.push_back(std::move(row));
    }
  }
  return rows;
}

// --- E9: lower-bound tightness ---------------------------------------------

std::vector<BenchRow> e9_bounds(const Runner&) {
  std::vector<BenchRow> rows;
  for (const Family family :
       {Family::kUniform, Family::kHugeHeavy, Family::kFewFatClasses,
        Family::kUnit}) {
    double combined_mean = 0.0, lemma9_mean = 0.0, worst = 1.0;
    int samples = 0;
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
      const Instance instance = generate(family, 9, 3, seed);
      const ExactResult exact = exact_makespan(instance);
      if (!exact.optimal) continue;
      const double opt = static_cast<double>(exact.makespan);
      const double combined =
          static_cast<double>(lower_bounds(instance).combined);
      const double lemma9 = static_cast<double>(three_halves_bound(instance));
      combined_mean += opt / combined;
      lemma9_mean += opt / lemma9;
      worst = std::max(worst, opt / combined);
      ++samples;
    }
    if (samples > 0) {
      combined_mean /= samples;
      lemma9_mean /= samples;
    }
    BenchRow row;
    row.name = std::string(family_name(family)) + "/n=9,m=3";
    row.jobs = 9;
    row.machines = 3;
    row.counters.emplace_back("opt_over_note1_mean", combined_mean);
    row.counters.emplace_back("opt_over_lemma9_mean", lemma9_mean);
    row.counters.emplace_back("opt_over_note1_max", worst);
    row.counters.emplace_back("samples", samples);
    row.timing.ops = static_cast<std::uint64_t>(samples);
    rows.push_back(std::move(row));
  }
  return rows;
}

// --- E10: design-choice ablations ------------------------------------------

std::vector<BenchRow> e10_ablation(const Runner& runner) {
  std::vector<BenchRow> rows;
  // (a) pairing-bound dominance in the combined lower bound.
  for (const Family family :
       {Family::kHugeHeavy, Family::kFewFatClasses, Family::kUnit}) {
    double pair_dominates = 0.0, mean_gain = 0.0;
    int samples = 0;
    for (std::uint64_t seed = 1; seed <= 10; ++seed) {
      const Instance instance = generate(family, 32, 4, seed);
      const LowerBounds bounds = lower_bounds(instance);
      const Time without_pair = std::max(bounds.area, bounds.class_bound);
      if (bounds.pair > without_pair) pair_dominates += 1.0;
      mean_gain += static_cast<double>(bounds.combined) /
                   static_cast<double>(without_pair);
      ++samples;
    }
    BenchRow row;
    row.name = std::string("pair_bound/") + family_name(family);
    row.jobs = 32;
    row.machines = 4;
    row.counters.emplace_back("pair_dominates_frac", pair_dominates / samples);
    row.counters.emplace_back("bound_gain_mean", mean_gain / samples);
    row.timing.ops = static_cast<std::uint64_t>(samples);
    rows.push_back(std::move(row));
  }
  // (b) dynamic (Hebrard) vs static class-priority insertion.
  for (const bool dynamic : {false, true}) {
    const AlgoFn fn = [dynamic](const Instance& instance) {
      return dynamic ? hebrard_insertion(instance)
                     : list_schedule(instance, ListPriority::kClassLoadDesc);
    };
    rows.push_back(quality_row(
        runner, std::string("hebrard/") + (dynamic ? "dynamic" : "static"),
        dynamic ? "hebrard" : "list_class_desc", fn, Family::kFewFatClasses,
        120, 6, /*seeds=*/5));
  }
  // (c) list-scheduling priority rules against each other.
  const std::pair<ListPriority, const char*> priorities[] = {
      {ListPriority::kInputOrder, "input"},
      {ListPriority::kLptJob, "lpt"},
      {ListPriority::kClassLoadDesc, "class_desc"},
  };
  for (const auto& [priority, label] : priorities) {
    const AlgoFn fn = [priority = priority](const Instance& instance) {
      return list_schedule(instance, priority);
    };
    rows.push_back(quality_row(runner, std::string("priority/") + label,
                               std::string("list_") + label, fn,
                               Family::kPhotolith, 120, 6, /*seeds=*/5));
  }
  return rows;
}

// --- E11: BatchEngine throughput -------------------------------------------

std::vector<Instance> mixed_batch() {
  // 5 families x 10 seeds x 2 repeats = 100 instances, 50 unique shapes.
  std::vector<Instance> batch;
  batch.reserve(100);
  for (int repeat = 0; repeat < 2; ++repeat)
    for (int seed = 1; seed <= 10; ++seed)
      for (const Family family :
           {Family::kUniform, Family::kBimodal, Family::kManySmallClasses,
            Family::kSatellite, Family::kPhotolith})
        batch.push_back(generate(family, 60, 3 + (seed % 3) * 2,
                                 static_cast<std::uint64_t>(seed)));
  return batch;
}

std::vector<BenchRow> e11_engine(const Runner& runner) {
  const std::vector<Instance> batch = mixed_batch();
  std::vector<BenchRow> rows;
  for (const bool cache : {false, true}) {
    for (const unsigned threads : {1u, 4u}) {
      engine::BatchOptions options;
      options.threads = threads;
      options.cache = cache;
      std::size_t solved = 0, hits = 0;
      double ratio_mean = 0.0;
      bool all_valid = true;
      BenchRow row;
      row.timing = runner.measure([&] {
        engine::BatchEngine batch_engine(
            engine::SolverRegistry::default_registry(), options);
        const auto results = batch_engine.solve(batch);
        solved = batch_engine.stats().solved;
        hits = batch_engine.stats().cache_hits;
        ratio_mean = 0.0;
        for (const engine::PortfolioResult& result : results) {
          ratio_mean += result.ratio_vs_bound;
          all_valid = all_valid && result.valid;
        }
        ratio_mean /= static_cast<double>(results.size());
      });
      row.name = std::string(cache ? "cache" : "nocache") + "/t=" +
                 std::to_string(threads);
      row.solver = "portfolio";
      row.jobs = static_cast<int>(batch.size());
      row.makespan_ratio = ratio_mean;
      row.counters.emplace_back("solved", static_cast<double>(solved));
      row.counters.emplace_back("cache_hits", static_cast<double>(hits));
      row.counters.emplace_back("all_valid", all_valid ? 1.0 : 0.0);
      row.counters.emplace_back("batch_size",
                                static_cast<double>(batch.size()));
      rows.push_back(std::move(row));
    }
  }
  return rows;
}

// --- E12: generator subsystem ----------------------------------------------

std::vector<BenchRow> e12_generator(const Runner& runner) {
  std::vector<BenchRow> rows;
  {
    BenchRow row;
    row.name = "spec_parse";
    const std::string text = "huge_heavy:n=5000,m=32,classes=zipf(1.2),seed=7";
    row.timing = runner.measure([&] {
      const auto spec = parse_spec(text);
      (void)spec;
    });
    rows.push_back(std::move(row));
  }
  for (const Family family :
       {Family::kUniform, Family::kHugeHeavy, Family::kLemma9Tight}) {
    GeneratorSpec spec;
    spec.family = family;
    spec.jobs = 1000;
    spec.machines = 8;
    spec.seed = 1;
    const Instance once = generate(spec);
    BenchRow row;
    row.name = std::string("generate/") + family_name(family) + "/n=1000";
    row.jobs = once.num_jobs();
    row.machines = 8;
    row.counters.emplace_back("total_load",
                              static_cast<double>(once.total_load()));
    row.counters.emplace_back("classes",
                              static_cast<double>(once.num_classes()));
    row.timing = runner.measure([&] {
      const Instance instance = generate(spec);
      (void)instance.total_load();
    });
    rows.push_back(std::move(row));
  }
  {
    SweepSpec sweep;
    sweep.families = {Family::kUniform, Family::kHugeHeavy,
                      Family::kLemma9Tight, Family::kBoundary};
    sweep.jobs = {40, 80};
    sweep.machines = {8};
    sweep.seeds = 3;
    std::vector<std::string> groups;
    std::vector<Instance> instances;
    std::vector<CorpusEntry> corpus = make_corpus(sweep);
    groups.reserve(corpus.size());
    instances.reserve(corpus.size());
    for (CorpusEntry& entry : corpus) {
      groups.push_back(family_name(entry.spec.family));
      instances.push_back(std::move(entry.instance));
    }
    engine::BatchOptions options;
    options.threads = 1;
    double ratio_mean = 0.0, ratio_max = 0.0, invalid = 0.0;
    BenchRow row;
    row.timing = runner.measure([&] {
      const engine::CorpusReport report = engine::evaluate_corpus(
          groups, instances, engine::SolverRegistry::default_registry(),
          options);
      double sum = 0.0;
      ratio_max = 0.0;
      invalid = 0.0;
      for (const engine::GroupReport& group : report.groups) {
        sum += group.ratio_mean;
        ratio_max = std::max(ratio_max, group.ratio_max);
        invalid += static_cast<double>(group.invalid);
      }
      ratio_mean = sum / static_cast<double>(report.groups.size());
    });
    row.name = "sweep_evaluate/cells=8,seeds=3";
    row.solver = "portfolio";
    row.jobs = static_cast<int>(instances.size());
    row.makespan_ratio = ratio_mean;
    row.counters.emplace_back("ratio_max", ratio_max);
    row.counters.emplace_back("invalid", invalid);
    rows.push_back(std::move(row));
  }
  return rows;
}

// --- E13: serving layer ----------------------------------------------------

// Steady-state serving path: a running sharded Service (serve/service.hpp),
// repeated-corpus traffic submitted as raw JSONL lines, responses counted
// via the per-request callbacks. One measured op = one full pass over the
// request list (request scan -> flat instance -> placement -> shard queue
// -> canonical shape -> cached response tail -> response bytes). The
// `steady` rows are prewarmed (every request a cache hit — the serving
// regime the acceptance gate cares about): 64 small shapes on 1 and 4
// shards, and 64 n=1000 shapes on 1 shard, where admission cost by size
// shows. `cold` builds a fresh service per op, measuring the dispatch +
// first-solve path.
std::vector<BenchRow> e13_serve(const Runner& runner) {
  // 64 distinct shapes of one generator cell as inline solve lines.
  const auto corpus_lines = [](int jobs, int machines) {
    GeneratorSpec spec;
    spec.family = Family::kUniform;
    spec.jobs = jobs;
    spec.machines = machines;
    std::vector<std::string> out;
    for (const CorpusEntry& entry : seed_corpus(spec, 64)) {
      Json request = Json::object();
      request.set("id", static_cast<std::int64_t>(out.size()));
      request.set("op", "solve");
      request.set("instance", to_text(entry.instance));
      out.push_back(request.str());
    }
    return out;
  };
  // 64 distinct small shapes, the high-QPS serving sweet spot.
  constexpr int kJobs = 32;
  constexpr int kMachines = 4;
  const std::vector<std::string> small_lines = corpus_lines(kJobs, kMachines);
  const std::vector<std::string> large_lines = corpus_lines(1000, 16);

  // Submits every line and blocks until all responses fired; returns the
  // total response bytes (a determinism probe across shard counts).
  const auto replay = [](serve::Service& service,
                         const std::vector<std::string>& lines) {
    std::atomic<std::size_t> bytes{0};
    std::atomic<std::size_t> left{lines.size()};
    std::promise<void> all_done;
    std::future<void> done = all_done.get_future();
    for (const std::string& line : lines)
      service.submit(line, [&](std::string&& response) {
        bytes.fetch_add(response.size());
        if (left.fetch_sub(1) == 1) all_done.set_value();
      });
    done.wait();
    return bytes.load();
  };

  std::vector<BenchRow> rows;
  const struct {
    const char* name;
    unsigned shards;
    int jobs, machines;
    const std::vector<std::string>* lines;
  } steady[] = {
      {"steady/t=1", 1, kJobs, kMachines, &small_lines},
      {"steady/t=4", 4, kJobs, kMachines, &small_lines},
      {"steady_n1000/t=1", 1, 1000, 16, &large_lines},
  };
  for (const auto& config : steady) {
    const std::vector<std::string>& lines = *config.lines;
    serve::ServiceOptions options;
    options.shards = config.shards;
    options.queue_depth = 1024;
    options.cache_capacity = 1 << 14;
    serve::Service service(options);
    (void)replay(service, lines);  // prewarm: every measured request repeats
    std::size_t bytes = 0;
    double hit_rate = 0.0;
    BenchRow row;
    row.timing = runner.measure([&] {
      const serve::ServiceStats before = service.stats();
      bytes = replay(service, lines);
      const serve::ServiceStats after = service.stats();
      const double lookups =
          static_cast<double>((after.cache_hits + after.cache_misses) -
                              (before.cache_hits + before.cache_misses));
      hit_rate = lookups > 0.0
                     ? static_cast<double>(after.cache_hits -
                                           before.cache_hits) /
                           lookups
                     : 0.0;
    });
    row.name = config.name;
    row.solver = "portfolio";
    row.jobs = config.jobs;
    row.machines = config.machines;
    row.counters.emplace_back("requests",
                              static_cast<double>(lines.size()));
    row.counters.emplace_back("hit_rate", hit_rate);
    row.counters.emplace_back("resp_bytes", static_cast<double>(bytes));
    rows.push_back(std::move(row));
  }
  {
    // Cold path: fresh service per op — dispatch + portfolio solves.
    std::size_t bytes = 0;
    BenchRow row;
    row.timing = runner.measure([&] {
      serve::ServiceOptions options;
      options.shards = 4;
      serve::Service service(options);
      bytes = replay(service, small_lines);
      service.shutdown(std::chrono::seconds(30));
    });
    row.name = "cold/t=4";
    row.solver = "portfolio";
    row.jobs = kJobs;
    row.machines = kMachines;
    row.counters.emplace_back("requests",
                              static_cast<double>(small_lines.size()));
    row.counters.emplace_back("resp_bytes", static_cast<double>(bytes));
    rows.push_back(std::move(row));
  }
  if (serve::tcp_transport_available()) {
    // Fan-in path: the same steady-state traffic, but through the TCP
    // event loop — 64 concurrent closed-loop connections per measured op
    // (connect, version handshake, request/response over the wire, drain).
    // One op = one full drive run, so the row prices the whole transport:
    // accept, framing, shard fan-out, ordered write-back.
    serve::ServiceOptions options;
    options.shards = 4;
    options.queue_depth = 1024;
    options.cache_capacity = 1 << 14;
    serve::Service service(options);
    std::promise<std::uint16_t> port_promise;
    std::future<std::uint16_t> port = port_promise.get_future();
    serve::TcpOptions tcp_options;
    tcp_options.max_connections = 256;
    tcp_options.on_listen = [&port_promise](std::uint16_t p) {
      port_promise.set_value(p);
    };
    std::thread server([&service, &tcp_options] {
      std::string error;
      (void)serve::serve_tcp(service, "", "127.0.0.1:0", &error, tcp_options);
    });
    serve::DriveOptions drive_options;
    drive_options.tcp = "127.0.0.1:" + std::to_string(port.get());
    drive_options.specs = {"uniform:n=32,m=4,seed=1"};
    drive_options.seeds_per_spec = 64;  // the corpus of the steady rows
    drive_options.requests = 512;
    drive_options.conns = 64;
    std::string error;
    (void)serve::drive(drive_options, &error);  // prewarm the cache
    std::size_t ok = 0;
    BenchRow row;
    row.timing = runner.measure([&] {
      const auto report = serve::drive(drive_options, &error);
      ok = report ? report->ok : 0;
    });
    row.name = "tcp_fanin/c=64";
    row.solver = "portfolio";
    row.jobs = kJobs;
    row.machines = kMachines;
    row.counters.emplace_back("requests",
                              static_cast<double>(drive_options.requests));
    row.counters.emplace_back("conns",
                              static_cast<double>(drive_options.conns));
    row.counters.emplace_back("ok", static_cast<double>(ok));
    rows.push_back(std::move(row));
    // End the event loop with the protocol's own shutdown op.
    serve::LineClient closer;
    if (closer.connect("", drive_options.tcp, &error)) {
      (void)closer.send_line("{\"op\":\"shutdown\"}");
      std::string line;
      (void)closer.recv_line(&line);
    }
    server.join();
  }
  return rows;
}

// E14 — telemetry overhead: the obs hot paths (counter add, histogram
// record), read-side snapshot + Prometheus render, and the live `stats` op
// of an instrumented service. Guards the "instrumentation is cheap enough
// to be always-on" contract (docs/observability.md). All emitted counters
// are constants of the workload shape, never live metric values, so the
// non-timing output stays byte-reproducible.
std::vector<BenchRow> e14_obs(const Runner& runner) {
  constexpr std::size_t kOps = 1024;
  std::vector<BenchRow> rows;

  {
    obs::MetricsRegistry registry;
    obs::Counter& counter = registry.counter("bench.counter");
    BenchRow row;
    row.timing = runner.measure([&] {
      for (std::size_t i = 0; i < kOps; ++i) counter.add(1);
    });
    row.name = "counter/add";
    row.solver = "obs";
    row.counters.emplace_back("per_op", static_cast<double>(kOps));
    rows.push_back(std::move(row));
  }

  {
    obs::MetricsRegistry registry;
    obs::Histogram& histogram = registry.histogram("bench.latency_us");
    // Fixed cycling samples spanning the bucket ladder: the recorded
    // distribution (and thus any later render) is run-independent.
    constexpr double kSamples[] = {0.5, 3.0, 42.0, 180.0, 950.0, 7500.0};
    std::size_t cursor = 0;
    BenchRow row;
    row.timing = runner.measure([&] {
      for (std::size_t i = 0; i < kOps; ++i) {
        histogram.record(kSamples[cursor]);
        cursor = (cursor + 1) % std::size(kSamples);
      }
    });
    row.name = "histogram/record";
    row.solver = "obs";
    row.counters.emplace_back("per_op", static_cast<double>(kOps));
    rows.push_back(std::move(row));
  }

  {
    // The flight-recorder hot path: one lifecycle event per request, so
    // record() must stay in the tens of nanoseconds (the ≤25 ns/event
    // budget of docs/observability.md). The timestamp is caller-supplied
    // (the serve path reuses its trace stamps), so a constant keeps the
    // measured work identical to the hot loop's.
    obs::FlightRecorder recorder({/*capacity=*/1 << 14});
    const std::uint16_t label = recorder.intern("three_halves");
    BenchRow row;
    row.timing = runner.measure([&] {
      for (std::size_t i = 0; i < kOps; ++i)
        recorder.record(obs::EventKind::kSolveEnd, /*seq=*/i,
                        /*ts_ns=*/123456789, /*shard=*/0, /*arg=*/label,
                        /*value=*/1);
    });
    row.name = "recorder/record";
    row.solver = "obs";
    row.counters.emplace_back("per_op", static_cast<double>(kOps));
    rows.push_back(std::move(row));
  }

  {
    // Read side: snapshot a fixed registry and render the Prometheus page.
    obs::MetricsRegistry registry;
    for (int c = 0; c < 16; ++c)
      registry.counter("bench.counter." + std::to_string(c)).add(
          static_cast<std::uint64_t>(c) * 17 + 1);
    for (int g = 0; g < 4; ++g)
      registry.gauge("bench.gauge." + std::to_string(g)).set(g * 5 - 3);
    obs::Histogram& histogram = registry.histogram("bench.latency_us");
    for (std::size_t i = 0; i < kOps; ++i)
      histogram.record(static_cast<double>((i * 37) % 4096));
    std::size_t page_bytes = 0;
    BenchRow row;
    row.timing = runner.measure(
        [&] { page_bytes = registry.snapshot().prometheus().size(); });
    row.name = "snapshot/prometheus";
    row.solver = "obs";
    row.counters.emplace_back("page_bytes", static_cast<double>(page_bytes));
    rows.push_back(std::move(row));
  }

  {
    // The live stats surface: render the full telemetry `stats` response
    // (counter body + breakdowns + quantile decomposition) from a fixed
    // synthetic snapshot. A live service's latency histograms carry real
    // clock values, whose rendered digit counts (and thus allocations)
    // vary run to run — a synthetic snapshot keeps the row reproducible
    // while exercising the same render path the serve hot loop uses.
    obs::MetricsRegistry registry;
    registry.counter("serve.errors.bad_spec").add(3);
    registry.counter("engine.race_win.three_halves").add(5);
    registry.counter("serve.conns.accepted").add(4);
    registry.gauge("serve.conns.active").set(2);
    constexpr const char* kStages[] = {"admission", "queue", "solve",
                                       "write", "total"};
    for (const char* stage : kStages) {
      obs::Histogram& histogram = registry.histogram(
          std::string("serve.latency.") + stage + "_us");
      for (std::size_t i = 0; i < 256; ++i)
        histogram.record(static_cast<double>((i * 53) % 2048));
    }
    serve::ServiceStats stats;
    stats.received = 512;
    stats.responded = 512;
    stats.solved = 256;
    stats.cache_hits = 128;
    stats.cache_misses = 256;
    stats.shards = 2;
    stats.queue_depths = {3, 1};
    stats.shard_requests = {200, 184};
    const obs::MetricsSnapshot snapshot = registry.snapshot();
    std::size_t line_bytes = 0;
    BenchRow row;
    row.timing = runner.measure([&] {
      line_bytes = serve::stats_response(Json(), stats, snapshot).size();
    });
    row.name = "serve/stats_op";
    row.solver = "obs";
    row.counters.emplace_back("line_bytes", static_cast<double>(line_bytes));
    rows.push_back(std::move(row));
  }
  return rows;
}

// --- E15: online sessions: memo repair vs full re-solve --------------------

std::vector<BenchRow> e15_session(const Runner& runner) {
  // One Poisson and one bursty on/off trace, snapshot after every mutation
  // (snap=1: the serving worst case). The repair arm and the oracle arm
  // (repair=false: every snapshot is a full portfolio re-solve) replay the
  // identical trace; portfolio equivalence makes their final makespans
  // equal by contract, and the counters pin the repair hit profile — any
  // change to the memo logic moves `repairs`/`fallbacks` and fails the
  // baseline diff before it can regress latency.
  constexpr const char* kSpecs[] = {
      "poisson:events=300,classes=6,m=4,max=50,cancel=0.4,snap=1,seed=5",
      "onoff:events=300,classes=5,m=3,max=40,cancel=0.45,snap=1,"
      "burst=8,blen=16,seed=6",
  };
  std::vector<BenchRow> rows;
  for (const char* text : kSpecs) {
    const std::optional<ChurnSpec> spec = parse_churn(text);
    if (!spec.has_value()) continue;  // unreachable: specs are literals
    const std::vector<ChurnEvent> trace = generate_churn(*spec);
    double final_makespan[2] = {0.0, 0.0};
    int arm = 0;
    for (const bool repair : {true, false}) {
      engine::SessionOptions options;
      options.repair = repair;
      options.portfolio.budget_ms = 5;
      std::size_t mutations = 0, snapshots = 0, repairs = 0, fallbacks = 0;
      bool all_valid = true;
      BenchRow row;
      row.timing = runner.measure([&] {
        engine::SessionEngine session(
            spec->machines, engine::SolverRegistry::default_registry(),
            options);
        mutations = 0;
        all_valid = true;
        for (const ChurnEvent& event : trace) {
          switch (event.kind) {
            case ChurnEvent::Kind::kSubmit:
              session.submit("c" + std::to_string(event.cls), event.size);
              ++mutations;
              break;
            case ChurnEvent::Kind::kCancel:
              session.cancel(static_cast<std::uint64_t>(event.target));
              ++mutations;
              break;
            case ChurnEvent::Kind::kSnapshot: {
              const engine::SessionSnapshot& snap = session.snapshot();
              all_valid =
                  all_valid && (snap.jobs.empty() || snap.result.valid);
              final_makespan[arm] = snap.result.makespan;
              break;
            }
          }
        }
        snapshots = session.stats().snapshots;
        repairs = session.stats().repairs;
        fallbacks = session.stats().fallbacks;
      });
      row.name = std::string(arrival_kind_name(spec->kind)) + "/" +
                 (repair ? "repair" : "resolve");
      row.solver = "session";
      row.jobs = static_cast<int>(mutations);
      row.counters.emplace_back("mutations", static_cast<double>(mutations));
      row.counters.emplace_back("snapshots", static_cast<double>(snapshots));
      row.counters.emplace_back("repairs", static_cast<double>(repairs));
      row.counters.emplace_back("fallbacks", static_cast<double>(fallbacks));
      row.counters.emplace_back("all_valid", all_valid ? 1.0 : 0.0);
      rows.push_back(std::move(row));
      ++arm;
    }
    // The portfolio-equivalence contract, pinned into the baseline: both
    // arms end the trace on the same makespan.
    BenchRow row;
    row.name = std::string(arrival_kind_name(spec->kind)) + "/equivalence";
    row.solver = "session";
    row.counters.emplace_back(
        "makespan_equal",
        final_makespan[0] == final_makespan[1] ? 1.0 : 0.0);
    row.counters.emplace_back("makespan", final_makespan[0]);
    rows.push_back(std::move(row));
  }
  return rows;
}

}  // namespace

BenchRegistry BenchRegistry::make_default() {
  BenchRegistry registry;
  registry.add(make_case(
      "e1_ratio_53", "Algorithm_5/3 ratio vs the Note-1 bound per family",
      "Theorem 2 / Section 2", Tier::kQuick, [](const Runner& runner) {
        return ratio_case(
            runner, [](const Instance& i) { return five_thirds(i); },
            "five_thirds");
      }));
  registry.add(make_case(
      "e2_ratio_32", "Algorithm_3/2 ratio vs the Lemma-9 bound per family",
      "Theorem 7 / Section 3.2", Tier::kQuick, [](const Runner& runner) {
        return ratio_case(
            runner, [](const Instance& i) { return three_halves(i); },
            "three_halves");
      }));
  registry.add(make_case(
      "e3_vs_baseline",
      "ladder vs prior (2m/(m+1))-approximations across m",
      "Section 1 (Results)", Tier::kQuick, e3_vs_baseline));
  registry.add(make_case(
      "e4_runtime",
      "ns/op + allocs/op of the near-linear hot paths (serving shapes and "
      "linear-scaling sizes)",
      "Theorem 2 (O(|I|)), Theorem 7 (O(n + m log m))", Tier::kQuick,
      [](const Runner& runner) { return e4_runtime(runner, false); }));
  registry.add(make_case(
      "xl_runtime", "e4_runtime shapes at 32k-262k jobs (slope check)",
      "Theorem 2, Theorem 7", Tier::kFull,
      [](const Runner& runner) { return e4_runtime(runner, true); }));
  registry.add(make_case(
      "e5_nfold", "N-fold IP augmentation runtime/iterations over N",
      "Theorem 22 / Section 4.2", Tier::kQuick, e5_nfold));
  registry.add(make_case(
      "e6_eptas", "EPTAS quality vs epsilon against the exact optimum",
      "Theorem 14 / Section 4", Tier::kQuick, e6_eptas));
  registry.add(make_case(
      "e7_hardness", "4-vs-5 hardness gadget: gap, decode round-trip, cost",
      "Theorem 23, Lemma 24 / Section 5", Tier::kQuick, e7_hardness));
  registry.add(make_case(
      "e8_completion", "SPT total-completion-time ratios vs relaxation bound",
      "Section 1 related work (Janssen et al.)", Tier::kQuick,
      e8_completion));
  registry.add(make_case(
      "e9_bounds", "tightness of the Note-1 / Lemma-9 bounds vs OPT",
      "Note 1, Lemma 9", Tier::kQuick, e9_bounds));
  registry.add(make_case(
      "e10_ablation",
      "pair-bound dominance; Hebrard dynamic-vs-static; list priorities",
      "DESIGN ablations (Note 1, Section 1 baselines)", Tier::kQuick,
      e10_ablation));
  registry.add(make_case(
      "e11_engine", "BatchEngine throughput: shard width x cache on/off",
      "serving layer (not in the paper)", Tier::kQuick, e11_engine));
  registry.add(make_case(
      "e12_generator", "generator throughput: spec parse, generate, sweep",
      "workload subsystem (docs/scenarios.md)", Tier::kQuick,
      e12_generator));
  registry.add(make_case(
      "e13_serve",
      "serving path: sharded service steady-state (cache) and cold dispatch",
      "serving layer (docs/architecture.md)", Tier::kQuick, e13_serve));
  registry.add(make_case(
      "e14_obs",
      "telemetry overhead: counter/histogram hot path, snapshot render, "
      "stats op",
      "observability layer (docs/observability.md)", Tier::kQuick, e14_obs));
  registry.add(make_case(
      "e15_session",
      "online sessions: memo repair vs full re-solve over churn traces",
      "online serving layer (docs/scenarios.md)", Tier::kQuick,
      e15_session));
  return registry;
}

std::unique_ptr<BenchCase> make_corpus_case(
    std::string name, std::vector<CorpusEntry> corpus,
    std::vector<std::string> solver_names) {
  auto run = [corpus = std::move(corpus),
              solver_names](const Runner& runner) {
    std::vector<BenchRow> rows;
    if (solver_names.empty()) {
      // Batched portfolio over the corpus (cache off: honest timing).
      engine::BatchOptions options;
      options.threads = 1;
      options.cache = false;
      std::vector<Instance> batch;
      batch.reserve(corpus.size());
      for (const CorpusEntry& entry : corpus)
        batch.push_back(entry.instance);
      double ratio_mean = 0.0;
      bool all_valid = true;
      BenchRow row;
      row.timing = runner.measure([&] {
        engine::BatchEngine batch_engine(
            engine::SolverRegistry::default_registry(), options);
        const auto results = batch_engine.solve(batch);
        ratio_mean = 0.0;
        all_valid = true;
        for (const engine::PortfolioResult& result : results) {
          ratio_mean += result.ratio_vs_bound;
          all_valid = all_valid && result.valid;
        }
        ratio_mean /= static_cast<double>(results.size());
      });
      row.name = "portfolio";
      row.solver = "portfolio";
      row.jobs = static_cast<int>(batch.size());
      row.makespan_ratio = ratio_mean;
      row.counters.emplace_back("all_valid", all_valid ? 1.0 : 0.0);
      row.counters.emplace_back("instances",
                                static_cast<double>(batch.size()));
      rows.push_back(std::move(row));
      return rows;
    }
    for (const std::string& solver_name : solver_names) {
      const engine::Solver* solver =
          engine::SolverRegistry::default_registry().find(solver_name);
      if (solver == nullptr) continue;  // validated by the CLI up front
      std::vector<const Instance*> applicable;
      for (const CorpusEntry& entry : corpus)
        if (solver->applicable(entry.instance))
          applicable.push_back(&entry.instance);
      std::vector<double> ratios;
      int invalid = 0;
      for (const Instance* instance : applicable) {
        const engine::SolverResult result = solver->solve(*instance);
        if (!result.ok || !is_valid(*instance, result.schedule)) {
          ++invalid;
          continue;
        }
        const Time T = lower_bounds(*instance).combined;
        ratios.push_back(result.schedule.makespan(*instance) /
                         static_cast<double>(T));
      }
      const Summary summary = summarize(ratios);
      BenchRow row;
      row.name = solver_name;
      row.solver = solver_name;
      row.jobs = static_cast<int>(corpus.size());
      row.makespan_ratio = summary.mean;
      row.counters.emplace_back("ratio_max", summary.max);
      row.counters.emplace_back("invalid", invalid);
      row.counters.emplace_back(
          "skipped",
          static_cast<double>(corpus.size() - applicable.size()));
      if (!applicable.empty()) {
        row.timing = runner.measure([&] {
          for (const Instance* instance : applicable) {
            const engine::SolverResult result = solver->solve(*instance);
            (void)result;
          }
        });
      }
      rows.push_back(std::move(row));
    }
    return rows;
  };
  return make_case(std::move(name), "generated-corpus measurement",
                   "sim/spec.hpp corpus", Tier::kQuick, std::move(run));
}

}  // namespace msrs::perf
