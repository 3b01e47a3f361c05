/// \file
/// PortfolioSolver: regime-aware candidate selection + racing + validation.
///
/// Given an instance, a deterministic regime heuristic (huge jobs? m >= |C|?
/// tiny n? unit sizes?) picks the candidate rungs of the algorithm ladder;
/// the candidates are raced (optionally across a thread pool), every
/// returned schedule is checked by core/validate, and the best valid
/// makespan wins. The result carries provenance: the winning solver's name
/// and the measured ratio against the Lemma-9 bound T (algo/t_bound.hpp).
///
/// The race runs on canonical instances only. An instance is first put in
/// canonical form (engine/batch.hpp), its canonical shape is raced, and the
/// winner is mapped back to the caller's labels. Machines and classes carry
/// no labels in the model, so every relabelling of an instance gets the
/// same answer, and callers that hold a shape race it directly.
///
/// Everything here is deterministic in (shape, options): candidate sets
/// come from structural predicates and the integer budget only — never wall
/// clocks — and the winner is chosen by exact makespan comparison with
/// registration order as the tie-break, independent of completion order.
#pragma once

#include <string>
#include <vector>

#include "engine/registry.hpp"
#include "engine/solver.hpp"

namespace msrs::obs {
class MetricsRegistry;
}  // namespace msrs::obs

namespace msrs::engine {

struct CanonicalShape;  // engine/batch.hpp

/// Options of one portfolio race.
struct PortfolioOptions {
  /// Deterministic effort gate (NOT a wall-clock deadline): search-tier
  /// solvers (exact, eptas) only join the race if their estimated cost
  /// fits. exact joins from >= 10, eptas from >= 500.
  int budget_ms = 100;
  /// Threads used to race the candidates (<= 1: run them sequentially).
  unsigned threads = 1;
  /// When non-empty, restrict the race to these solver names (still
  /// filtered by applicability).
  std::vector<std::string> only;
  /// Optional telemetry sink (not owned; must outlive the solver). Each
  /// race increments `engine.races`, `engine.race_attempts`,
  /// `engine.race_invalid` and the per-winner `engine.race_win.<solver>`
  /// counters. Never affects the solve result.
  obs::MetricsRegistry* metrics = nullptr;
};

/// One raced candidate, in candidate order (provenance of the whole race).
struct Attempt {
  std::string solver;     ///< candidate solver name
  bool ok = false;        ///< solver produced a schedule
  bool valid = false;     ///< ... and it passed validate()
  double makespan = 0.0;  ///< instance units; 0 if `!ok`
  std::string error;      ///< failure reason when `!ok` or `!valid`
};

/// Outcome of a portfolio race (also the unit BatchEngine caches).
struct PortfolioResult {
  Schedule schedule;          ///< the winning schedule
  std::string solver;         ///< provenance: winning solver name
  Time t_bound = 0;           ///< Lemma-9 bound (three_halves_bound)
  double makespan = 0.0;      ///< winner's makespan, instance units
  double ratio_vs_bound = 0;  ///< makespan / t_bound (1.0 when t_bound == 0)
  bool valid = false;         ///< a validated schedule was found
  bool from_cache = false;    ///< set by BatchEngine: no race of its own
  std::vector<Attempt> attempts;  ///< every raced candidate, in order
};

/// Races the applicable rungs of a registry on one instance. Stateless
/// between calls; safe to share const across threads.
class PortfolioSolver {
 public:
  /// Binds the portfolio to a registry (not owned; must outlive this).
  explicit PortfolioSolver(
      const SolverRegistry& registry = SolverRegistry::default_registry(),
      PortfolioOptions options = {});

  /// The regime heuristic, exposed for tests: candidates in priority order.
  std::vector<const Solver*> candidates(const Instance& instance) const;

  /// Races the instance's canonical shape and maps the winner back to the
  /// instance's labels; deterministic in (shape, options).
  PortfolioResult solve(const Instance& instance) const;

  /// Races the canonical instance `shape.build()`; the result is in
  /// canonical labels (remap_result maps it onto one instance).
  PortfolioResult solve(const CanonicalShape& shape) const;

  /// The options this portfolio was built with.
  const PortfolioOptions& options() const { return options_; }

 private:
  PortfolioResult race(const Instance& instance) const;

  const SolverRegistry* registry_;
  PortfolioOptions options_;
};

}  // namespace msrs::engine
