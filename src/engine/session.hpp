/// \file
/// SessionEngine: an online, mutable MSRS instance whose snapshot is a
/// PortfolioSolver race on the materialized instance, memoized by shape.
///
/// A session owns a stream of submit/cancel mutations against one machine
/// pool. Its observable contract is *portfolio equivalence*: after any
/// mutation history, `snapshot()` returns exactly the result a fresh,
/// deterministic PortfolioSolver::solve (engine/portfolio.hpp) would
/// produce on the materialized instance, schedule included. A snapshot
/// puts that instance in canonical form (engine/batch.hpp) and looks its
/// shape up in a bounded per-session memo of canonical results. Churn that
/// revisits a shape (cancel undoing a submit, oscillating arrival
/// processes) is answered by remapping the memoized result instead of
/// racing again; any other shape is raced once and memoized.
///
/// tests/test_session.cpp replays fuzzed churn traces and asserts after
/// every mutation that the snapshot's schedule equals a fresh race's, job
/// for job. Determinism: the snapshot (including its repair/resolve
/// provenance) is a pure function of the mutation history, so
/// serving-layer snapshot responses stay byte-identical across shard
/// counts and transports.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "engine/batch.hpp"
#include "engine/portfolio.hpp"
#include "engine/registry.hpp"

namespace msrs::engine {

/// Options of one SessionEngine.
struct SessionOptions {
  /// Portfolio configuration of the repair/fallback solves (`threads` is
  /// forced to 1: a session lives on one serving shard).
  PortfolioOptions portfolio;
  /// Session-local memo bound, in canonical shapes (0 = unbounded). The
  /// memo is deliberately per-session — a shared cache would make repair
  /// provenance depend on unrelated traffic and break snapshot determinism
  /// across shard counts.
  std::size_t cache_capacity = 256;
  /// When false, every snapshot re-solves from scratch (oracle mode; used
  /// by the differential tests and the E15 bench's resolve arm).
  bool repair = true;
};

/// Lifetime counters of one session.
struct SessionStats {
  std::size_t submits = 0;    ///< submit() calls
  std::size_t cancels = 0;    ///< successful cancel() calls
  std::size_t snapshots = 0;  ///< snapshot() calls
  /// Snapshots recomputed without running the portfolio: a memoized shape
  /// remapped through the canonical bijection, or an empty instance.
  std::size_t repairs = 0;
  /// Snapshots recomputed by the full portfolio re-solve.
  std::size_t fallbacks = 0;
};

/// How the current snapshot's result was produced.
enum class SnapshotSource {
  kEmpty,    ///< no alive jobs: trivial schedule, no solve
  kRepair,   ///< memoized shape, remapped through the canonical bijection
  kResolve,  ///< full portfolio re-solve (the fallback/oracle path)
};

/// Stable lowercase name of a snapshot source ("empty"/"repair"/"resolve").
const char* snapshot_source_name(SnapshotSource source);

/// The materialized state of a session at one point of its mutation
/// history. References returned by SessionEngine::snapshot() stay valid
/// until the next mutation.
struct SessionSnapshot {
  /// Compact instance over the alive jobs (classes in creation order,
  /// empty classes skipped, jobs in submission order within a class).
  Instance instance;
  /// Session job id of each compact JobId (`jobs[j]` names instance job j).
  std::vector<std::uint64_t> jobs;
  /// The portfolio-equivalent result (schedule over compact JobIds).
  PortfolioResult result;
  /// Provenance of `result`.
  SnapshotSource source = SnapshotSource::kEmpty;
};

/// One online scheduling session (see file comment for the contract).
/// Not thread-safe: a session is owned by one serving shard.
class SessionEngine {
 public:
  /// A session over `machines` (>= 1) machines. The registry must outlive
  /// the session.
  explicit SessionEngine(
      int machines,
      const SolverRegistry& registry = SolverRegistry::default_registry(),
      SessionOptions options = {});

  /// Submits a job of `size` (>= 1) to the class named `class_name`
  /// (created on first use). Returns the session job id: a monotone
  /// counter, so id assignment is a pure function of the mutation history.
  std::uint64_t submit(std::string_view class_name, Time size);

  /// Cancels a previously submitted job. Returns false — and changes
  /// nothing — when `job` was never assigned or is already cancelled.
  bool cancel(std::uint64_t job);

  /// Machine count of this session.
  int machines() const { return machines_; }

  /// Jobs submitted and not cancelled.
  std::size_t jobs_alive() const { return alive_; }

  /// Classes with at least one alive job.
  std::size_t classes_alive() const;

  /// Total jobs ever submitted (== the next job id to be assigned).
  std::uint64_t submitted() const { return next_job_; }

  /// The current schedule, recomputed only when the session mutated since
  /// the last call. The reference stays valid until the next mutation.
  const SessionSnapshot& snapshot();

  /// Lifetime counters.
  const SessionStats& stats() const { return stats_; }

  /// The options this session was built with (after normalization).
  const SessionOptions& options() const { return options_; }

 private:
  struct JobRec {
    int cls = 0;
    Time size = 0;
    bool alive = false;
  };
  struct ClassRec {
    std::string name;
    std::vector<std::uint64_t> alive;  // session job ids, submission order
  };

  void refresh();  // rebuild snapshot_ from the job table

  int machines_ = 1;
  const SolverRegistry* registry_;
  SessionOptions options_;
  PortfolioSolver portfolio_;
  ResultCache memo_;

  std::vector<JobRec> jobs_;
  std::vector<ClassRec> classes_;
  std::unordered_map<std::string, int> class_index_;
  std::uint64_t next_job_ = 0;
  std::size_t alive_ = 0;
  bool dirty_ = true;

  SessionSnapshot snapshot_;
  SessionStats stats_;
};

}  // namespace msrs::engine
