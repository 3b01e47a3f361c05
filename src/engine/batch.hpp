/// \file
/// BatchEngine: the throughput layer — shards an instance stream across the
/// thread pool and serves repeated shapes from a canonical-shape cache.
///
/// Canonical shape: the instance listed flat with each class's sizes
/// descending and the classes ranked heavier first (CanonicalShape). Two
/// instances with the same shape are identical up to renaming jobs and
/// classes. PortfolioSolver races only the canonical instance a shape
/// builds, so every result here is in canonical labels until remap_result
/// maps it to one instance's jobs through that instance's CanonicalForm.
///
/// Determinism: each distinct shape of a batch gets one slot, in input
/// order of first occurrence, holding its canonical result from the
/// cross-batch cache or from one race. Every instance remaps its slot's
/// result, so the output is identical for any thread count — only
/// wall-clock time changes.
///
/// The cross-batch cache is a bounded LRU (util/lru.hpp, default 65536
/// shapes, `BatchOptions::cache_capacity`); long sweeps and long-lived
/// services stay within a fixed memory budget, with hit/miss/eviction
/// counters exposed via cache_stats(). Lookups and insertions happen in
/// input order on the coordinating thread, so eviction order — and thus
/// every output — remains independent of the thread count.
#pragma once

#include <cstdint>
#include <vector>

#include "core/instance.hpp"
#include "core/instance_io.hpp"
#include "engine/portfolio.hpp"
#include "engine/registry.hpp"
#include "util/lru.hpp"

namespace msrs::engine {

/// The canonical shape of an instance: the instance listed flat in
/// canonical order, plus its key. Each class's sizes run descending;
/// classes are ranked heavier size vector first (lexicographically
/// larger), ties in entry order. Every relabelling of an instance has the
/// same shape, and `build()` is the canonical instance the portfolio
/// races: canonical position i is its JobId i.
struct CanonicalShape : FlatInstance {
  std::uint64_t key = 0;  ///< hash of (machines, ranked classes)

  /// True when the shapes (machines + ranked classes) coincide.
  bool same_shape(const CanonicalShape& other) const {
    return key == other.key && machines == other.machines &&
           classes == other.classes && sizes == other.sizes;
  }
};

/// Canonical form of an instance: its shape plus the job bijection
/// realizing it.
struct CanonicalForm : CanonicalShape {
  std::vector<JobId> order;  ///< order[i]: the job at canonical position i
};

/// The canonical shape of a flat instance listing (O(n log n), no Instance
/// built), written into `*shape` reusing its buffers: the serving layer's
/// cache key, computed on the shard that owns the cache, which keeps one
/// lookup shape and ranks every cacheable solve into it without allocating.
void canonical_shape(const FlatInstance& flat, CanonicalShape* shape);

/// The shard placement of a flat instance listing: a commutative sum over
/// the classes of a commutative sum over each class's sizes, mixed with m.
/// It depends only on m and the multiset of class size-multisets, so every
/// relabelling of a shape (classes and the jobs inside each class in any
/// order) gets the same value. O(n), no sort and no allocation: the serving
/// layer routes a solve by it, so all relabellings of a shape meet on one
/// shard, which then computes the canonical_shape() cache key itself.
/// Distinct shapes may collide; that only puts them on one shard.
std::uint64_t placement_hash(const FlatInstance& flat);

/// Computes the canonical form of an instance (O(n log n)).
CanonicalForm canonical_form(const Instance& instance);

/// Maps a result in canonical labels (solved on `form`'s canonical
/// instance) onto the instance behind `form`: canonical position i goes to
/// job `form.order[i]`. A result without a valid schedule passes through.
PortfolioResult remap_result(const CanonicalForm& form,
                             PortfolioResult result);

/// Hashes a canonical-shape cache key: the precomputed shape hash.
struct CanonicalShapeHash {
  /// The shape's `key` field, truncated to size_t.
  std::size_t operator()(const CanonicalShape& shape) const {
    return static_cast<std::size_t>(shape.key);
  }
};

/// Canonical-shape cache-key equivalence.
struct CanonicalShapeEq {
  /// True when the shapes coincide.
  bool operator()(const CanonicalShape& a, const CanonicalShape& b) const {
    return a.same_shape(b);
  }
};

/// Bounded LRU from canonical shape to its result in canonical labels.
/// Shared by BatchEngine and the session memo.
using ResultCache =
    LruCache<CanonicalShape, PortfolioResult, CanonicalShapeHash,
             CanonicalShapeEq>;

/// Options of a BatchEngine.
struct BatchOptions {
  unsigned threads = 0;  ///< sharding width; 0 = hardware concurrency
  bool cache = true;     ///< canonical-form dedup + cross-batch memory
  /// Cross-batch cache bound, in resident entries (least recently used
  /// shape evicted first); 0 opts into the historical unbounded behavior.
  std::size_t cache_capacity = 1 << 16;
  PortfolioOptions portfolio;  ///< per-instance options (raced sequentially;
                               ///< the batch layer owns the parallelism)
};

/// Counters accumulated across an engine's lifetime.
struct BatchStats {
  std::size_t instances = 0;   ///< total instances seen
  std::size_t solved = 0;      ///< portfolio runs actually executed
  std::size_t cache_hits = 0;  ///< results served without their own race
  std::size_t entries = 0;     ///< resident cache entries
};

/// Sharded, cached batch solver (see file comment for the contract).
class BatchEngine {
 public:
  /// Binds the engine to a registry (not owned; must outlive this).
  explicit BatchEngine(
      const SolverRegistry& registry = SolverRegistry::default_registry(),
      BatchOptions options = {});

  /// Solves the batch; results[i] corresponds to batch[i]. Not thread-safe
  /// (one engine per serving thread, or external synchronization).
  std::vector<PortfolioResult> solve(const std::vector<Instance>& batch);

  /// Lifetime counters (monotone across solve() calls).
  const BatchStats& stats() const { return stats_; }

  /// Counters of the bounded cross-batch result cache (hit/miss/eviction).
  const LruStats& cache_stats() const { return cache_.stats(); }

  /// Drops every resident cache entry (stats().entries becomes 0).
  void clear_cache();

 private:
  PortfolioSolver portfolio_;
  BatchOptions options_;
  BatchStats stats_;
  ResultCache cache_;
};

}  // namespace msrs::engine
