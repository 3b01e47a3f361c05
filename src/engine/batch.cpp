#include "engine/batch.hpp"

#include <algorithm>
#include <functional>
#include <limits>
#include <unordered_map>
#include <utility>

#include "obs/metrics.hpp"
#include "parallel/thread_pool.hpp"
#include "util/rng.hpp"

namespace msrs::engine {
namespace {

std::uint64_t fold(std::uint64_t h, std::uint64_t v) {
  std::uint64_t s = h ^ (v + 0x9e3779b97f4a7c15ULL);
  return splitmix64(s);
}

}  // namespace

PortfolioResult remap_result(const CanonicalForm& form,
                             PortfolioResult result) {
  if (!result.valid) return result;
  const Schedule& canonical = result.schedule;
  Schedule schedule(static_cast<int>(form.order.size()), canonical.scale());
  for (std::size_t i = 0; i < form.order.size(); ++i) {
    const auto position = static_cast<JobId>(i);
    if (canonical.assigned(position))
      schedule.assign(form.order[i], canonical.machine(position),
                      canonical.start(position));
  }
  result.schedule = std::move(schedule);
  return result;
}

namespace {

// One class of a shape: its sizes, sorted descending, at [first, first +
// length). `largest` is first[0] (the lowest Time for an empty class), kept
// in the record so most rank comparisons settle without reading the sizes.
struct Run {
  Time largest;
  const Time* first;
  std::int32_t length;
  std::int32_t entry;  // position of the class in the caller's listing
};

Run make_run(const Time* first, std::int32_t length, std::int32_t entry) {
  return Run{length > 0 ? *first : std::numeric_limits<Time>::min(), first,
             length, entry};
}

// Heavier shapes first: lexicographically larger size vectors, a proper
// prefix being the lighter one; equal shapes keep entry order.
bool heavier(const Run& a, const Run& b) {
  if (a.largest != b.largest) return a.largest > b.largest;
  const std::int32_t common = std::min(a.length, b.length);
  for (std::int32_t i = 1; i < common; ++i)
    if (a.first[i] != b.first[i]) return a.first[i] > b.first[i];
  if (a.length != b.length) return a.length > b.length;
  return a.entry < b.entry;
}

// Ranks `runs` heaviest first and writes the ranked shape and its key.
void rank_runs(int machines, std::size_t total, std::vector<Run>& runs,
               CanonicalShape* shape) {
  std::sort(runs.begin(), runs.end(), heavier);
  shape->machines = machines;
  shape->sizes.clear();
  shape->sizes.reserve(total);
  shape->classes.clear();
  shape->classes.reserve(runs.size());
  std::uint64_t h = fold(0x6d737273ULL /* "msrs" */,
                         static_cast<std::uint64_t>(machines));
  for (const Run& run : runs) {
    h = fold(h, 0xC1A55EEDULL);  // class separator
    for (std::int32_t i = 0; i < run.length; ++i) {
      h = fold(h, static_cast<std::uint64_t>(run.first[i]));
      shape->sizes.push_back(run.first[i]);
    }
    shape->classes.push_back(run.length);
  }
  shape->key = h;
}

// splitmix64's finalizer: a bijective 64-bit mix.
std::uint64_t mix(std::uint64_t x) {
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

void canonical_shape(const FlatInstance& flat, CanonicalShape* shape) {
  // Per-thread scratch: a shard ranks one shape after another, so after
  // the first few requests this allocates nothing.
  thread_local std::vector<Time> sorted;
  thread_local std::vector<Run> runs;
  sorted.assign(flat.sizes.begin(), flat.sizes.end());
  runs.clear();
  runs.reserve(flat.classes.size());
  Time* first = sorted.data();
  for (std::size_t c = 0; c < flat.classes.size(); ++c) {
    const std::int32_t length = flat.classes[c];
    std::sort(first, first + length, std::greater<>());
    runs.push_back(make_run(first, length, static_cast<std::int32_t>(c)));
    first += length;
  }
  rank_runs(flat.machines, sorted.size(), runs, shape);
}

std::uint64_t placement_hash(const FlatInstance& flat) {
  std::uint64_t classes = 0;
  const Time* size = flat.sizes.data();
  for (const std::int32_t length : flat.classes) {
    std::uint64_t sizes = 0;
    for (std::int32_t k = 0; k < length; ++k)
      sizes += mix(static_cast<std::uint64_t>(size[k]) + 0x9e3779b97f4a7c15ULL);
    size += length;
    classes += mix(sizes ^ 0xC1A55EEDULL);
  }
  return mix(classes + mix(static_cast<std::uint64_t>(flat.machines)));
}

CanonicalForm canonical_form(const Instance& instance) {
  // Each class's jobs by (size desc, id asc), class after class: the
  // within-class canonical order, with the sizes alongside.
  const auto n = static_cast<std::size_t>(instance.num_jobs());
  std::vector<JobId> ordered;
  ordered.reserve(n);
  std::vector<Time> sizes;
  sizes.reserve(n);
  std::vector<Run> runs;
  runs.reserve(static_cast<std::size_t>(instance.num_classes()));
  for (ClassId c = 0; c < instance.num_classes(); ++c) {
    const auto& jobs = instance.class_jobs(c);
    const auto first = ordered.insert(ordered.end(), jobs.begin(), jobs.end());
    std::sort(first, ordered.end(), [&](JobId a, JobId b) {
      if (instance.size(a) != instance.size(b))
        return instance.size(a) > instance.size(b);
      return a < b;
    });
    const std::size_t begin = sizes.size();
    for (auto j = first; j != ordered.end(); ++j)
      sizes.push_back(instance.size(*j));
    runs.push_back(make_run(sizes.data() + begin,
                            static_cast<std::int32_t>(jobs.size()), c));
  }

  CanonicalForm form;
  rank_runs(instance.machines(), n, runs, &form);
  form.order.reserve(n);
  for (const Run& run : runs) {
    const auto begin = ordered.begin() + (run.first - sizes.data());
    form.order.insert(form.order.end(), begin, begin + run.length);
  }
  return form;
}

BatchEngine::BatchEngine(const SolverRegistry& registry, BatchOptions options)
    : portfolio_(registry,
                 [&options] {
                   // The batch layer owns the parallelism: one portfolio run
                   // stays on its shard's thread.
                   PortfolioOptions po = options.portfolio;
                   po.threads = 1;
                   return po;
                 }()),
      options_(std::move(options)),
      cache_(options_.cache_capacity) {}

void BatchEngine::clear_cache() {
  cache_.clear();
  stats_.entries = 0;
}

std::vector<PortfolioResult> BatchEngine::solve(
    const std::vector<Instance>& batch) {
  const std::size_t count = batch.size();
  std::vector<PortfolioResult> results(count);
  if (count == 0) return results;
  stats_.instances += count;

  std::vector<CanonicalForm> forms(count);
  parallel_for(
      0, count, [&](std::size_t i) { forms[i] = canonical_form(batch[i]); },
      options_.threads);

  // Classify in input order: each distinct shape (with the cache off, each
  // instance) gets one slot, holding its canonical result from the
  // cross-batch cache or from a race by the shape's first instance.
  std::unordered_map<CanonicalShape, std::size_t, CanonicalShapeHash,
                     CanonicalShapeEq>
      slot_of;
  std::vector<std::size_t> slot(count);
  std::vector<PortfolioResult> canonical;
  std::vector<std::size_t> race;  // instances racing their slot's shape
  for (std::size_t i = 0; i < count; ++i) {
    slot[i] = canonical.size();
    if (options_.cache) {
      const auto [at, fresh] = slot_of.try_emplace(forms[i], slot[i]);
      slot[i] = at->second;
      if (!fresh) continue;
    }
    const ResultCache::Entry* entry =
        options_.cache ? cache_.find(forms[i]) : nullptr;
    canonical.push_back(entry != nullptr ? entry->second : PortfolioResult{});
    if (entry == nullptr) race.push_back(i);
  }

  parallel_for(
      0, race.size(),
      [&](std::size_t r) {
        canonical[slot[race[r]]] = portfolio_.solve(forms[race[r]]);
      },
      options_.threads);
  stats_.solved += race.size();
  stats_.cache_hits += count - race.size();

  parallel_for(
      0, count,
      [&](std::size_t i) {
        results[i] = remap_result(forms[i], canonical[slot[i]]);
        results[i].from_cache = true;
      },
      options_.threads);
  for (const std::size_t i : race) results[i].from_cache = false;

  if (options_.cache) {
    for (const std::size_t i : race)
      cache_.insert(std::move(forms[i]), std::move(canonical[slot[i]]));
    stats_.entries = cache_.size();
  }
  if (obs::MetricsRegistry* metrics = options_.portfolio.metrics;
      metrics != nullptr) {
    metrics->counter("batch.instances").add(count);
    metrics->counter("batch.solved").add(race.size());
    metrics->counter("batch.cache_hits").add(count - race.size());
    metrics->gauge("batch.cache_entries")
        .set(static_cast<std::int64_t>(stats_.entries));
  }
  return results;
}

}  // namespace msrs::engine
