#include "engine/batch.hpp"

#include <algorithm>
#include <functional>
#include <limits>
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

PortfolioResult remap_result(const CanonicalForm& src_form,
                             const PortfolioResult& src_result,
                             const CanonicalForm& dst_form) {
  PortfolioResult out = src_result;
  out.from_cache = true;
  const Schedule& src = src_result.schedule;
  Schedule dst(static_cast<int>(dst_form.order.size()), src.scale());
  for (std::size_t i = 0; i < dst_form.order.size(); ++i) {
    const JobId from = src_form.order[i];
    if (src.assigned(from))
      dst.assign(dst_form.order[i], src.machine(from), src.start(from));
  }
  out.schedule = std::move(dst);
  return out;
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

std::vector<std::int32_t> rank_shape(int machines, std::span<const Time> sizes,
                                     std::span<const std::int32_t> lengths,
                                     CanonicalShape* shape) {
  std::vector<Run> runs;
  runs.reserve(lengths.size());
  const Time* first = sizes.data();
  for (std::size_t c = 0; c < lengths.size(); ++c) {
    runs.push_back(make_run(first, lengths[c], static_cast<std::int32_t>(c)));
    first += lengths[c];
  }
  rank_runs(machines, sizes.size(), runs, shape);
  std::vector<std::int32_t> rank;
  rank.reserve(runs.size());
  for (const Run& run : runs) rank.push_back(run.entry);
  return rank;
}

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
  // within-class canonical order. Class c spans by_size[begin[c],
  // begin[c + 1]).
  const auto n = static_cast<std::size_t>(instance.num_jobs());
  const auto num_classes = static_cast<std::size_t>(instance.num_classes());
  std::vector<JobId> by_size;
  by_size.reserve(n);
  std::vector<std::int32_t> lengths;
  lengths.reserve(num_classes);
  std::vector<std::ptrdiff_t> begin;
  begin.reserve(num_classes + 1);
  for (ClassId c = 0; c < instance.num_classes(); ++c) {
    const auto& jobs = instance.class_jobs(c);
    begin.push_back(static_cast<std::ptrdiff_t>(by_size.size()));
    const auto first = by_size.insert(by_size.end(), jobs.begin(), jobs.end());
    std::sort(first, by_size.end(), [&](JobId a, JobId b) {
      if (instance.size(a) != instance.size(b))
        return instance.size(a) > instance.size(b);
      return a < b;
    });
    lengths.push_back(static_cast<std::int32_t>(jobs.size()));
  }
  begin.push_back(static_cast<std::ptrdiff_t>(by_size.size()));
  std::vector<Time> sizes;
  sizes.reserve(n);
  for (const JobId j : by_size) sizes.push_back(instance.size(j));

  CanonicalForm form;
  form.order.reserve(n);
  for (const std::int32_t c :
       rank_shape(instance.machines(), sizes, lengths, &form)) {
    const auto at = static_cast<std::size_t>(c);
    form.order.insert(form.order.end(), by_size.begin() + begin[at],
                      by_size.begin() + begin[at + 1]);
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
  const std::size_t hits_before = stats_.cache_hits;

  std::vector<CanonicalForm> forms(count);
  parallel_for(
      0, count, [&](std::size_t i) { forms[i] = canonical_form(batch[i]); },
      options_.threads);

  // Classify in input order: serve prior-batch cache entries immediately,
  // pick the first occurrence of each new shape as its representative.
  constexpr std::size_t kFromCache = static_cast<std::size_t>(-1);
  std::vector<std::size_t> source(count);  // rep index, or kFromCache
  std::vector<std::size_t> reps;
  std::unordered_map<std::uint64_t, std::vector<std::size_t>> first_of;
  for (std::size_t i = 0; i < count; ++i) {
    if (!options_.cache) {
      source[i] = i;
      reps.push_back(i);
      continue;
    }
    if (const ResultCache::Entry* entry = cache_.find(forms[i])) {
      source[i] = kFromCache;
      results[i] = remap_result(entry->first, entry->second, forms[i]);
      ++stats_.cache_hits;
      continue;
    }
    std::size_t rep = i;
    for (std::size_t j : first_of[forms[i].key])
      if (forms[j].same_shape(forms[i])) {
        rep = j;
        break;
      }
    source[i] = rep;
    if (rep == i) {
      first_of[forms[i].key].push_back(i);
      reps.push_back(i);
    } else {
      ++stats_.cache_hits;
    }
  }

  parallel_for(
      0, reps.size(),
      [&](std::size_t r) {
        const std::size_t i = reps[r];
        results[i] = portfolio_.solve(batch[i]);
      },
      options_.threads);
  stats_.solved += reps.size();

  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t rep = source[i];
    if (rep == kFromCache || rep == i) continue;
    results[i] = remap_result(forms[rep], results[rep], forms[i]);
  }

  if (options_.cache) {
    for (std::size_t i : reps) cache_.insert(forms[i], results[i]);
    stats_.entries = cache_.size();
  }
  if (obs::MetricsRegistry* metrics = options_.portfolio.metrics;
      metrics != nullptr) {
    metrics->counter("batch.instances").add(count);
    metrics->counter("batch.solved").add(reps.size());
    metrics->counter("batch.cache_hits").add(stats_.cache_hits - hits_before);
    metrics->gauge("batch.cache_entries")
        .set(static_cast<std::int64_t>(stats_.entries));
  }
  return results;
}

}  // namespace msrs::engine
