#include "engine/batch.hpp"

#include <algorithm>
#include <functional>
#include <numeric>
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

std::vector<std::int32_t> rank_shape(int machines, std::span<const Time> sizes,
                                     std::span<const std::int32_t> lengths,
                                     CanonicalShape* shape) {
  const std::size_t count = lengths.size();
  std::vector<std::size_t> begin(count + 1, 0);
  for (std::size_t c = 0; c < count; ++c)
    begin[c + 1] = begin[c] + static_cast<std::size_t>(lengths[c]);
  const auto segment = [&](std::int32_t c) {
    const auto at = static_cast<std::size_t>(c);
    return sizes.subspan(begin[at], begin[at + 1] - begin[at]);
  };

  std::vector<std::int32_t> rank(count);
  std::iota(rank.begin(), rank.end(), 0);
  std::sort(rank.begin(), rank.end(), [&](std::int32_t a, std::int32_t b) {
    // Heavier shapes first: lexicographically larger size vectors, a
    // proper prefix being the lighter one; equal shapes keep entry order.
    const std::span<const Time> sa = segment(a);
    const std::span<const Time> sb = segment(b);
    const std::size_t common = std::min(sa.size(), sb.size());
    for (std::size_t i = 0; i < common; ++i)
      if (sa[i] != sb[i]) return sa[i] > sb[i];
    if (sa.size() != sb.size()) return sa.size() > sb.size();
    return a < b;
  });

  shape->machines = machines;
  shape->sizes.clear();
  shape->sizes.reserve(sizes.size());
  shape->classes.clear();
  shape->classes.reserve(count);
  std::uint64_t h = fold(0x6d737273ULL /* "msrs" */,
                         static_cast<std::uint64_t>(machines));
  for (const std::int32_t c : rank) {
    h = fold(h, 0xC1A55EEDULL);  // class separator
    for (const Time p : segment(c)) {
      h = fold(h, static_cast<std::uint64_t>(p));
      shape->sizes.push_back(p);
    }
    shape->classes.push_back(lengths[static_cast<std::size_t>(c)]);
  }
  shape->key = h;
  return rank;
}

CanonicalShape canonical_shape(const FlatInstance& flat) {
  std::vector<Time> sorted = flat.sizes;
  auto first = sorted.begin();
  for (const std::int32_t length : flat.classes) {
    std::sort(first, first + length, std::greater<>());
    first += length;
  }
  CanonicalShape shape;
  rank_shape(flat.machines, sorted, flat.classes, &shape);
  return shape;
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
