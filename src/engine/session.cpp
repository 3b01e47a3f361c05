#include "engine/session.hpp"

#include <algorithm>
#include <cassert>

namespace msrs::engine {

const char* snapshot_source_name(SnapshotSource source) {
  switch (source) {
    case SnapshotSource::kEmpty: return "empty";
    case SnapshotSource::kRepair: return "repair";
    case SnapshotSource::kResolve: return "resolve";
  }
  return "?";
}

SessionEngine::SessionEngine(int machines, const SolverRegistry& registry,
                             SessionOptions options)
    : machines_(machines),
      registry_(&registry),
      options_([&options] {
        options.portfolio.threads = 1;  // a session lives on one shard
        return options;
      }()),
      portfolio_(registry, options_.portfolio),
      memo_(options_.cache_capacity) {
  assert(machines_ >= 1);
}

std::uint64_t SessionEngine::submit(std::string_view class_name, Time size) {
  assert(size >= 1);
  const auto [it, inserted] =
      class_index_.try_emplace(std::string(class_name),
                               static_cast<int>(classes_.size()));
  if (inserted) {
    ClassRec rec;
    rec.name = it->first;
    classes_.push_back(std::move(rec));
  }
  const int cls = it->second;
  const std::uint64_t job = next_job_++;
  jobs_.push_back(JobRec{cls, size, true});
  ClassRec& rec = classes_[static_cast<std::size_t>(cls)];
  rec.alive.push_back(job);
  rec.dirty = true;
  ++alive_;
  ++stats_.submits;
  dirty_ = true;
  return job;
}

bool SessionEngine::cancel(std::uint64_t job) {
  if (job >= next_job_) return false;
  JobRec& rec = jobs_[static_cast<std::size_t>(job)];
  if (!rec.alive) return false;
  rec.alive = false;
  ClassRec& cls = classes_[static_cast<std::size_t>(rec.cls)];
  cls.alive.erase(std::find(cls.alive.begin(), cls.alive.end(), job));
  cls.dirty = true;
  --alive_;
  ++stats_.cancels;
  dirty_ = true;
  return true;
}

std::size_t SessionEngine::classes_alive() const {
  std::size_t count = 0;
  for (const ClassRec& cls : classes_)
    if (!cls.alive.empty()) ++count;
  return count;
}

const SessionSnapshot& SessionEngine::snapshot() {
  ++stats_.snapshots;
  if (dirty_) refresh();
  return snapshot_;
}

void SessionEngine::refresh() {
  dirty_ = false;

  // The delta: re-census only the classes a mutation touched — re-sort
  // their alive jobs by (size desc, session id asc). Clean classes keep
  // their cached order (the bulk of the work the repair path avoids).
  for (ClassRec& cls : classes_) {
    if (!cls.dirty) continue;
    cls.dirty = false;
    cls.by_size = cls.alive;
    std::sort(cls.by_size.begin(), cls.by_size.end(),
              [this](std::uint64_t a, std::uint64_t b) {
                const Time pa = jobs_[static_cast<std::size_t>(a)].size;
                const Time pb = jobs_[static_cast<std::size_t>(b)].size;
                if (pa != pb) return pa > pb;
                return a < b;
              });
  }

  // Materialize the compact instance: classes in creation order (empty
  // ones skipped), jobs in submission order within a class — so within a
  // class, compact JobId order coincides with session id order, and the
  // cached (size desc, session id asc) orders transfer verbatim to the
  // canonical (size desc, JobId asc) orders canonical_form() computes.
  // Alongside, list the cached orders' sizes for rank_shape: compact class
  // order is creation order, so its entry-order tie-break is
  // canonical_form()'s class-id tie-break.
  snapshot_.instance = Instance();
  snapshot_.instance.set_machines(machines_);
  snapshot_.jobs.clear();
  std::unordered_map<std::uint64_t, JobId> compact_of;
  compact_of.reserve(alive_);
  std::vector<std::size_t> live;  // indices into classes_, creation order
  std::vector<Time> sizes;        // live classes' cached orders, flat
  sizes.reserve(alive_);
  std::vector<std::int32_t> lengths;
  for (std::size_t c = 0; c < classes_.size(); ++c) {
    const ClassRec& cls = classes_[c];
    if (cls.alive.empty()) continue;
    live.push_back(c);
    const ClassId compact = snapshot_.instance.add_class();
    for (const std::uint64_t job : cls.alive) {
      const JobId id = snapshot_.instance.add_job(
          compact, jobs_[static_cast<std::size_t>(job)].size);
      compact_of.emplace(job, id);
      snapshot_.jobs.push_back(job);
    }
    for (const std::uint64_t job : cls.by_size)
      sizes.push_back(jobs_[static_cast<std::size_t>(job)].size);
    lengths.push_back(static_cast<std::int32_t>(cls.by_size.size()));
  }

  CanonicalForm& form = snapshot_.form;
  form.order.clear();
  form.order.reserve(alive_);
  for (const std::int32_t i : rank_shape(machines_, sizes, lengths, &form))
    for (const std::uint64_t job :
         classes_[live[static_cast<std::size_t>(i)]].by_size)
      form.order.push_back(compact_of.at(job));

  // Produce the portfolio-equivalent result: trivial when empty, remapped
  // from the session memo when the shape was solved before, full re-solve
  // otherwise (the fallback — and, with options().repair off, the oracle).
  if (alive_ == 0) {
    snapshot_.result = PortfolioResult{};
    snapshot_.result.schedule = Schedule(0, 1);
    snapshot_.result.solver = "empty";
    snapshot_.result.ratio_vs_bound = 1.0;
    snapshot_.result.valid = true;
    snapshot_.source = SnapshotSource::kEmpty;
    ++stats_.repairs;
    return;
  }
  if (options_.repair) {
    if (const ResultCache::Entry* entry = memo_.find(form)) {
      snapshot_.result = remap_result(entry->first, entry->second, form);
      snapshot_.source = SnapshotSource::kRepair;
      ++stats_.repairs;
      return;
    }
  }
  snapshot_.result = portfolio_.solve(snapshot_.instance);
  snapshot_.source = SnapshotSource::kResolve;
  ++stats_.fallbacks;
  if (options_.repair) memo_.insert(form, snapshot_.result);
}

}  // namespace msrs::engine
