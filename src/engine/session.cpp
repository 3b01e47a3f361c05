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

  // Materialize the compact instance: classes in creation order (empty
  // ones skipped), jobs in submission order within a class.
  snapshot_.instance = Instance();
  snapshot_.instance.set_machines(machines_);
  snapshot_.jobs.clear();
  for (const ClassRec& cls : classes_) {
    if (cls.alive.empty()) continue;
    const ClassId compact = snapshot_.instance.add_class();
    for (const std::uint64_t job : cls.alive) {
      snapshot_.instance.add_job(compact,
                                 jobs_[static_cast<std::size_t>(job)].size);
      snapshot_.jobs.push_back(job);
    }
  }

  // Produce the portfolio-equivalent result: trivial when empty, remapped
  // from the session memo when the shape was raced before, a race of the
  // canonical shape otherwise (the fallback — and, with options().repair
  // off, the oracle).
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
  CanonicalForm form = canonical_form(snapshot_.instance);
  if (options_.repair) {
    if (const ResultCache::Entry* entry = memo_.find(form)) {
      snapshot_.result = remap_result(form, entry->second);
      snapshot_.source = SnapshotSource::kRepair;
      ++stats_.repairs;
      return;
    }
  }
  PortfolioResult canonical = portfolio_.solve(form);
  snapshot_.result = remap_result(form, canonical);
  snapshot_.source = SnapshotSource::kResolve;
  ++stats_.fallbacks;
  if (options_.repair) memo_.insert(std::move(form), std::move(canonical));
}

}  // namespace msrs::engine
