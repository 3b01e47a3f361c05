#include "core/instance.hpp"

#include <algorithm>
#include <cstdio>

namespace msrs {

Instance::Instance(int machines,
                   const std::vector<std::vector<Time>>& class_sizes) {
  set_machines(machines);
  for (const auto& sizes : class_sizes) add_class(sizes);
}

Instance::Instance(int machines, std::span<const Time> sizes,
                   std::span<const std::int32_t> class_lengths)
    : machines_(machines) {
  size_.reserve(sizes.size());
  cls_.reserve(sizes.size());
  members_.reserve(class_lengths.size());
  load_.reserve(class_lengths.size());
  max_.reserve(class_lengths.size());
  for (const std::int32_t length : class_lengths) {
    const ClassId c = add_class();
    members_.back().reserve(static_cast<std::size_t>(length));
    for (const Time p : sizes.first(static_cast<std::size_t>(length)))
      add_job(c, p);
    sizes = sizes.subspan(static_cast<std::size_t>(length));
  }
}

void Instance::set_machines(int machines) { machines_ = machines; }

ClassId Instance::add_class() {
  members_.emplace_back();
  load_.push_back(0);
  max_.push_back(0);
  return static_cast<ClassId>(members_.size() - 1);
}

JobId Instance::add_job(ClassId c, Time size) {
  const auto job = static_cast<JobId>(size_.size());
  size_.push_back(size);
  cls_.push_back(c);
  members_[static_cast<std::size_t>(c)].push_back(job);
  load_[static_cast<std::size_t>(c)] += size;
  max_[static_cast<std::size_t>(c)] =
      std::max(max_[static_cast<std::size_t>(c)], size);
  total_ += size;
  max_size_ = std::max(max_size_, size);
  return job;
}

ClassId Instance::add_class(std::span<const Time> sizes) {
  const ClassId c = add_class();
  for (Time p : sizes) add_job(c, p);
  return c;
}

std::string Instance::check() const {
  if (machines_ < 1) return "machines must be >= 1";
  for (std::size_t c = 0; c < members_.size(); ++c)
    if (members_[c].empty())
      return "class " + std::to_string(c) + " is empty";
  for (std::size_t j = 0; j < size_.size(); ++j)
    if (size_[j] < 1)
      return "job " + std::to_string(j) + " has size < 1";
  return {};
}

std::string Instance::summary() const {
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "n=%d m=%d classes=%d p(J)=%lld max_p=%lld",
                num_jobs(), machines(), num_classes(),
                static_cast<long long>(total_),
                static_cast<long long>(max_size_));
  return buf;
}

}  // namespace msrs
