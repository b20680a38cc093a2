#include "src/device/scheduler.h"

#include <algorithm>

namespace fl::device {

std::size_t MultiTenantScheduler::IndexOf(
    const std::string& population) const {
  std::size_t i = 0;
  while (i < entries_.size() && entries_[i].reg.population != population) ++i;
  return i;
}

Status MultiTenantScheduler::RegisterPopulation(PopulationRegistration reg) {
  if (IndexOf(reg.population) < entries_.size()) {
    return AlreadyExistsError("population '" + reg.population +
                              "' already registered");
  }
  entries_.push_back(Entry{std::move(reg), SimTime{0}});
  return Status::Ok();
}

Status MultiTenantScheduler::UnregisterPopulation(
    const std::string& population) {
  const std::size_t i = IndexOf(population);
  if (i == entries_.size()) {
    return NotFoundError("population '" + population + "' not registered");
  }
  entries_.erase(entries_.begin() + static_cast<std::ptrdiff_t>(i));
  return Status::Ok();
}

std::optional<std::string> MultiTenantScheduler::NextSession(
    SimTime now) const {
  if (running_) return std::nullopt;  // one training session at a time
  for (const Entry& entry : entries_) {
    if (entry.earliest_next <= now) return entry.reg.population;
  }
  return std::nullopt;
}

void MultiTenantScheduler::OnSessionStarted(const std::string& population,
                                            SimTime now) {
  const std::size_t i = IndexOf(population);
  if (i == entries_.size()) return;
  running_ = true;
  Entry& entry = entries_[i];
  entry.earliest_next = now + entry.reg.min_checkin_interval;
  // Rotate to the back of the worker queue.
  const auto it = entries_.begin() + static_cast<std::ptrdiff_t>(i);
  std::rotate(it, it + 1, entries_.end());
}

void MultiTenantScheduler::SetEarliestCheckin(const std::string& population,
                                              SimTime earliest) {
  const std::size_t i = IndexOf(population);
  if (i == entries_.size()) return;
  entries_[i].earliest_next = std::max(entries_[i].earliest_next, earliest);
}

std::optional<SimTime> MultiTenantScheduler::NextRunnableAt(
    SimTime now) const {
  std::optional<SimTime> best;
  for (const Entry& entry : entries_) {
    const SimTime t = std::max(entry.earliest_next, now);
    if (!best.has_value() || t < *best) best = t;
  }
  return best;
}

Result<const PopulationRegistration*> MultiTenantScheduler::Find(
    const std::string& population) const {
  const std::size_t i = IndexOf(population);
  if (i == entries_.size()) {
    return NotFoundError("population '" + population + "' not registered");
  }
  return &entries_[i].reg;
}

}  // namespace fl::device
