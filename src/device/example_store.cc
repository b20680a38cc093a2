#include "src/device/example_store.h"

#include <algorithm>

namespace fl::device {

void InMemoryExampleStore::Add(data::Example example) {
  examples_.push_back(std::move(example));
  // Evict the oldest beyond the footprint limit.
  if (size() > options_.max_examples) {
    head_ = examples_.size() - options_.max_examples;
  }
  Compact();
}

void InMemoryExampleStore::AddBatch(std::vector<data::Example> examples) {
  for (auto& e : examples) Add(std::move(e));
}

void InMemoryExampleStore::ExpireOld(SimTime now) {
  const SimTime cutoff = now - options_.expiration;
  while (head_ < examples_.size() && examples_[head_].timestamp < cutoff) {
    ++head_;
  }
  Compact();
}

void InMemoryExampleStore::Compact() {
  if (head_ == 0 || 2 * head_ < examples_.size()) return;
  examples_.erase(examples_.begin(),
                  examples_.begin() + static_cast<std::ptrdiff_t>(head_));
  head_ = 0;
}

Result<std::vector<data::Example>> InMemoryExampleStore::Query(
    const plan::ExampleSelector& selector, SimTime now) const {
  const SimTime cutoff = now - selector.max_example_age;
  std::vector<data::Example> out;
  // Newest first; stop once the per-participation cap is reached.
  const auto oldest = examples_.rend() - static_cast<std::ptrdiff_t>(head_);
  for (auto it = examples_.rbegin(); it != oldest; ++it) {
    if (it->timestamp < cutoff) break;  // older entries only get older
    out.push_back(*it);
    if (out.size() >= selector.max_examples) break;
  }
  if (out.size() < selector.min_examples) {
    return FailedPreconditionError(
        "store '" + name_ + "' has " + std::to_string(out.size()) +
        " fresh examples; plan requires " +
        std::to_string(selector.min_examples));
  }
  return out;
}

Status ExampleStoreRegistry::Register(std::shared_ptr<ExampleStore> store) {
  FL_CHECK(store != nullptr);
  const std::string& name = store->name();
  if (!stores_.emplace(name, std::move(store)).second) {
    return AlreadyExistsError("example store '" + name + "' already registered");
  }
  return Status::Ok();
}

Result<ExampleStore*> ExampleStoreRegistry::Find(
    const std::string& name) const {
  const auto it = stores_.find(name);
  if (it == stores_.end()) {
    return NotFoundError("no example store named '" + name + "'");
  }
  return it->second.get();
}

}  // namespace fl::device
