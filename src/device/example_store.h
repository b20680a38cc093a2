// Example stores (Sec. 3): "Applications are responsible for making their
// data available to the FL runtime as an example store by implementing an
// API we provide. ... We recommend that applications limit the total storage
// footprint of their example stores, and automatically remove old data after
// a pre-designated expiration time."
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/data/example.h"
#include "src/plan/plan.h"

namespace fl::device {

// The API applications implement to expose data to the FL runtime.
class ExampleStore {
 public:
  virtual ~ExampleStore() = default;

  virtual const std::string& name() const = 0;

  // Returns examples matching the plan's selection criteria, newest first,
  // at most `selector.max_examples`. Fails with kFailedPrecondition when
  // fewer than `selector.min_examples` match.
  virtual Result<std::vector<data::Example>> Query(
      const plan::ExampleSelector& selector, SimTime now) const = 0;

  virtual std::size_t size() const = 0;
};

// Bounded in-memory store with automatic expiration — the stand-in for the
// paper's example SQLite store.
class InMemoryExampleStore final : public ExampleStore {
 public:
  struct Options {
    std::size_t max_examples = 10'000;       // storage footprint limit
    Duration expiration = Hours(24 * 14);    // pre-designated expiration
  };

  InMemoryExampleStore(std::string name, Options options)
      : name_(std::move(name)), options_(options) {}

  const std::string& name() const override { return name_; }

  // Appends an example; evicts oldest entries beyond the footprint limit.
  // An empty store holds no heap memory; eviction and expiry are amortised
  // O(1).
  void Add(data::Example example);
  void AddBatch(std::vector<data::Example> examples);

  // Drops entries older than the expiration window.
  void ExpireOld(SimTime now);

  Result<std::vector<data::Example>> Query(
      const plan::ExampleSelector& selector, SimTime now) const override;

  std::size_t size() const override { return examples_.size() - head_; }

 private:
  // Drops the examples before `head_` once they are at least half the
  // vector, so each example is moved O(1) times on average.
  void Compact();

  std::string name_;
  Options options_;
  // Ordered by insertion (≈ time); the live examples are [head_, end).
  std::vector<data::Example> examples_;
  std::size_t head_ = 0;
};

// Per-app registry mapping store names to stores ("registering its example
// stores", Sec. 3).
class ExampleStoreRegistry {
 public:
  Status Register(std::shared_ptr<ExampleStore> store);
  Result<ExampleStore*> Find(const std::string& name) const;
  std::size_t count() const { return stores_.size(); }

 private:
  std::map<std::string, std::shared_ptr<ExampleStore>> stores_;
};

}  // namespace fl::device
