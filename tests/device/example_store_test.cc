#include "src/device/example_store.h"

#include <gtest/gtest.h>

#include <deque>

#include "src/common/rng.h"

namespace fl::device {
namespace {

data::Example MakeExample(float label, SimTime t) {
  data::Example e;
  e.features = {label, label};
  e.label = label;
  e.timestamp = t;
  return e;
}

TEST(ExampleStoreTest, AddAndQuery) {
  InMemoryExampleStore store("s", {});
  for (int i = 0; i < 10; ++i) {
    store.Add(MakeExample(static_cast<float>(i), SimTime{i * 1000}));
  }
  EXPECT_EQ(store.size(), 10u);
  plan::ExampleSelector sel;
  sel.min_examples = 1;
  sel.max_examples = 100;
  const auto got = store.Query(sel, SimTime{10'000});
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->size(), 10u);
  // Newest first.
  EXPECT_EQ((*got)[0].label, 9.0f);
}

TEST(ExampleStoreTest, MaxExamplesCapsResult) {
  InMemoryExampleStore store("s", {});
  for (int i = 0; i < 50; ++i) {
    store.Add(MakeExample(static_cast<float>(i), SimTime{i}));
  }
  plan::ExampleSelector sel;
  sel.max_examples = 7;
  const auto got = store.Query(sel, SimTime{100});
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->size(), 7u);
  EXPECT_EQ((*got)[0].label, 49.0f);  // the newest ones
}

TEST(ExampleStoreTest, MaxAgeFiltersStale) {
  InMemoryExampleStore store("s", {});
  store.Add(MakeExample(1.0f, SimTime{0}));
  store.Add(MakeExample(2.0f, SimTime{Hours(10).millis}));
  plan::ExampleSelector sel;
  sel.max_example_age = Hours(5);
  sel.min_examples = 1;
  const auto got = store.Query(sel, SimTime{Hours(12).millis});
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->size(), 1u);
  EXPECT_EQ((*got)[0].label, 2.0f);
}

TEST(ExampleStoreTest, MinExamplesEnforced) {
  InMemoryExampleStore store("s", {});
  store.Add(MakeExample(1.0f, SimTime{0}));
  plan::ExampleSelector sel;
  sel.min_examples = 5;
  const auto got = store.Query(sel, SimTime{100});
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), ErrorCode::kFailedPrecondition);
}

TEST(ExampleStoreTest, FootprintLimitEvictsOldest) {
  InMemoryExampleStore::Options opts;
  opts.max_examples = 5;
  InMemoryExampleStore store("s", opts);
  for (int i = 0; i < 10; ++i) {
    store.Add(MakeExample(static_cast<float>(i), SimTime{i}));
  }
  EXPECT_EQ(store.size(), 5u);
  plan::ExampleSelector sel;
  const auto got = store.Query(sel, SimTime{100});
  ASSERT_TRUE(got.ok());
  // Oldest survivors are 5..9.
  for (const auto& e : *got) EXPECT_GE(e.label, 5.0f);
}

TEST(ExampleStoreTest, ExpireOldRemovesByAge) {
  InMemoryExampleStore::Options opts;
  opts.expiration = Hours(24);
  InMemoryExampleStore store("s", opts);
  store.Add(MakeExample(1.0f, SimTime{0}));
  store.Add(MakeExample(2.0f, SimTime{Hours(30).millis}));
  store.ExpireOld(SimTime{Hours(40).millis});
  EXPECT_EQ(store.size(), 1u);
}

TEST(ExampleStoreTest, AddBatch) {
  InMemoryExampleStore store("s", {});
  store.AddBatch({MakeExample(1, SimTime{1}), MakeExample(2, SimTime{2})});
  EXPECT_EQ(store.size(), 2u);
}

TEST(ExampleStoreTest, MatchesDequeReferenceUnderRandomOps) {
  // Differential test: random Add/AddBatch/ExpireOld/Query against the
  // obvious deque implementation. A small footprint limit and a short
  // expiration make eviction and expiry interleave.
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    InMemoryExampleStore::Options opts;
    opts.max_examples = 1 + rng.UniformInt(12);
    opts.expiration =
        Millis(static_cast<std::int64_t>(50 + rng.UniformInt(200)));
    InMemoryExampleStore store("s", opts);
    std::deque<data::Example> ref;
    auto ref_add = [&](data::Example e) {
      ref.push_back(std::move(e));
      while (ref.size() > opts.max_examples) ref.pop_front();
    };
    std::int64_t now = 0;
    int next_label = 0;
    auto next_example = [&] {
      now += static_cast<std::int64_t>(rng.UniformInt(20));
      return MakeExample(static_cast<float>(next_label++), SimTime{now});
    };
    for (int op = 0; op < 400; ++op) {
      switch (rng.UniformInt(4)) {
        case 0: {
          data::Example e = next_example();
          ref_add(e);
          store.Add(std::move(e));
          break;
        }
        case 1: {
          std::vector<data::Example> batch(
              rng.UniformInt(2 * opts.max_examples));
          for (auto& e : batch) {
            e = next_example();
            ref_add(e);
          }
          store.AddBatch(std::move(batch));
          break;
        }
        case 2: {
          now += static_cast<std::int64_t>(rng.UniformInt(100));
          const SimTime cutoff = SimTime{now} - opts.expiration;
          while (!ref.empty() && ref.front().timestamp < cutoff) {
            ref.pop_front();
          }
          store.ExpireOld(SimTime{now});
          break;
        }
        default: {
          plan::ExampleSelector sel;
          sel.min_examples = rng.UniformInt(4);
          sel.max_examples = 1 + rng.UniformInt(16);
          sel.max_example_age =
              Millis(static_cast<std::int64_t>(rng.UniformInt(300)));
          std::vector<data::Example> want;
          const SimTime cutoff = SimTime{now} - sel.max_example_age;
          for (auto it = ref.rbegin(); it != ref.rend(); ++it) {
            if (it->timestamp < cutoff) break;
            want.push_back(*it);
            if (want.size() >= sel.max_examples) break;
          }
          const auto got = store.Query(sel, SimTime{now});
          ASSERT_EQ(got.ok(), want.size() >= sel.min_examples)
              << "seed " << seed << " op " << op;
          if (!got.ok()) break;
          ASSERT_EQ(got->size(), want.size());
          for (std::size_t i = 0; i < want.size(); ++i) {
            EXPECT_EQ((*got)[i].label, want[i].label);
            EXPECT_EQ((*got)[i].timestamp.millis, want[i].timestamp.millis);
          }
        }
      }
      ASSERT_EQ(store.size(), ref.size()) << "seed " << seed << " op " << op;
    }
  }
}

TEST(RegistryTest, RegisterAndFind) {
  ExampleStoreRegistry registry;
  auto store = std::make_shared<InMemoryExampleStore>(
      "keyboard", InMemoryExampleStore::Options{});
  ASSERT_TRUE(registry.Register(store).ok());
  EXPECT_EQ(registry.count(), 1u);
  const auto found = registry.Find("keyboard");
  ASSERT_TRUE(found.ok());
  EXPECT_EQ((*found)->name(), "keyboard");
  EXPECT_EQ(registry.Find("nope").status().code(), ErrorCode::kNotFound);
}

TEST(RegistryTest, DuplicateRegistrationRejected) {
  ExampleStoreRegistry registry;
  auto a = std::make_shared<InMemoryExampleStore>(
      "s", InMemoryExampleStore::Options{});
  auto b = std::make_shared<InMemoryExampleStore>(
      "s", InMemoryExampleStore::Options{});
  ASSERT_TRUE(registry.Register(a).ok());
  EXPECT_EQ(registry.Register(b).code(), ErrorCode::kAlreadyExists);
}

}  // namespace
}  // namespace fl::device
