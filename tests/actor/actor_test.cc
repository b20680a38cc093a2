#include "src/actor/actor.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace fl::actor {
namespace {

struct Ping { int value = 0; };
struct AskForward { ActorId to; int value = 0; };

class Recorder final : public Actor {
 public:
  void OnMessage(const Envelope& env) override {
    if (const auto* p = std::any_cast<Ping>(&env.payload)) {
      values.push_back(p->value);
    } else if (const auto* f = std::any_cast<AskForward>(&env.payload)) {
      Send(f->to, Ping{f->value});
    } else if (const auto* d = std::any_cast<DeathNotice>(&env.payload)) {
      deaths.push_back(*d);
    }
  }
  void OnStart() override { started = true; }
  void OnStop() override { stopped = true; }

  std::vector<int> values;
  std::vector<DeathNotice> deaths;
  bool started = false;
  bool stopped = false;
};

struct Fixture : public ::testing::Test {
  sim::EventQueue queue;
  SimContext context{queue};
  ActorSystem system{context};
};

using ActorTest = Fixture;

TEST_F(ActorTest, SpawnStartsActor) {
  const ActorId id = system.Spawn<Recorder>("rec");
  EXPECT_TRUE(system.IsAlive(id));
  EXPECT_TRUE(system.Get<Recorder>(id)->started);
  EXPECT_EQ(system.live_actors(), 1u);
}

TEST_F(ActorTest, MessagesDeliveredInOrder) {
  const ActorId id = system.Spawn<Recorder>("rec");
  for (int i = 0; i < 5; ++i) {
    system.Send(ActorId{}, id, Ping{i});
  }
  queue.Run();
  EXPECT_EQ(system.Get<Recorder>(id)->values,
            (std::vector<int>{0, 1, 2, 3, 4}));
  EXPECT_EQ(system.messages_delivered(), 5u);
}

TEST_F(ActorTest, ActorsCanSendToEachOther) {
  const ActorId a = system.Spawn<Recorder>("a");
  const ActorId b = system.Spawn<Recorder>("b");
  system.Send(ActorId{}, a, AskForward{b, 42});
  queue.Run();
  EXPECT_EQ(system.Get<Recorder>(b)->values, (std::vector<int>{42}));
}

TEST_F(ActorTest, SendAfterDelaysDelivery) {
  const ActorId id = system.Spawn<Recorder>("rec");
  system.SendAfter(Seconds(5), ActorId{}, id, Ping{1});
  queue.RunUntil(SimTime{4000});
  EXPECT_TRUE(system.Get<Recorder>(id)->values.empty());
  queue.RunUntil(SimTime{6000});
  EXPECT_EQ(system.Get<Recorder>(id)->values.size(), 1u);
}

TEST_F(ActorTest, SendAfterClosureFitsTheTaskBuffer) {
  // An envelope is its routing ids and its payload, nothing more.
  EXPECT_EQ(sizeof(Envelope), 2 * sizeof(ActorId) + sizeof(std::any));
  const ActorId id = system.Spawn<Recorder>("rec");
  const std::uint64_t before = queue.stats().heap_callbacks;
  system.SendAfter(Seconds(5), ActorId{}, id, Ping{1});
  queue.Run();
  // Neither the timer nor the drain it posts spills to the heap.
  EXPECT_EQ(queue.stats().heap_callbacks, before);
  EXPECT_EQ(system.Get<Recorder>(id)->values, (std::vector<int>{1}));
}

TEST_F(ActorTest, SendToDeadActorIsDropped) {
  const ActorId id = system.Spawn<Recorder>("rec");
  system.Stop(id);
  system.Send(ActorId{}, id, Ping{1});
  queue.Run();  // no crash, message dropped
  EXPECT_FALSE(system.IsAlive(id));
  EXPECT_EQ(system.messages_delivered(), 0u);
}

class FlagOnStop final : public Actor {
 public:
  explicit FlagOnStop(bool* flag) : flag_(flag) {}
  void OnMessage(const Envelope&) override {}
  void OnStop() override { *flag_ = true; }

 private:
  bool* flag_;
};

TEST_F(ActorTest, StopRunsOnStop) {
  bool stopped = false;
  const ActorId a = system.Spawn<FlagOnStop>("a", &stopped);
  system.Stop(a);
  EXPECT_TRUE(stopped);
}

TEST_F(ActorTest, CrashSkipsOnStop) {
  bool stopped = false;
  const ActorId a = system.Spawn<FlagOnStop>("a", &stopped);
  system.Crash(a);
  EXPECT_FALSE(stopped);
  EXPECT_FALSE(system.IsAlive(a));
}

TEST_F(ActorTest, WatcherNotifiedOnCrash) {
  const ActorId watcher = system.Spawn<Recorder>("watcher");
  const ActorId watched = system.Spawn<Recorder>("watched");
  system.Watch(watched, watcher);
  system.Crash(watched);
  queue.Run();
  auto* w = system.Get<Recorder>(watcher);
  ASSERT_EQ(w->deaths.size(), 1u);
  EXPECT_EQ(w->deaths[0].died, watched);
  EXPECT_TRUE(w->deaths[0].crashed);
}

TEST_F(ActorTest, WatcherNotifiedOnCleanStop) {
  const ActorId watcher = system.Spawn<Recorder>("watcher");
  const ActorId watched = system.Spawn<Recorder>("watched");
  system.Watch(watched, watcher);
  system.Stop(watched);
  queue.Run();
  auto* w = system.Get<Recorder>(watcher);
  ASSERT_EQ(w->deaths.size(), 1u);
  EXPECT_FALSE(w->deaths[0].crashed);
}

TEST_F(ActorTest, WatchingDeadActorNotifiesImmediately) {
  const ActorId watcher = system.Spawn<Recorder>("watcher");
  const ActorId watched = system.Spawn<Recorder>("watched");
  system.Crash(watched);
  system.Watch(watched, watcher);
  queue.Run();
  EXPECT_EQ(system.Get<Recorder>(watcher)->deaths.size(), 1u);
}

TEST_F(ActorTest, CrashDropsQueuedMessages) {
  const ActorId id = system.Spawn<Recorder>("rec");
  system.Send(ActorId{}, id, Ping{1});
  system.Crash(id);
  queue.Run();
  EXPECT_EQ(system.messages_delivered(), 0u);
}

TEST_F(ActorTest, EphemeralChurn) {
  // Spawn-and-stop many fine-grained actors (Sec. 4.2's ephemeral
  // per-round aggregators).
  for (int round = 0; round < 100; ++round) {
    const ActorId id = system.Spawn<Recorder>("agg");
    system.Send(ActorId{}, id, Ping{round});
    queue.Run();
    system.Stop(id);
  }
  EXPECT_EQ(system.live_actors(), 0u);
  EXPECT_EQ(system.messages_delivered(), 100u);
}

TEST_F(ActorTest, SelfSendProcessesSequentially) {
  class Counter final : public Actor {
   public:
    void OnMessage(const Envelope& env) override {
      const int v = std::any_cast<int>(env.payload);
      seen.push_back(v);
      if (v < 5) Send(id(), v + 1);
    }
    std::vector<int> seen;
  };
  const ActorId id = system.Spawn<Counter>("counter");
  system.Send(ActorId{}, id, 0);
  queue.Run();
  EXPECT_EQ(system.Get<Counter>(id)->seen,
            (std::vector<int>{0, 1, 2, 3, 4, 5}));
}

}  // namespace
}  // namespace fl::actor
