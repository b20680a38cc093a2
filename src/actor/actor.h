// Actor runtime — the concurrency substrate of the FL server (Sec. 4.1):
// "Actors are universal primitives of concurrent computation which use
// message passing as the sole communication mechanism. Each actor handles a
// stream of messages/events strictly sequentially."
//
// Properties reproduced from the paper:
//  * strictly-sequential per-actor message processing (a mailbox drained by
//    at most one execution at a time, on any ExecutionContext);
//  * dynamic creation of fine-grained ephemeral actors (Master Aggregators
//    and Aggregators live only for one FL task / round, Sec. 4.2);
//  * all state in memory — killing an actor loses its state, which is
//    exactly the failure model Sec. 4.4 analyses;
//  * death watches so peers can observe failures and respawn (Selector layer
//    detecting Coordinator death).
#pragma once

#include <any>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/actor/context.h"
#include "src/common/id.h"
#include "src/common/status.h"
#include "src/profiler/profiler.h"
#include "src/telemetry/metrics.h"

namespace fl::actor {

class ActorSystem;

struct Envelope {
  ActorId from;
  ActorId to;
  std::any payload;
};

// Base class for all actors. Subclasses implement OnMessage; handlers run
// strictly sequentially per actor instance.
class Actor {
 public:
  virtual ~Actor() = default;

  ActorId id() const { return id_; }
  const std::string& name() const { return name_; }
  ActorSystem& system() const { return *system_; }

  // Invoked once after registration, before any message.
  virtual void OnStart() {}
  // Invoked on a clean stop (not on Crash).
  virtual void OnStop() {}
  virtual void OnMessage(const Envelope& env) = 0;

 protected:
  // Convenience wrappers (defined in actor.cc to avoid circular includes).
  void Send(ActorId to, std::any payload);
  void SendAfter(Duration d, ActorId to, std::any payload);
  SimTime Now() const;

 private:
  friend class ActorSystem;
  ActorId id_;
  std::string name_;
  ActorSystem* system_ = nullptr;
};

// Message delivered to watchers when a watched actor terminates.
struct DeathNotice {
  ActorId died;
  bool crashed = false;  // true for Crash(), false for Stop()
};

// Owns actors and routes messages between them on an ExecutionContext.
class ActorSystem {
 public:
  explicit ActorSystem(ExecutionContext& context) : context_(context) {}

  // Creates, registers and starts an actor. The system owns it.
  template <typename T, typename... Args>
  ActorId Spawn(std::string name, Args&&... args) {
    auto actor = std::make_unique<T>(std::forward<Args>(args)...);
    return Register(std::move(actor), std::move(name));
  }

  // Sends a message; silently dropped if `to` is dead (the paper's protocol
  // treats lost actors as lost devices/rounds, not as errors).
  void Send(ActorId from, ActorId to, std::any payload);
  void SendAfter(Duration d, ActorId from, ActorId to, std::any payload);

  // Graceful stop: runs OnStop, then notifies watchers.
  void Stop(ActorId id);
  // Simulated failure: no OnStop, state dropped, watchers see crashed=true.
  void Crash(ActorId id);

  // `watcher` receives a DeathNotice when `watched` terminates.
  void Watch(ActorId watched, ActorId watcher);

  bool IsAlive(ActorId id) const;
  std::size_t live_actors() const;
  std::uint64_t messages_delivered() const { return delivered_; }

  ExecutionContext& context() { return context_; }
  SimTime now() const { return context_.now(); }

  // Direct (typed) access for tests and wiring; nullptr when dead.
  // Only safe on the SimContext (single-threaded) — the pointer is not
  // protected against concurrent termination on a thread pool.
  template <typename T>
  T* Get(ActorId id) {
    const std::scoped_lock lock(mu_);
    const auto it = actors_.find(id);
    if (it == actors_.end() || it->second->dead) return nullptr;
    return dynamic_cast<T*>(it->second->actor.get());
  }

 private:
  struct Entry {
    std::unique_ptr<Actor> actor;
    std::deque<Envelope> mailbox;
    bool draining = false;
    bool dead = false;
    std::vector<ActorId> watchers;
    // Telemetry (Sec. 5): per-actor-type dispatch instruments, resolved
    // lazily on first use so registration order vs. SetEnabled() never
    // matters. Atomic because Drain may run on a ThreadPoolContext; both
    // racers resolve to the same registry pointer.
    std::string metric_type;  // sanitized type slug, e.g. "aggregator"
    std::atomic<telemetry::Counter*> msg_counter{nullptr};
    std::atomic<telemetry::Histogram*> dispatch_hist{nullptr};
    // Profiler actor tag (derived from metric_type at spawn); samples taken
    // inside OnMessage attribute to this component.
    profiler::ActorTag profile_tag = profiler::ActorTag::kOther;
  };

  ActorId Register(std::unique_ptr<Actor> actor, std::string name);
  void ScheduleDrain(ActorId id, const std::shared_ptr<Entry>& entry);
  void Drain(const std::shared_ptr<Entry>& entry);
  void Terminate(ActorId id, bool crashed);

  ExecutionContext& context_;
  mutable std::mutex mu_;
  std::unordered_map<ActorId, std::shared_ptr<Entry>> actors_;
  std::uint64_t next_actor_id_ = 1;
  std::uint64_t delivered_ = 0;
};

}  // namespace fl::actor
