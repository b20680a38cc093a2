#include "src/actor/actor.h"

#include "src/profiler/profiler.h"
#include "src/telemetry/telemetry.h"

namespace fl::actor {
namespace {

// Maps the metric type slug onto the profiler's actor-tag vocabulary so
// samples taken inside OnMessage attribute to the server component.
profiler::ActorTag ProfilerTagFor(const std::string& metric_type) {
  if (metric_type == "coordinator") return profiler::ActorTag::kCoordinator;
  if (metric_type == "selector") return profiler::ActorTag::kSelector;
  if (metric_type == "master_aggregator") {
    return profiler::ActorTag::kMasterAggregator;
  }
  if (metric_type == "aggregator") return profiler::ActorTag::kAggregator;
  return profiler::ActorTag::kOther;
}

// Actor "type" for metric names: the leading alphabetic segments of the
// instance name, so "aggregator-r12-0" and "aggregator-r13-4" share the
// series "aggregator" while "selector-0" maps to "selector".
std::string ActorType(const std::string& name) {
  std::string type;
  std::size_t start = 0;
  while (start < name.size()) {
    std::size_t end = name.find('-', start);
    if (end == std::string::npos) end = name.size();
    const std::string_view segment(name.data() + start, end - start);
    bool has_digit = false;
    for (char c : segment) {
      if (c >= '0' && c <= '9') has_digit = true;
    }
    if (segment.empty() || has_digit) break;
    if (!type.empty()) type += '_';
    type += segment;
    start = end + 1;
  }
  if (type.empty()) type = "actor";
  return telemetry::MetricsRegistry::Sanitize(type);
}

// Mailbox depth observed at every enqueue — the leading indicator of an
// actor falling behind its message stream.
telemetry::Histogram* MailboxDepthHistogram() {
  static telemetry::Histogram* const hist =
      telemetry::MetricsRegistry::Global().GetHistogram(
          "fl_actor_mailbox_depth",
          telemetry::HistogramOptions{1.0, 2.0, 16});
  return hist;
}

}  // namespace

void Actor::Send(ActorId to, std::any payload) {
  system_->Send(id_, to, std::move(payload));
}

void Actor::SendAfter(Duration d, ActorId to, std::any payload) {
  system_->SendAfter(d, id_, to, std::move(payload));
}

SimTime Actor::Now() const { return system_->now(); }

ActorId ActorSystem::Register(std::unique_ptr<Actor> actor,
                              std::string name) {
  Actor* raw = actor.get();
  ActorId id;
  {
    const std::scoped_lock lock(mu_);
    id = ActorId{next_actor_id_++};
    raw->id_ = id;
    raw->name_ = std::move(name);
    raw->system_ = this;
    auto entry = std::make_shared<Entry>();
    entry->actor = std::move(actor);
    entry->metric_type = ActorType(raw->name_);
    entry->profile_tag = ProfilerTagFor(entry->metric_type);
    actors_.emplace(id, std::move(entry));
  }
  raw->OnStart();
  return id;
}

void ActorSystem::Send(ActorId from, ActorId to, std::any payload) {
  std::shared_ptr<Entry> entry;
  std::size_t depth = 0;
  {
    const std::scoped_lock lock(mu_);
    const auto it = actors_.find(to);
    if (it == actors_.end() || it->second->dead) return;  // drop: dead letter
    entry = it->second;
    entry->mailbox.push_back(Envelope{from, to, std::move(payload)});
    depth = entry->mailbox.size();
  }
  if (telemetry::Enabled()) {
    MailboxDepthHistogram()->Observe(static_cast<double>(depth));
  }
  ScheduleDrain(to, entry);
}

void ActorSystem::SendAfter(Duration d, ActorId from, ActorId to,
                            std::any payload) {
  // Capture by value; delivery checks liveness at fire time.
  context_.PostAfter(d, [this, from, to, p = std::move(payload)]() mutable {
    Send(from, to, std::move(p));
  });
}

void ActorSystem::ScheduleDrain(ActorId id, const std::shared_ptr<Entry>& entry) {
  {
    const std::scoped_lock lock(mu_);
    if (entry->dead || entry->draining || entry->mailbox.empty()) return;
    entry->draining = true;
  }
  context_.Post([this, id, entry] {
    (void)id;
    Drain(entry);
  });
}

void ActorSystem::Drain(const std::shared_ptr<Entry>& entry) {
  // Strictly-sequential processing: `draining` guarantees at most one Drain
  // per actor is in flight on any context.
  while (true) {
    Envelope env;
    {
      const std::scoped_lock lock(mu_);
      if (entry->dead || entry->mailbox.empty()) {
        entry->draining = false;
        return;
      }
      env = std::move(entry->mailbox.front());
      entry->mailbox.pop_front();
      ++delivered_;
    }
    // Per-actor-type dispatch metrics: one Enabled() branch when telemetry
    // is off; instrument pointers are resolved once per entry and cached.
    telemetry::Histogram* dispatch = nullptr;
    std::int64_t t0 = 0;
    if (telemetry::Enabled()) {
      dispatch = entry->dispatch_hist.load(std::memory_order_relaxed);
      if (dispatch == nullptr) {
        auto& registry = telemetry::MetricsRegistry::Global();
        dispatch = registry.GetHistogram(
            "fl_actor_dispatch_micros_" + entry->metric_type,
            telemetry::HistogramOptions{1.0, 2.0, 24});
        entry->dispatch_hist.store(dispatch, std::memory_order_relaxed);
        entry->msg_counter.store(
            registry.GetCounter("fl_actor_messages_total_" +
                                entry->metric_type),
            std::memory_order_relaxed);
      }
      entry->msg_counter.load(std::memory_order_relaxed)->Add();
      t0 = telemetry::WallMicros();
    }
    {
      const profiler::ScopedActor profile_scope(entry->profile_tag);
      entry->actor->OnMessage(env);
    }
    if (dispatch != nullptr) {
      dispatch->Observe(
          static_cast<double>(telemetry::WallMicros() - t0));
    }
  }
}

void ActorSystem::Stop(ActorId id) {
  std::shared_ptr<Entry> entry;
  {
    const std::scoped_lock lock(mu_);
    const auto it = actors_.find(id);
    if (it == actors_.end() || it->second->dead) return;
    entry = it->second;
  }
  entry->actor->OnStop();
  Terminate(id, /*crashed=*/false);
}

void ActorSystem::Crash(ActorId id) { Terminate(id, /*crashed=*/true); }

void ActorSystem::Terminate(ActorId id, bool crashed) {
  std::shared_ptr<Entry> entry;
  std::vector<ActorId> watchers;
  {
    const std::scoped_lock lock(mu_);
    const auto it = actors_.find(id);
    if (it == actors_.end() || it->second->dead) return;
    entry = it->second;
    entry->dead = true;
    entry->mailbox.clear();
    watchers = std::move(entry->watchers);
    actors_.erase(it);
  }
  for (ActorId w : watchers) {
    Send(id, w, DeathNotice{id, crashed});
  }
}

void ActorSystem::Watch(ActorId watched, ActorId watcher) {
  bool already_dead = false;
  {
    const std::scoped_lock lock(mu_);
    const auto it = actors_.find(watched);
    if (it == actors_.end() || it->second->dead) {
      already_dead = true;
    } else {
      it->second->watchers.push_back(watcher);
    }
  }
  if (already_dead) {
    // Immediate notice so watchers never miss a death.
    Send(watched, watcher, DeathNotice{watched, true});
  }
}

bool ActorSystem::IsAlive(ActorId id) const {
  const std::scoped_lock lock(mu_);
  const auto it = actors_.find(id);
  return it != actors_.end() && !it->second->dead;
}

std::size_t ActorSystem::live_actors() const {
  const std::scoped_lock lock(mu_);
  return actors_.size();
}

}  // namespace fl::actor
