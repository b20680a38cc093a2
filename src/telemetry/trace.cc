#include "src/telemetry/trace.h"

namespace fl::telemetry {

Tracer& Tracer::Global() {
  static Tracer* const tracer = new Tracer();  // leaked: process lifetime
  return *tracer;
}

std::vector<std::uint64_t>& Tracer::ThreadStack() {
  thread_local std::vector<std::uint64_t> stack;
  return stack;
}

std::uint64_t Tracer::Open(SpanRecord span) {
  span.wall_start_us = WallMicros();
  span.tid = static_cast<std::uint32_t>(ThreadOrdinal());
  const std::scoped_lock lock(mu_);
  if (span.id == 0) span.id = next_id_++;
  const std::uint64_t id = span.id;
  open_.try_emplace(id, std::move(span));
  return id;
}

std::uint64_t Tracer::Begin(std::string name, SimTime sim_now,
                            std::uint64_t parent) {
  if (parent == kInheritParent) {
    const auto& stack = ThreadStack();
    parent = stack.empty() ? kNoParent : stack.back();
  }
  SpanRecord span;
  span.parent = parent;
  span.name = std::move(name);
  span.sim_start = sim_now;
  return Open(std::move(span));
}

void Tracer::AddAttr(std::uint64_t span, std::string key, std::string value) {
  const std::scoped_lock lock(mu_);
  const auto it = open_.find(span);
  if (it == open_.end()) return;
  it->second.attrs.emplace_back(std::move(key), std::move(value));
}

void Tracer::End(std::uint64_t span, SimTime sim_now) {
  const std::int64_t wall = WallMicros();
  const std::scoped_lock lock(mu_);
  const auto it = open_.find(span);
  if (it == open_.end()) return;
  SpanRecord rec = std::move(it->second);
  open_.erase(it);
  rec.sim_end = sim_now;
  rec.wall_end_us = wall;
  if (completed_.size() >= kMaxCompleted) {
    ++dropped_;
    return;
  }
  completed_.push_back(std::move(rec));
}

std::vector<SpanRecord> Tracer::Completed() const {
  const std::scoped_lock lock(mu_);
  return std::vector<SpanRecord>(completed_.begin(), completed_.end());
}

std::size_t Tracer::open_spans() const {
  const std::scoped_lock lock(mu_);
  return open_.size();
}

std::uint64_t Tracer::dropped_spans() const {
  const std::scoped_lock lock(mu_);
  return dropped_;
}

void Tracer::Clear() {
  const std::scoped_lock lock(mu_);
  open_.clear();
  completed_.clear();
  dropped_ = 0;
  // Thread-local parent stacks are deliberately left alone: live ScopedSpans
  // keep their (now dangling) ids, whose End() calls become harmless no-ops.
}

void ScopedSpan::Open(const char* name, std::uint64_t parent) {
  id_ = Tracer::Global().Begin(std::string(name), SimTime{}, parent);
  Tracer::ThreadStack().push_back(id_);
}

void ScopedSpan::Close() {
  auto& stack = Tracer::ThreadStack();
  if (!stack.empty() && stack.back() == id_) {
    stack.pop_back();
  }
  Tracer::Global().End(id_, SimTime{});
}

}  // namespace fl::telemetry
