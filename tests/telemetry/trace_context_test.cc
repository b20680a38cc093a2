// Trace-context propagation: the ambient thread-local install/restore
// discipline, and span linkage — an orphan span opened under an ambient
// context parents onto the causal span from the sending side and carries
// the round/session/device triple.
#include "src/telemetry/trace_context.h"

#include <gtest/gtest.h>

#include <thread>

#include "src/telemetry/flight_recorder.h"
#include "src/telemetry/telemetry.h"
#include "src/telemetry/trace.h"

namespace fl::telemetry {
namespace {

TEST(TraceContextTest, DefaultIsEmpty) {
  EXPECT_TRUE(TraceContext{}.empty());
  TraceContext ctx;
  ctx.round = 1;
  EXPECT_FALSE(ctx.empty());
}

TEST(TraceContextTest, ScopedInstallRestoresOnExit) {
  CurrentTraceContext() = TraceContext{};
  {
    const ScopedTraceContext outer(TraceContext{.round = 3, .session = 7});
    EXPECT_EQ(CurrentTraceContext().round, 3u);
    {
      const ScopedTraceContext inner(TraceContext{.round = 9});
      EXPECT_EQ(CurrentTraceContext().round, 9u);
      EXPECT_EQ(CurrentTraceContext().session, 0u);
    }
    // Nested scope restored the outer context, not empty.
    EXPECT_EQ(CurrentTraceContext().round, 3u);
    EXPECT_EQ(CurrentTraceContext().session, 7u);
  }
  EXPECT_TRUE(CurrentTraceContext().empty());
}

TEST(TraceContextTest, ContextIsPerThread) {
  const ScopedTraceContext scope(TraceContext{.round = 5});
  std::uint64_t seen = 99;
  std::thread([&seen] { seen = CurrentTraceContext().round; }).join();
  EXPECT_EQ(seen, 0u);  // fresh thread starts empty
  EXPECT_EQ(CurrentTraceContext().round, 5u);
}

TEST(TraceContextTest, OrphanSpanParentsUnderAmbientContext) {
  SetEnabled(true);
  SetFlightRecorderEnabled(false);
  Tracer::Global().Clear();

  // Simulate the sending side: a span is open, its id travels in a message.
  const std::uint64_t sender =
      Tracer::Global().Begin("sender", SimTime{0}, Tracer::kNoParent);
  Tracer::Global().End(sender, SimTime{1});

  // Receiving side: empty thread stack + ambient context from the envelope.
  const ScopedTraceContext scope(TraceContext{
      .round = 11, .session = 22, .device = 33, .parent_span = sender});
  const std::uint64_t child =
      Tracer::Global().Begin("receiver", SimTime{2}, Tracer::kInheritParent);
  Tracer::Global().End(child, SimTime{3});

  bool found = false;
  for (const SpanRecord& rec : Tracer::Global().Completed()) {
    if (rec.name != "receiver") continue;
    found = true;
    EXPECT_EQ(rec.parent, sender);
    EXPECT_TRUE(rec.flow_parent);  // rendered as a Perfetto flow arrow
    EXPECT_EQ(rec.ctx_round, 11u);
    EXPECT_EQ(rec.ctx_session, 22u);
    EXPECT_EQ(rec.ctx_device, 33u);
  }
  EXPECT_TRUE(found);
  Tracer::Global().Clear();
  SetEnabled(false);
}

TEST(TraceContextTest, ExplicitStackParentBeatsAmbientContext) {
  if (!kCompiledIn) GTEST_SKIP() << "telemetry compiled out";
  SetEnabled(true);
  SetFlightRecorderEnabled(false);
  Tracer::Global().Clear();

  const ScopedTraceContext scope(TraceContext{.parent_span = 424242});
  {
    // An enclosing ScopedSpan on this thread wins over the ambient parent.
    ScopedSpan outer("outer");
    const std::uint64_t inner =
        Tracer::Global().Begin("inner", SimTime{0}, Tracer::kInheritParent);
    Tracer::Global().End(inner, SimTime{1});
  }
  for (const SpanRecord& rec : Tracer::Global().Completed()) {
    if (rec.name == "inner") {
      EXPECT_NE(rec.parent, 424242u);
      EXPECT_FALSE(rec.flow_parent);
    }
  }
  Tracer::Global().Clear();
  SetEnabled(false);
}

}  // namespace
}  // namespace fl::telemetry
