#include "telemetry/profiler.h"

#include <cmath>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "importance/game_values.h"
#include "importance/utility.h"
#include "json_checker.h"
#include "telemetry/telemetry.h"
#include "telemetry/trace.h"

namespace nde {
namespace {

using telemetry::AllocationScope;
using telemetry::FlatFrame;
using telemetry::FoldedStack;
using telemetry::Profiler;
using telemetry::ScopedSpan;
using telemetry::TraceBuffer;
using telemetry::TraceEvent;

/// Restores global telemetry + profiler + alloc-accounting state on exit so
/// these tests compose with the rest of the suite in any order.
class ProfilerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Profiler::Global().Stop();
    Profiler::Global().Reset();
    TraceBuffer::Global().Clear();
    telemetry::ResetAllocStats();
  }
  void TearDown() override {
    Profiler::Global().Stop();
    Profiler::Global().Reset();
    TraceBuffer::Global().Clear();
    telemetry::SetAllocAccountingEnabled(false);
    telemetry::ResetAllocStats();
    telemetry::SetEnabled(false);
  }
};

/// The recorded span named `name` (there must be exactly one).
TraceEvent OnlySpanNamed(const std::string& name) {
  TraceEvent found;
  int matches = 0;
  for (const TraceEvent& event : TraceBuffer::Global().Snapshot()) {
    if (event.name == name) {
      found = event;
      ++matches;
    }
  }
  EXPECT_EQ(matches, 1) << name;
  return found;
}

TEST_F(ProfilerTest, RecordAggregatesFoldedAndFlatViews) {
  Profiler& profiler = Profiler::Global();
  profiler.Record("alpha", 1);
  profiler.Record("alpha;beta", 2);
  profiler.Record("alpha", 3);

  EXPECT_EQ(profiler.spans(), 3u);
  std::vector<FoldedStack> folded = profiler.Folded();
  ASSERT_EQ(folded.size(), 2u);
  // Sorted by stack text: "alpha" < "alpha;beta".
  EXPECT_EQ(folded[0].stack, "alpha");
  EXPECT_EQ(folded[0].count, 4u);
  EXPECT_EQ(folded[1].stack, "alpha;beta");
  EXPECT_EQ(folded[1].count, 2u);
  EXPECT_EQ(profiler.FoldedStacks(), "alpha 4\nalpha;beta 2\n");

  // Flat view: alpha was the leaf for 4 us and on the stack for all 6;
  // beta only ever as the leaf.
  std::vector<FlatFrame> flat = profiler.Flat();
  ASSERT_EQ(flat.size(), 2u);
  EXPECT_EQ(flat[0].name, "alpha");
  EXPECT_EQ(flat[0].self, 4u);
  EXPECT_EQ(flat[0].total, 6u);
  EXPECT_EQ(flat[1].name, "beta");
  EXPECT_EQ(flat[1].self, 2u);
  EXPECT_EQ(flat[1].total, 2u);
}

TEST_F(ProfilerTest, ResetDropsAggregates) {
  Profiler& profiler = Profiler::Global();
  profiler.Record("gone", 7);
  ASSERT_EQ(profiler.spans(), 1u);
  profiler.Reset();
  EXPECT_EQ(profiler.spans(), 0u);
  EXPECT_TRUE(profiler.Folded().empty());
  EXPECT_TRUE(profiler.Flat().empty());
  EXPECT_EQ(profiler.FoldedStacks(), "");
}

TEST_F(ProfilerTest, NestedSpansRecordExactSelfTimeUnderTheirPath) {
  telemetry::SetEnabled(true);
  Profiler& profiler = Profiler::Global();
  ASSERT_TRUE(profiler.Start().ok());
  {
    ScopedSpan outer("outer");
    for (int i = 0; i < 2; ++i) {
      ScopedSpan inner("inner");
      // Last a few microseconds, so dropping the children's time from the
      // parent's self time cannot go unnoticed.
      while (inner.ElapsedMs() < 0.005) {
      }
    }
  }
  profiler.Stop();

  // Self time is the span's duration minus its children's, so the two views
  // must agree with the trace buffer to the microsecond.
  int64_t outer_us = OnlySpanNamed("outer").dur_us;
  int64_t inner_us = 0;
  for (const TraceEvent& event : TraceBuffer::Global().Snapshot()) {
    if (event.name == "inner") inner_us += event.dur_us;
  }
  std::vector<FoldedStack> folded = profiler.Folded();
  ASSERT_EQ(folded.size(), 2u) << profiler.FoldedStacks();
  EXPECT_EQ(folded[0].stack, "outer");
  EXPECT_EQ(folded[0].count, static_cast<uint64_t>(outer_us - inner_us));
  EXPECT_EQ(folded[1].stack, "outer;inner");
  EXPECT_EQ(folded[1].count, static_cast<uint64_t>(inner_us));
  EXPECT_EQ(profiler.spans(), 3u);
}

TEST_F(ProfilerTest, SpanAppearsInTheProfileWhenItCloses) {
  telemetry::SetEnabled(true);
  Profiler& profiler = Profiler::Global();
  ASSERT_TRUE(profiler.Start().ok());
  {
    ScopedSpan open("still_open");
    EXPECT_EQ(profiler.spans(), 0u) << "an open span must not be in the profile";
    EXPECT_EQ(profiler.FoldedStacks(), "");
  }
  EXPECT_EQ(profiler.spans(), 1u);
  EXPECT_EQ(profiler.Folded().at(0).stack, "still_open");
}

/// Sum of the folded counts (exact self microseconds).
uint64_t FoldedTotal() {
  uint64_t total = 0;
  for (const FoldedStack& stack : Profiler::Global().Folded()) {
    total += stack.count;
  }
  return total;
}

/// A utility with enough arithmetic per call that spans last microseconds.
class SqrtGame : public UtilityFunction {
 public:
  explicit SqrtGame(int spins = 200) : spins_(spins) {}
  double Evaluate(const std::vector<size_t>& subset) const override {
    double v = 0.0;
    for (size_t i : subset) v += static_cast<double>(i + 1);
    for (int spin = 0; spin < spins_; ++spin) v = std::sqrt(v * v + 1e-9);
    return std::sqrt(v);
  }
  size_t num_units() const override { return 10; }

 private:
  int spins_;
};

TEST_F(ProfilerTest, SelfTimesSumToTopLevelSpanDurationsAtOneAndFourThreads) {
#if !NDE_TELEMETRY_ENABLED
  GTEST_SKIP() << "estimator spans compile to nothing in this build";
#endif
  telemetry::SetEnabled(true);
  SqrtGame game;
  for (size_t threads : {size_t{1}, size_t{4}}) {
    SCOPED_TRACE(threads);
    Profiler::Global().Reset();
    TraceBuffer::Global().Clear();
    ASSERT_TRUE(Profiler::Global().Start().ok());
    TmcShapleyOptions options;
    options.num_permutations = 64;
    options.seed = 3;
    options.num_threads = threads;
    ASSERT_TRUE(TmcShapleyValues(game, options).ok());
    Profiler::Global().Stop();

    ASSERT_EQ(TraceBuffer::Global().dropped(), 0u);
    std::vector<TraceEvent> events = TraceBuffer::Global().Snapshot();
    uint64_t top_level_us = 0;
    for (const TraceEvent& event : events) {
      if (event.depth == 0) top_level_us += static_cast<uint64_t>(event.dur_us);
    }
    // Every span opened and closed while profiling, so each is in the
    // profile once and the self times telescope to the top-level durations.
    EXPECT_EQ(Profiler::Global().spans(), events.size());
    EXPECT_EQ(FoldedTotal(), top_level_us);
    EXPECT_NE(Profiler::Global().FoldedStacks().find("tmc_wave"),
              std::string::npos)
        << Profiler::Global().FoldedStacks();
  }
}

TEST_F(ProfilerTest, WaveWaitKeepsTheFoldSpanToFoldWork) {
#if !NDE_TELEMETRY_ENABLED
  GTEST_SKIP() << "estimator spans compile to nothing in this build";
#endif
  telemetry::SetEnabled(true);
  SqrtGame game(2000);  // Permutations cost ~100x the fold.
  for (size_t threads : {size_t{1}, size_t{4}}) {
    SCOPED_TRACE(threads);
    Profiler::Global().Reset();
    TraceBuffer::Global().Clear();
    ASSERT_TRUE(Profiler::Global().Start().ok());
    TmcShapleyOptions options;
    options.num_permutations = 128;
    options.seed = 3;
    options.num_threads = threads;
    ASSERT_TRUE(TmcShapleyValues(game, options).ok());
    Profiler::Global().Stop();

    // The coordinator's wait and its fold are sibling spans; the fold span
    // has no children, so its self time is the fold and nothing else.
    bool wait_seen = false, fold_seen = false;
    for (const FoldedStack& folded : Profiler::Global().Folded()) {
      wait_seen |= folded.stack == "TmcShapleyValues;wave_wait";
      fold_seen |= folded.stack == "TmcShapleyValues;tmc_wave";
      EXPECT_EQ(folded.stack.find("tmc_wave;"), std::string::npos)
          << folded.stack;
    }
    EXPECT_TRUE(wait_seen) << Profiler::Global().FoldedStacks();
    EXPECT_TRUE(fold_seen) << Profiler::Global().FoldedStacks();
    uint64_t fold_us = 0, permutation_us = 0;
    for (const FlatFrame& frame : Profiler::Global().Flat()) {
      if (frame.name == "tmc_wave") fold_us = frame.self;
      if (frame.name == "tmc_permutation") permutation_us = frame.self;
    }
    // Were the wait booked to the fold span, it would hold at least a
    // quarter of the permutation time at 4 threads.
    EXPECT_LT(fold_us * 20, permutation_us)
        << Profiler::Global().FoldedStacks();
  }
}

TEST_F(ProfilerTest, FoldedOutputEscapesDelimiterCharacters) {
  // Span names may carry spaces ("fit numeric(score)") or any column name;
  // the folded-stack grammar reserves space and semicolon (and line breaks),
  // so they must come out as "_" and every line keeps exactly two fields.
  telemetry::SetEnabled(true);
  Profiler& profiler = Profiler::Global();
  ASSERT_TRUE(profiler.Start().ok());
  {
    ScopedSpan outer("fit numeric(score)");
    ScopedSpan inner("odd;name\twith\nbreaks");
  }
  profiler.Stop();
  std::vector<FoldedStack> folded = profiler.Folded();
  ASSERT_EQ(folded.size(), 2u);
  EXPECT_EQ(folded[0].stack, "fit_numeric(score)");
  EXPECT_EQ(folded[1].stack, "fit_numeric(score);odd_name_with_breaks");
  std::istringstream lines(profiler.FoldedStacks());
  std::string line;
  while (std::getline(lines, line)) {
    std::istringstream fields(line);
    std::string stack, count, extra;
    fields >> stack >> count;
    EXPECT_FALSE(fields >> extra) << line;
    EXPECT_EQ(count.find_first_not_of("0123456789"), std::string::npos)
        << line;
  }
  // The flat table names frames as they appear in the folded stacks.
  std::vector<FlatFrame> flat = profiler.Flat();
  ASSERT_EQ(flat.size(), 2u);
  for (const FlatFrame& frame : flat) {
    EXPECT_TRUE(frame.name == "fit_numeric(score)" ||
                frame.name == "odd_name_with_breaks")
        << frame.name;
  }
}

TEST_F(ProfilerTest, SpansCloseUnprofiledWhileStopped) {
  telemetry::SetEnabled(true);
  { ScopedSpan span("unprofiled_section"); }
  EXPECT_EQ(Profiler::Global().spans(), 0u);
  EXPECT_EQ(Profiler::Global().FoldedStacks(), "");
}

TEST_F(ProfilerTest, LinkStaysBalancedWhenProfilingTogglesMidSpan) {
  telemetry::SetEnabled(true);
  Profiler& profiler = Profiler::Global();
  // Opened before Start, closed after Stop: never profiled, so the child
  // opened while profiling is a root of its own.
  {
    ScopedSpan outer("opened_before_start");
    ASSERT_TRUE(profiler.Start().ok());
    { ScopedSpan child("child"); }
    profiler.Stop();
  }
  // Opened after Start, closed after Stop: it unlinks without recording.
  ASSERT_TRUE(profiler.Start().ok());
  {
    ScopedSpan outer("closed_after_stop");
    profiler.Stop();
  }
  // A dangling link would parent this span to one of the closed spans above.
  ASSERT_TRUE(profiler.Start().ok());
  { ScopedSpan next("next"); }
  profiler.Stop();
  std::vector<FoldedStack> folded = profiler.Folded();
  ASSERT_EQ(folded.size(), 2u) << profiler.FoldedStacks();
  EXPECT_EQ(folded[0].stack, "child");
  EXPECT_EQ(folded[1].stack, "next");
}

TEST_F(ProfilerTest, ToJsonIsValidAndCarriesTheAggregates) {
  Profiler& profiler = Profiler::Global();
  profiler.Record("json_frame", 5);

  std::string json = profiler.ToJson();
  EXPECT_TRUE(JsonChecker(json).Valid()) << json;
  EXPECT_EQ(json.rfind("{\"enabled\":true,\"running\":false,\"spans\":1,", 0),
            0u)
      << json;
  EXPECT_NE(json.find("\"folded\":[{\"stack\":\"json_frame\",\"count\":5}]"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"flat\""), std::string::npos);
  EXPECT_NE(json.find("\"alloc\""), std::string::npos);

  std::string text = profiler.ToText();
  EXPECT_EQ(text.rfind("profiler:", 0), 0u) << text;
  EXPECT_NE(text.find("json_frame"), std::string::npos) << text;
}

TEST_F(ProfilerTest, StartStopLifecycle) {
  Profiler& profiler = Profiler::Global();
  EXPECT_FALSE(profiler.running());
  ASSERT_TRUE(profiler.Start().ok());
  EXPECT_TRUE(profiler.running());
  EXPECT_FALSE(profiler.Start().ok()) << "double Start must fail";
  profiler.Stop();
  EXPECT_FALSE(profiler.running());
  profiler.Stop();  // Idempotent.
  ASSERT_TRUE(profiler.Start().ok()) << "restart after Stop must work";
  profiler.Stop();
}

// --- Allocation accounting --------------------------------------------------

/// Heap churn the optimizer cannot elide: the pointer escapes through a
/// volatile.
void ChurnHeap(size_t bytes) {
  char* block = new char[bytes];
  static volatile char sink = 0;
  sink = static_cast<char>(sink + block[bytes / 2]);
  delete[] block;
}

TEST_F(ProfilerTest, AllocAccountingCountsWhenCompiledIn) {
  if (!telemetry::AllocAccountingCompiledIn()) {
    GTEST_SKIP() << "alloc interposition compiled out (telemetry off or "
                    "sanitizer build)";
  }
  telemetry::SetAllocAccountingEnabled(true);
  telemetry::ResetAllocStats();
  ChurnHeap(1 << 16);
  telemetry::SetAllocAccountingEnabled(false);

  telemetry::AllocStats stats = telemetry::GlobalAllocStats();
  EXPECT_GT(stats.alloc_count, 0u);
  EXPECT_GE(stats.alloc_bytes, uint64_t{1} << 16);
  EXPECT_GT(stats.free_count, 0u);
  EXPECT_GE(stats.peak_live_bytes, int64_t{1} << 16);
}

TEST_F(ProfilerTest, AllocAccountingIsOffByDefault) {
  if (!telemetry::AllocAccountingCompiledIn()) {
    GTEST_SKIP() << "alloc interposition compiled out";
  }
  ASSERT_FALSE(telemetry::AllocAccountingEnabled());
  telemetry::ResetAllocStats();
  ChurnHeap(1 << 14);
  telemetry::AllocStats stats = telemetry::GlobalAllocStats();
  EXPECT_EQ(stats.alloc_count, 0u);
  EXPECT_EQ(stats.alloc_bytes, 0u);
}

TEST_F(ProfilerTest, AllocationScopeAttributesToInnermostPhase) {
  if (!telemetry::AllocAccountingCompiledIn()) {
    GTEST_SKIP() << "alloc interposition compiled out";
  }
  telemetry::SetAllocAccountingEnabled(true);
  telemetry::ResetAllocStats();
  {
    AllocationScope outer("test.outer");
    ChurnHeap(1 << 12);
    {
      AllocationScope inner("test.inner");
      ChurnHeap(1 << 15);
    }
  }
  telemetry::SetAllocAccountingEnabled(false);

  uint64_t outer_bytes = 0, inner_bytes = 0;
  for (const auto& [phase, stats] : telemetry::AllocPhaseStats()) {
    if (phase == "test.outer") outer_bytes = stats.alloc_bytes;
    if (phase == "test.inner") inner_bytes = stats.alloc_bytes;
  }
  // Self-only attribution: the inner scope's churn must not roll up into the
  // outer phase, and each phase saw at least its own block.
  EXPECT_GE(inner_bytes, uint64_t{1} << 15);
  EXPECT_GE(outer_bytes, uint64_t{1} << 12);
  EXPECT_LT(outer_bytes, uint64_t{1} << 15);
}

TEST_F(ProfilerTest, AllocationScopeIsInertWhileDisabled) {
  telemetry::ResetAllocStats();
  {
    AllocationScope scope("test.disabled");
    ChurnHeap(1 << 12);
  }
  for (const auto& [phase, stats] : telemetry::AllocPhaseStats()) {
    EXPECT_NE(phase, "test.disabled")
        << "disabled scope must not record a phase";
    (void)stats;
  }
}

TEST_F(ProfilerTest, AllocStatsTableAndJsonStayWellFormed) {
  // Works in every build mode, including compiled-out interposition.
  std::string table = telemetry::AllocStatsTable();
  EXPECT_FALSE(table.empty());
  std::string json = Profiler::Global().ToJson();
  EXPECT_TRUE(JsonChecker(json).Valid()) << json;
  EXPECT_NE(json.find("\"compiled_in\""), std::string::npos);
}

}  // namespace
}  // namespace nde
