#ifndef NDE_TELEMETRY_PROFILER_H_
#define NDE_TELEMETRY_PROFILER_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"

namespace nde {
namespace telemetry {

/// In-process span profiler + allocation accounting.
///
/// The profiler reuses the NDE_TRACE_SPAN spans as its call-stack model and
/// is exact, not sampled: while it runs, every span that opens links to the
/// innermost profiled span still open on its thread, and when it closes it
/// adds its self time (its duration minus its children's) in microseconds
/// under its root-to-leaf path. The aggregate renders as folded stacks
/// ("a;b;c self_us" lines, directly consumable by flamegraph.pl /
/// speedscope) plus a flat self/total table. A span shows up in the profile
/// when it closes, never while it is still open. Profiling is purely
/// observational, so estimates are bit-identical with the profiler on or off.
///
/// Zero-cost-when-off contract, matching the rest of telemetry/:
///   - compiled out (NDE_TELEMETRY=OFF): no spans open, so nothing is
///     aggregated; the classes remain so call sites compile.
///   - compiled in, profiler stopped: each span open pays one relaxed atomic
///     load on top of the existing telemetry gate.
///   - running: each span close additionally builds its path and takes the
///     profile's mutex once.

/// One aggregated folded stack: root-to-leaf span names joined with ';'.
struct FoldedStack {
  std::string stack;
  uint64_t count = 0;  ///< self time of spans closed on this path, in us
};

/// Per-frame flat aggregation over every folded stack.
struct FlatFrame {
  std::string name;
  uint64_t self = 0;   ///< us spent with this frame as the leaf
  uint64_t total = 0;  ///< us spent with this frame anywhere on the stack
};

class Profiler {
 public:
  static Profiler& Global();

  Profiler() = default;
  Profiler(const Profiler&) = delete;
  Profiler& operator=(const Profiler&) = delete;

  /// Starts aggregating spans. Fails if already running. Spans only exist
  /// while `telemetry::SetEnabled(true)`, so callers normally enable
  /// telemetry first (the CLI's --profile does both).
  Status Start();

  /// Stops aggregating; the profile is kept for readout. Spans that close
  /// after Stop are not added. Safe to call twice or when never started.
  void Stop();

  bool running() const { return running_.load(std::memory_order_relaxed); }

  /// Adds `self_us` under `stack` (a ';'-joined path of folded frames).
  /// ScopedSpan calls this when a profiled span closes.
  void Record(const std::string& stack, uint64_t self_us);

  /// Spans aggregated so far.
  uint64_t spans() const;

  /// Drops the aggregated profile (the running state is kept).
  void Reset();

  /// Folded-stack lines "name;name;name self_us\n", sorted by stack so two
  /// dumps diff cleanly. Feed straight into flamegraph.pl or speedscope.
  std::string FoldedStacks() const;

  /// The same aggregation as structured data (sorted by stack).
  std::vector<FoldedStack> Folded() const;

  /// Per-frame self/total microseconds, sorted by self descending (ties by
  /// name) — the "where does the time actually go" table.
  std::vector<FlatFrame> Flat() const;

  /// Human-readable flat table plus allocation-accounting summary, served by
  /// /profilez.
  std::string ToText() const;

  /// JSON object for RunReport's "profile" block:
  /// {"enabled":...,"running":...,"spans":...,"unique_stacks":...,
  ///  "folded":[{"stack":...,"count":...}],"flat":[...],"alloc":{...}}.
  /// Folded stacks are capped to the top `max_stacks` by count.
  std::string ToJson(size_t max_stacks = 25) const;

 private:
  std::map<std::string, uint64_t> Snapshot() const;

  std::atomic<bool> running_{false};
  mutable std::mutex mu_;
  std::map<std::string, uint64_t> stacks_;  ///< folded path -> self us
  uint64_t spans_ = 0;
};

// ---------------------------------------------------------------------------
// Allocation accounting
// ---------------------------------------------------------------------------

/// Point-in-time allocation counters. Bytes are actual heap bytes
/// (malloc_usable_size) where the platform provides them, else the requested
/// size. Counters accumulate from the moment accounting is enabled; `live`
/// can go negative when memory allocated before enabling is freed after.
struct AllocStats {
  uint64_t alloc_count = 0;
  uint64_t alloc_bytes = 0;
  uint64_t free_count = 0;
  uint64_t free_bytes = 0;
  int64_t live_bytes = 0;
  int64_t peak_live_bytes = 0;
};

/// Whether operator new/delete interposition was compiled in. False under
/// NDE_TELEMETRY=OFF and under ASan/TSan/MSan builds (the sanitizers own the
/// allocator there); everything below degrades to no-ops in that case.
bool AllocAccountingCompiledIn();

/// Runtime gate. While disabled, the interposed operators cost one relaxed
/// atomic load over plain malloc/free.
void SetAllocAccountingEnabled(bool enabled);
bool AllocAccountingEnabled();

/// Process-wide counters since the last ResetAllocStats().
AllocStats GlobalAllocStats();

/// Per-phase totals accumulated by AllocationScope, sorted by phase name.
std::vector<std::pair<std::string, AllocStats>> AllocPhaseStats();

/// Zeroes the global counters and drops every recorded phase.
void ResetAllocStats();

/// RAII phase tag: while the innermost scope on a thread is alive, that
/// thread's allocations and frees are attributed to `phase` (self-only:
/// nested scopes do not roll up into their parents). On destruction the
/// scope's tally is folded into the process-wide per-phase table, merging
/// with earlier scopes of the same phase. `phase` must outlive the scope
/// (string literals, in practice). Construction and destruction are no-ops
/// while accounting is disabled or compiled out.
class AllocationScope {
 public:
  explicit AllocationScope(const char* phase);
  ~AllocationScope();

  AllocationScope(const AllocationScope&) = delete;
  AllocationScope& operator=(const AllocationScope&) = delete;

  /// Internal: per-scope running tally, updated by the allocation hooks.
  struct Tally {
    const char* phase = nullptr;
    uint64_t alloc_count = 0;
    uint64_t alloc_bytes = 0;
    uint64_t free_count = 0;
    uint64_t free_bytes = 0;
    int64_t live_bytes = 0;
    int64_t peak_live_bytes = 0;
    Tally* parent = nullptr;
  };

 private:
  Tally tally_;
  bool active_ = false;
};

/// Text table of global + per-phase allocation counters (part of
/// Profiler::ToText and /profilez).
std::string AllocStatsTable();

}  // namespace telemetry
}  // namespace nde

#endif  // NDE_TELEMETRY_PROFILER_H_
