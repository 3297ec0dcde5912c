#ifndef NDE_TELEMETRY_TRACE_H_
#define NDE_TELEMETRY_TRACE_H_

#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace nde {
namespace telemetry {

/// Runtime on/off switch for span recording and metric macros. Defaults to
/// off so instrumented hot paths cost a single relaxed atomic load until a
/// caller (CLI flag, bench harness, test) opts in.
bool Enabled();
void SetEnabled(bool enabled);

/// Small dense id for the calling thread (1, 2, ... in first-use order);
/// stable for the thread's lifetime. Used as the Chrome-trace `tid`.
uint32_t CurrentThreadId();

/// Microseconds since the process's trace epoch (steady clock; first call
/// pins the epoch).
int64_t NowMicros();

/// One completed span, matching a Chrome `trace_event` complete event
/// (`"ph":"X"`).
struct TraceEvent {
  std::string name;
  std::string category;
  /// Extra args as (key, already-JSON-encoded value) pairs.
  std::vector<std::pair<std::string, std::string>> args;
  int64_t ts_us = 0;   ///< span start, relative to the trace epoch
  int64_t dur_us = 0;  ///< span duration
  uint32_t tid = 0;
  uint32_t depth = 0;  ///< span nesting depth on its thread (0 = top level)
  /// Request attribution, copied from the opening thread's TraceContext
  /// (common/trace_context.h): the owning 128-bit trace id (0 when the span
  /// opened outside any request), this span's own id, and its parent's
  /// (0 for a root span). Parent linkage crosses thread hops because
  /// ThreadPool::Submit propagates the submitting context to its workers.
  uint64_t trace_id_hi = 0;
  uint64_t trace_id_lo = 0;
  uint64_t span_id = 0;
  uint64_t parent_span_id = 0;
};

/// Bounded in-memory store of completed spans. When full, new events are
/// dropped (and counted) so a long run keeps its earliest — structurally most
/// interesting — spans and memory stays bounded.
class TraceBuffer {
 public:
  static TraceBuffer& Global();

  explicit TraceBuffer(size_t capacity = 1 << 16);

  void Record(TraceEvent event);

  std::vector<TraceEvent> Snapshot() const;
  size_t size() const;
  size_t dropped() const;
  size_t capacity() const;

  /// Drops all buffered events and zeroes the dropped counter.
  void Clear();
  /// Also truncates the buffer if it is over the new capacity.
  void SetCapacity(size_t capacity);

  /// Chrome `trace_event` JSON (the `{"traceEvents": [...]}` object form),
  /// loadable in about:tracing / Perfetto. Thread ids are remapped to small
  /// dense values in first-appearance order (stable across runs with the
  /// same span structure); spans carry `id`/`parent` args, and a flow event
  /// pair (`"ph":"s"` / `"ph":"f"`) links every parent/child edge that
  /// crosses threads, so pool work renders attached to its submitter
  /// instead of as flat unparented boxes.
  std::string ToChromeJson() const;

  /// Flamegraph-compatible folded stacks for one trace: each line is
  /// "root;child;...;leaf <self_us>" built from span parent linkage, with
  /// identical stacks merged and lines sorted (deterministic output). Frames
  /// are escaped as by AppendFoldedFrame, so every line has two fields.
  /// Feed to flamegraph.pl or speedscope. Empty string when the buffer has
  /// no spans for the trace.
  std::string FoldedForTrace(uint64_t trace_id_hi, uint64_t trace_id_lo) const;

  TraceBuffer(const TraceBuffer&) = delete;
  TraceBuffer& operator=(const TraceBuffer&) = delete;

 private:
  mutable std::mutex mu_;
  std::deque<TraceEvent> events_;
  size_t capacity_;
  size_t dropped_ = 0;
};

/// RAII span: records one complete event into TraceBuffer::Global() at scope
/// exit. Construction is a no-op (no clock reads, no allocations beyond the
/// moved-in name) when telemetry is disabled at the time the span opens.
///
/// An active span mints its own span id, records the current TraceContext's
/// span id as its parent, and installs itself as the thread's current span
/// for its scope — so nested spans (including spans opened by pool tasks the
/// scope submits) parent to it, restoring the previous span on destruction.
class ScopedSpan {
 public:
  explicit ScopedSpan(std::string name, std::string category = "nde");
  ~ScopedSpan();

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// Attaches an arg shown in the trace viewer's detail pane.
  void AddArg(const std::string& key, int64_t value);
  void AddArg(const std::string& key, double value);
  void AddArg(const std::string& key, const std::string& value);

  /// Elapsed time since the span opened (0 when recording is off).
  double ElapsedMs() const;

  bool active() const { return active_; }

 private:
  /// Appends the folded path root;...;this of the profiled-span chain.
  void AppendProfiledPath(std::string& stack) const;

  bool active_;
  /// Whether this span linked into its thread's profiled-span chain
  /// (profiling can start or stop mid-span, so the unlink must match the
  /// link, not the state at destruction time).
  bool profiled_ = false;
  /// The innermost profiled span open on this thread when this one opened.
  ScopedSpan* profiled_parent_ = nullptr;
  /// Summed duration of the profiled children closed so far.
  int64_t children_us_ = 0;
  /// The thread's previous current-span id, restored at destruction.
  uint64_t saved_span_id_ = 0;
  TraceEvent event_;
};

/// Escapes a string for embedding in a JSON string literal (no quotes added).
std::string JsonEscape(const std::string& text);

/// Appends `frame` to a folded-stack path ("root;child;leaf", the
/// flamegraph.pl grammar both Profiler and FoldedForTrace emit): a ';'
/// separator unless `stack` is empty, then the name with the grammar's
/// delimiters (space, ';', tab, newline) replaced by '_'.
void AppendFoldedFrame(std::string& stack, const std::string& frame);

/// Renders folded stacks as "stack count\n" lines, in stack order.
std::string FoldedLines(const std::map<std::string, uint64_t>& stacks);

}  // namespace telemetry
}  // namespace nde

#endif  // NDE_TELEMETRY_TRACE_H_
