#include "telemetry/profiler.h"

#include <algorithm>
#include <cstdlib>
#include <new>
#include <set>
#include <sstream>

#include "common/string_util.h"
#include "telemetry/telemetry.h"

#if defined(__GLIBC__)
#include <malloc.h>  // malloc_usable_size
#endif

// Allocation interposition is compiled out under NDE_TELEMETRY=OFF (the
// zero-cost contract) and under sanitizer builds: ASan/TSan/MSan replace the
// global allocator themselves, and a second replacement would either lose
// their redzones/race instrumentation or fail to link.
#if !defined(NDE_PROFILER_SANITIZED)
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define NDE_PROFILER_SANITIZED 1
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
#define NDE_PROFILER_SANITIZED 1
#endif
#endif
#endif
#if !defined(NDE_PROFILER_SANITIZED)
#define NDE_PROFILER_SANITIZED 0
#endif

#define NDE_ALLOC_INTERPOSE (NDE_TELEMETRY_ENABLED && !NDE_PROFILER_SANITIZED)

namespace nde {
namespace telemetry {

// ---------------------------------------------------------------------------
// Profiler
// ---------------------------------------------------------------------------

Profiler& Profiler::Global() {
  static Profiler* profiler = new Profiler();
  return *profiler;
}

Status Profiler::Start() {
  bool expected = false;
  if (!running_.compare_exchange_strong(expected, true,
                                        std::memory_order_relaxed)) {
    return Status::FailedPrecondition("profiler already running");
  }
  return Status::OK();
}

void Profiler::Stop() { running_.store(false, std::memory_order_relaxed); }

void Profiler::Record(const std::string& stack, uint64_t self_us) {
  std::lock_guard<std::mutex> lock(mu_);
  stacks_[stack] += self_us;
  ++spans_;
}

uint64_t Profiler::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

void Profiler::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  stacks_.clear();
  spans_ = 0;
}

std::map<std::string, uint64_t> Profiler::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stacks_;
}

std::vector<FoldedStack> Profiler::Folded() const {
  std::vector<FoldedStack> out;
  for (auto& [stack, count] : Snapshot()) out.push_back({stack, count});
  return out;
}

std::string Profiler::FoldedStacks() const { return FoldedLines(Snapshot()); }

std::vector<FlatFrame> Profiler::Flat() const {
  std::map<std::string, FlatFrame> frames;
  for (const auto& [stack, count] : Snapshot()) {
    // Frames are escaped, so ';' splits the path exactly. A frame that
    // recurses counts once towards its total.
    std::set<std::string> on_stack;
    std::istringstream path(stack);
    for (std::string frame; std::getline(path, frame, ';');) {
      on_stack.insert(frame);
    }
    for (const std::string& name : on_stack) frames[name].total += count;
    frames[stack.substr(stack.rfind(';') + 1)].self += count;  // the leaf
  }
  std::vector<FlatFrame> out;
  out.reserve(frames.size());
  for (auto& [name, frame] : frames) {
    frame.name = name;
    out.push_back(frame);
  }
  std::sort(out.begin(), out.end(), [](const FlatFrame& a, const FlatFrame& b) {
    if (a.self != b.self) return a.self > b.self;
    return a.name < b.name;
  });
  return out;
}

std::string Profiler::ToText() const {
  std::ostringstream os;
  os << "profiler: " << spans() << " spans, exact self time in us, "
     << (running() ? "running" : "stopped") << "\n";
  std::vector<FlatFrame> flat = Flat();
  if (flat.empty()) {
    os << "(no spans; is telemetry enabled and the profiler started?)\n";
  } else {
    os << StrFormat("%10s %10s  %s\n", "self_us", "total_us", "span");
    for (const FlatFrame& frame : flat) {
      os << StrFormat("%10llu %10llu  %s\n",
                      static_cast<unsigned long long>(frame.self),
                      static_cast<unsigned long long>(frame.total),
                      frame.name.c_str());
    }
    os << "unique stacks: " << Folded().size() << "\n";
  }
  os << "\n" << AllocStatsTable();
  return os.str();
}

namespace {

void AppendAllocStatsJson(std::ostringstream& os, const AllocStats& stats) {
  os << "{\"alloc_count\":" << stats.alloc_count
     << ",\"alloc_bytes\":" << stats.alloc_bytes
     << ",\"free_count\":" << stats.free_count
     << ",\"free_bytes\":" << stats.free_bytes
     << ",\"live_bytes\":" << stats.live_bytes
     << ",\"peak_live_bytes\":" << stats.peak_live_bytes << "}";
}

}  // namespace

std::string Profiler::ToJson(size_t max_stacks) const {
  std::vector<FoldedStack> folded = Folded();
  // Keep the heaviest stacks; re-sort the survivors by stack for stable diffs.
  std::sort(folded.begin(), folded.end(),
            [](const FoldedStack& a, const FoldedStack& b) {
              if (a.count != b.count) return a.count > b.count;
              return a.stack < b.stack;
            });
  size_t total_stacks = folded.size();
  if (folded.size() > max_stacks) folded.resize(max_stacks);
  std::sort(folded.begin(), folded.end(),
            [](const FoldedStack& a, const FoldedStack& b) {
              return a.stack < b.stack;
            });

  std::ostringstream os;
  uint64_t spans_seen = spans();
  os << "{\"enabled\":"
     << ((running() || spans_seen > 0) ? "true" : "false")
     << ",\"running\":" << (running() ? "true" : "false")
     << ",\"spans\":" << spans_seen << ",\"unique_stacks\":" << total_stacks
     << ",\"folded\":[";
  bool first = true;
  for (const FoldedStack& stack : folded) {
    if (!first) os << ",";
    first = false;
    os << "{\"stack\":\"" << JsonEscape(stack.stack)
       << "\",\"count\":" << stack.count << "}";
  }
  os << "],\"flat\":[";
  first = true;
  for (const FlatFrame& frame : Flat()) {
    if (!first) os << ",";
    first = false;
    os << "{\"name\":\"" << JsonEscape(frame.name)
       << "\",\"self\":" << frame.self << ",\"total\":" << frame.total << "}";
  }
  os << "],\"alloc\":{\"compiled_in\":"
     << (AllocAccountingCompiledIn() ? "true" : "false") << ",\"enabled\":"
     << (AllocAccountingEnabled() ? "true" : "false") << ",\"global\":";
  AppendAllocStatsJson(os, GlobalAllocStats());
  os << ",\"phases\":{";
  first = true;
  for (const auto& [phase, stats] : AllocPhaseStats()) {
    if (!first) os << ",";
    first = false;
    os << "\"" << JsonEscape(phase) << "\":";
    AppendAllocStatsJson(os, stats);
  }
  os << "}}}";
  return os.str();
}

// ---------------------------------------------------------------------------
// Allocation accounting
//
// The hooks below run inside operator new/delete, so they must never
// allocate and must tolerate being called before main() and during static
// destruction. They therefore touch only constant-initialized namespace
// atomics and one trivially-initialized thread_local pointer. The per-phase
// table (which does allocate) is only touched by AllocationScope's
// destructor, after the thread's innermost-scope pointer has been restored —
// so its own allocations are attributed to the parent scope, not to a
// dangling tally.
// ---------------------------------------------------------------------------

namespace {

std::atomic<bool> g_alloc_enabled{false};
std::atomic<uint64_t> g_alloc_count{0};
std::atomic<uint64_t> g_alloc_bytes{0};
std::atomic<uint64_t> g_free_count{0};
std::atomic<uint64_t> g_free_bytes{0};
std::atomic<int64_t> g_live_bytes{0};
std::atomic<int64_t> g_peak_live_bytes{0};

thread_local AllocationScope::Tally* t_alloc_scope = nullptr;

std::mutex& PhaseMu() {
  static std::mutex* mu = new std::mutex();
  return *mu;
}

std::map<std::string, AllocStats>& PhaseMap() {
  static std::map<std::string, AllocStats>* map =
      new std::map<std::string, AllocStats>();
  return *map;
}

#if NDE_ALLOC_INTERPOSE

size_t HeapBytes(void* ptr, size_t requested) {
  (void)ptr;
  (void)requested;
#if defined(__GLIBC__)
  return malloc_usable_size(ptr);
#else
  return requested;
#endif
}

void NoteAlloc(void* ptr, size_t requested) {
  if (!g_alloc_enabled.load(std::memory_order_relaxed)) return;
  int64_t bytes = static_cast<int64_t>(HeapBytes(ptr, requested));
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  g_alloc_bytes.fetch_add(static_cast<uint64_t>(bytes),
                          std::memory_order_relaxed);
  int64_t live =
      g_live_bytes.fetch_add(bytes, std::memory_order_relaxed) + bytes;
  int64_t peak = g_peak_live_bytes.load(std::memory_order_relaxed);
  while (live > peak && !g_peak_live_bytes.compare_exchange_weak(
                            peak, live, std::memory_order_relaxed)) {
  }
  if (AllocationScope::Tally* tally = t_alloc_scope) {
    ++tally->alloc_count;
    tally->alloc_bytes += static_cast<uint64_t>(bytes);
    tally->live_bytes += bytes;
    if (tally->live_bytes > tally->peak_live_bytes) {
      tally->peak_live_bytes = tally->live_bytes;
    }
  }
}

// Must run BEFORE the underlying free(): malloc_usable_size on freed memory
// would be use-after-free.
void NoteFree(void* ptr, size_t requested) {
  if (ptr == nullptr) return;
  if (!g_alloc_enabled.load(std::memory_order_relaxed)) return;
  int64_t bytes = static_cast<int64_t>(HeapBytes(ptr, requested));
  g_free_count.fetch_add(1, std::memory_order_relaxed);
  g_free_bytes.fetch_add(static_cast<uint64_t>(bytes),
                         std::memory_order_relaxed);
  g_live_bytes.fetch_sub(bytes, std::memory_order_relaxed);
  if (AllocationScope::Tally* tally = t_alloc_scope) {
    ++tally->free_count;
    tally->free_bytes += static_cast<uint64_t>(bytes);
    tally->live_bytes -= bytes;
  }
}

#endif  // NDE_ALLOC_INTERPOSE

}  // namespace

bool AllocAccountingCompiledIn() {
#if NDE_ALLOC_INTERPOSE
  return true;
#else
  return false;
#endif
}

void SetAllocAccountingEnabled(bool enabled) {
#if NDE_ALLOC_INTERPOSE
  g_alloc_enabled.store(enabled, std::memory_order_relaxed);
#else
  (void)enabled;
#endif
}

bool AllocAccountingEnabled() {
  return g_alloc_enabled.load(std::memory_order_relaxed);
}

AllocStats GlobalAllocStats() {
  AllocStats stats;
  stats.alloc_count = g_alloc_count.load(std::memory_order_relaxed);
  stats.alloc_bytes = g_alloc_bytes.load(std::memory_order_relaxed);
  stats.free_count = g_free_count.load(std::memory_order_relaxed);
  stats.free_bytes = g_free_bytes.load(std::memory_order_relaxed);
  stats.live_bytes = g_live_bytes.load(std::memory_order_relaxed);
  stats.peak_live_bytes = g_peak_live_bytes.load(std::memory_order_relaxed);
  return stats;
}

std::vector<std::pair<std::string, AllocStats>> AllocPhaseStats() {
  std::lock_guard<std::mutex> lock(PhaseMu());
  return {PhaseMap().begin(), PhaseMap().end()};
}

void ResetAllocStats() {
  g_alloc_count.store(0, std::memory_order_relaxed);
  g_alloc_bytes.store(0, std::memory_order_relaxed);
  g_free_count.store(0, std::memory_order_relaxed);
  g_free_bytes.store(0, std::memory_order_relaxed);
  g_live_bytes.store(0, std::memory_order_relaxed);
  g_peak_live_bytes.store(0, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(PhaseMu());
  PhaseMap().clear();
}

AllocationScope::AllocationScope(const char* phase) {
  if (!AllocAccountingCompiledIn() ||
      !g_alloc_enabled.load(std::memory_order_relaxed)) {
    return;
  }
  tally_.phase = phase;
  tally_.parent = t_alloc_scope;
  t_alloc_scope = &tally_;
  active_ = true;
}

AllocationScope::~AllocationScope() {
  if (!active_) return;
  // Restore the parent first: the flush below allocates (map node, string),
  // and those allocations must not land on the tally being flushed.
  t_alloc_scope = tally_.parent;
  std::lock_guard<std::mutex> lock(PhaseMu());
  AllocStats& stats = PhaseMap()[tally_.phase];
  stats.alloc_count += tally_.alloc_count;
  stats.alloc_bytes += tally_.alloc_bytes;
  stats.free_count += tally_.free_count;
  stats.free_bytes += tally_.free_bytes;
  stats.live_bytes += tally_.live_bytes;
  stats.peak_live_bytes =
      std::max(stats.peak_live_bytes, tally_.peak_live_bytes);
}

std::string AllocStatsTable() {
  std::ostringstream os;
  os << "alloc accounting: "
     << (AllocAccountingCompiledIn() ? "compiled in" : "compiled out") << ", "
     << (AllocAccountingEnabled() ? "enabled" : "disabled") << "\n";
  auto row = [&os](const std::string& name, const AllocStats& stats) {
    os << StrFormat("%-28s %10llu %14llu %10llu %14llu %14lld %14lld\n",
                    name.c_str(),
                    static_cast<unsigned long long>(stats.alloc_count),
                    static_cast<unsigned long long>(stats.alloc_bytes),
                    static_cast<unsigned long long>(stats.free_count),
                    static_cast<unsigned long long>(stats.free_bytes),
                    static_cast<long long>(stats.live_bytes),
                    static_cast<long long>(stats.peak_live_bytes));
  };
  os << StrFormat("%-28s %10s %14s %10s %14s %14s %14s\n", "phase", "allocs",
                  "alloc_bytes", "frees", "free_bytes", "live_bytes",
                  "peak_live");
  row("(global)", GlobalAllocStats());
  for (const auto& [phase, stats] : AllocPhaseStats()) row(phase, stats);
  return os.str();
}

}  // namespace telemetry
}  // namespace nde

// ---------------------------------------------------------------------------
// Global operator new/delete interposition (telemetry builds, non-sanitizer).
// Always malloc/free-backed so mixed new/delete across TUs stays consistent;
// when accounting is disabled the hooks reduce to one relaxed atomic load.
// ---------------------------------------------------------------------------

#if NDE_ALLOC_INTERPOSE

// GCC flags free() inside a replaced operator delete as a mismatched pair; it
// cannot see that the matching operator new above is malloc-backed.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

namespace {

void* AllocOrNull(std::size_t size) {
  return std::malloc(size ? size : 1);
}

void* AlignedAllocOrNull(std::size_t size, std::size_t alignment) {
  if (alignment < sizeof(void*)) alignment = sizeof(void*);
  void* ptr = nullptr;
  if (posix_memalign(&ptr, alignment, size ? size : 1) != 0) return nullptr;
  return ptr;
}

}  // namespace

void* operator new(std::size_t size) {
  void* ptr = AllocOrNull(size);
  if (ptr == nullptr) throw std::bad_alloc();
  nde::telemetry::NoteAlloc(ptr, size);
  return ptr;
}

void* operator new[](std::size_t size) {
  void* ptr = AllocOrNull(size);
  if (ptr == nullptr) throw std::bad_alloc();
  nde::telemetry::NoteAlloc(ptr, size);
  return ptr;
}

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  void* ptr = AllocOrNull(size);
  if (ptr != nullptr) nde::telemetry::NoteAlloc(ptr, size);
  return ptr;
}

void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  void* ptr = AllocOrNull(size);
  if (ptr != nullptr) nde::telemetry::NoteAlloc(ptr, size);
  return ptr;
}

void* operator new(std::size_t size, std::align_val_t alignment) {
  void* ptr = AlignedAllocOrNull(size, static_cast<std::size_t>(alignment));
  if (ptr == nullptr) throw std::bad_alloc();
  nde::telemetry::NoteAlloc(ptr, size);
  return ptr;
}

void* operator new[](std::size_t size, std::align_val_t alignment) {
  void* ptr = AlignedAllocOrNull(size, static_cast<std::size_t>(alignment));
  if (ptr == nullptr) throw std::bad_alloc();
  nde::telemetry::NoteAlloc(ptr, size);
  return ptr;
}

void* operator new(std::size_t size, std::align_val_t alignment,
                   const std::nothrow_t&) noexcept {
  void* ptr = AlignedAllocOrNull(size, static_cast<std::size_t>(alignment));
  if (ptr != nullptr) nde::telemetry::NoteAlloc(ptr, size);
  return ptr;
}

void* operator new[](std::size_t size, std::align_val_t alignment,
                     const std::nothrow_t&) noexcept {
  void* ptr = AlignedAllocOrNull(size, static_cast<std::size_t>(alignment));
  if (ptr != nullptr) nde::telemetry::NoteAlloc(ptr, size);
  return ptr;
}

void operator delete(void* ptr) noexcept {
  nde::telemetry::NoteFree(ptr, 0);
  std::free(ptr);
}

void operator delete[](void* ptr) noexcept {
  nde::telemetry::NoteFree(ptr, 0);
  std::free(ptr);
}

void operator delete(void* ptr, std::size_t size) noexcept {
  nde::telemetry::NoteFree(ptr, size);
  std::free(ptr);
}

void operator delete[](void* ptr, std::size_t size) noexcept {
  nde::telemetry::NoteFree(ptr, size);
  std::free(ptr);
}

void operator delete(void* ptr, const std::nothrow_t&) noexcept {
  nde::telemetry::NoteFree(ptr, 0);
  std::free(ptr);
}

void operator delete[](void* ptr, const std::nothrow_t&) noexcept {
  nde::telemetry::NoteFree(ptr, 0);
  std::free(ptr);
}

void operator delete(void* ptr, std::align_val_t) noexcept {
  nde::telemetry::NoteFree(ptr, 0);
  std::free(ptr);
}

void operator delete[](void* ptr, std::align_val_t) noexcept {
  nde::telemetry::NoteFree(ptr, 0);
  std::free(ptr);
}

void operator delete(void* ptr, std::size_t size, std::align_val_t) noexcept {
  nde::telemetry::NoteFree(ptr, size);
  std::free(ptr);
}

void operator delete[](void* ptr, std::size_t size,
                       std::align_val_t) noexcept {
  nde::telemetry::NoteFree(ptr, size);
  std::free(ptr);
}

void operator delete(void* ptr, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  nde::telemetry::NoteFree(ptr, 0);
  std::free(ptr);
}

void operator delete[](void* ptr, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  nde::telemetry::NoteFree(ptr, 0);
  std::free(ptr);
}

#endif  // NDE_ALLOC_INTERPOSE
