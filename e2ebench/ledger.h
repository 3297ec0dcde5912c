#ifndef NDE_E2EBENCH_LEDGER_H_
#define NDE_E2EBENCH_LEDGER_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"

namespace nde {
namespace e2e {

/// In-memory span ledger of the traced run. The benchmark opens a span
/// around each public call it makes (the library's own spans are not used),
/// keeps every span until the run ends, and derives per-layer self times:
/// a span's duration minus the part of its interval that its children
/// cover. Single-threaded: spans are opened and closed by the thread that
/// drives the op.
class Ledger {
 public:
  /// RAII handle: closes its span when it goes out of scope.
  class Scope {
   public:
    Scope(Ledger* ledger, const char* name, int64_t op);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Ledger* ledger_;
    size_t index_;
  };

  /// Per root span (one per op, in op order): the root's duration and each
  /// direct child's self time keyed by name ("" holds the root's own self
  /// time). Children with equal names add up.
  struct OpBreakdown {
    int64_t root_ns = 0;
    std::map<std::string, int64_t> self_ns;
  };
  std::vector<OpBreakdown> Breakdown() const;

  /// Writes every span as JSON: {"stamp":{...},"spans":[{"op","name",
  /// "parent","start_us","dur_us","self_us"}]}. `stamp_json` is an object.
  Status WriteJson(const std::string& path,
                   const std::string& stamp_json) const;

 private:
  struct Span {
    std::string name;
    int parent = -1;     ///< index of the enclosing span, -1 for a root
    int64_t op = 0;      ///< the op (request) this span belongs to
    int64_t start_ns = 0;
    int64_t end_ns = 0;  ///< 0 while the span is open
  };

  /// Self time of every span, index-aligned with spans_.
  std::vector<int64_t> SelfNs() const;
  size_t Open(const char* name, int64_t op);
  void Close(size_t index);

  std::vector<Span> spans_;
  std::vector<size_t> open_;  ///< stack of open span indices
};

/// Monotonic nanoseconds (steady clock).
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace e2e
}  // namespace nde

#endif  // NDE_E2EBENCH_LEDGER_H_
