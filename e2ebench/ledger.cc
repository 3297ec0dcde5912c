#include "ledger.h"

#include <algorithm>
#include <fstream>
#include <utility>

#include "telemetry/trace.h"

namespace nde {
namespace e2e {

Ledger::Scope::Scope(Ledger* ledger, const char* name, int64_t op)
    : ledger_(ledger), index_(ledger->Open(name, op)) {}

Ledger::Scope::~Scope() { ledger_->Close(index_); }

size_t Ledger::Open(const char* name, int64_t op) {
  Span span;
  span.name = name;
  span.parent = open_.empty() ? -1 : static_cast<int>(open_.back());
  span.op = op;
  span.start_ns = NowNs();
  spans_.push_back(std::move(span));
  open_.push_back(spans_.size() - 1);
  return spans_.size() - 1;
}

void Ledger::Close(size_t index) {
  spans_[index].end_ns = NowNs();
  // Scopes nest, so the span closing is the innermost open one.
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

std::vector<int64_t> Ledger::SelfNs() const {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(
      spans_.size());
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      children[static_cast<size_t>(span.parent)].emplace_back(span.start_ns,
                                                              span.end_ns);
    }
  }
  std::vector<int64_t> self(spans_.size(), 0);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    std::vector<std::pair<int64_t, int64_t>>& intervals = children[i];
    std::sort(intervals.begin(), intervals.end());
    // Length of the union of the children's intervals, clipped to the span.
    int64_t covered = 0;
    int64_t cursor = span.start_ns;
    for (auto [begin, end] : intervals) {
      begin = std::max(begin, cursor);
      end = std::min(end, span.end_ns);
      if (end > begin) {
        covered += end - begin;
        cursor = end;
      }
    }
    self[i] = (span.end_ns - span.start_ns) - covered;
  }
  return self;
}

std::vector<Ledger::OpBreakdown> Ledger::Breakdown() const {
  std::vector<int64_t> self = SelfNs();
  std::vector<OpBreakdown> ops;
  std::vector<int> root_slot(spans_.size(), -1);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    if (span.parent < 0) {
      root_slot[i] = static_cast<int>(ops.size());
      OpBreakdown op;
      op.root_ns = span.end_ns - span.start_ns;
      op.self_ns[""] = self[i];
      ops.push_back(std::move(op));
      continue;
    }
    int slot = root_slot[static_cast<size_t>(span.parent)];
    if (slot >= 0) ops[static_cast<size_t>(slot)].self_ns[span.name] += self[i];
  }
  return ops;
}

Status Ledger::WriteJson(const std::string& path,
                         const std::string& stamp_json) const {
  std::ofstream out(path);
  if (!out) return Status::IOError("cannot write " + path);
  std::vector<int64_t> self = SelfNs();
  out << "{\"stamp\":" << stamp_json << ",\"spans\":[";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    if (i > 0) out << ",";
    out << "\n{\"op\":" << span.op << ",\"name\":\""
        << telemetry::JsonEscape(span.name) << "\",\"parent\":" << span.parent
        << ",\"start_us\":" << (span.start_ns - spans_.front().start_ns) / 1000
        << ",\"dur_us\":" << (span.end_ns - span.start_ns) / 1000
        << ",\"self_us\":" << self[i] / 1000 << "}";
  }
  out << "]}\n";
  out.close();
  if (!out) return Status::IOError("short write to " + path);
  return Status::OK();
}

}  // namespace e2e
}  // namespace nde
