#ifndef NDE_TELEMETRY_TELEMETRY_H_
#define NDE_TELEMETRY_TELEMETRY_H_

/// Macro API for instrumenting nde hot paths.
///
/// Two gates keep telemetry zero-cost when unwanted:
///   1. Compile time: building with -DNDE_TELEMETRY_ENABLED=0 (CMake option
///      `NDE_TELEMETRY=OFF`) turns every macro below into a no-op, so the
///      instrumented code is byte-identical to uninstrumented code.
///   2. Runtime: even when compiled in, recording is off until
///      `telemetry::SetEnabled(true)`; each macro costs one relaxed atomic
///      load while disabled.
///
/// The class APIs (MetricsRegistry, TraceBuffer, ScopedSpan, Histogram, ...)
/// exist in both build modes; only the macros compile out.

#include "telemetry/metrics.h"
#include "telemetry/trace.h"

#ifndef NDE_TELEMETRY_ENABLED
#define NDE_TELEMETRY_ENABLED 1
#endif

#define NDE_TELEMETRY_CONCAT_INNER(a, b) a##b
#define NDE_TELEMETRY_CONCAT(a, b) NDE_TELEMETRY_CONCAT_INNER(a, b)

#if NDE_TELEMETRY_ENABLED

/// Opens an anonymous RAII span covering the rest of the enclosing scope.
/// Note: `name` and `category` are evaluated even when telemetry is runtime-
/// disabled (only the recording is skipped), so pass cheap expressions here;
/// anything expensive belongs behind a `telemetry::Enabled()` check.
#define NDE_TRACE_SPAN(name, category)                           \
  ::nde::telemetry::ScopedSpan NDE_TELEMETRY_CONCAT(             \
      nde_trace_span_, __COUNTER__)(name, category)

/// Opens a named RAII span so call sites can attach args:
///   NDE_TRACE_SPAN_VAR(span, "fit", "encoder");
///   span.AddArg("rows", rows);
#define NDE_TRACE_SPAN_VAR(var, name, category) \
  ::nde::telemetry::ScopedSpan var(name, category)

/// Attaches an arg to a span declared with NDE_TRACE_SPAN_VAR. The value
/// expression is not evaluated when telemetry is compiled out.
#define NDE_SPAN_ARG(var, key, value) (var).AddArg(key, value)

// The metric macros resolve their metric through the registry once per call
// site, into a function-local static reference, so a hit is one relaxed load
// of the runtime gate plus a lock-free update — no registry mutex or name
// lookup on per-evaluation paths. This is safe because the global registry is
// never destroyed and MetricsRegistry::Reset zeroes metrics in place. Hence
// `name` must be the same at every execution of a site (a string literal).

/// Increments the named global counter by `delta`.
#define NDE_METRIC_COUNT(name, delta)                                        \
  do {                                                                       \
    if (::nde::telemetry::Enabled()) {                                       \
      static ::nde::telemetry::Counter& nde_site_counter =                   \
          ::nde::telemetry::MetricsRegistry::Global().GetCounter(name);      \
      nde_site_counter.Increment(static_cast<uint64_t>(delta));              \
    }                                                                        \
  } while (0)

/// Sets the named global gauge.
#define NDE_METRIC_GAUGE_SET(name, value)                                  \
  do {                                                                     \
    if (::nde::telemetry::Enabled()) {                                     \
      static ::nde::telemetry::Gauge& nde_site_gauge =                     \
          ::nde::telemetry::MetricsRegistry::Global().GetGauge(name);      \
      nde_site_gauge.Set(static_cast<double>(value));                      \
    }                                                                      \
  } while (0)

/// Records a sample into the named global histogram (default ms buckets).
#define NDE_METRIC_RECORD(name, value)                                     \
  do {                                                                     \
    if (::nde::telemetry::Enabled()) {                                     \
      static ::nde::telemetry::Histogram& nde_site_histogram =             \
          ::nde::telemetry::MetricsRegistry::Global().GetHistogram(name);  \
      nde_site_histogram.Record(static_cast<double>(value));               \
    }                                                                      \
  } while (0)

#else  // !NDE_TELEMETRY_ENABLED

namespace nde {
namespace telemetry {

/// Stand-in for ScopedSpan when telemetry is compiled out; lets call sites
/// written against NDE_TRACE_SPAN_VAR / NDE_SPAN_ARG compile to nothing.
struct NoopSpan {
  double ElapsedMs() const { return 0.0; }
  bool active() const { return false; }
};

}  // namespace telemetry
}  // namespace nde

#define NDE_TRACE_SPAN(name, category) \
  do {                                 \
  } while (0)

#define NDE_TRACE_SPAN_VAR(var, name, category) \
  [[maybe_unused]] ::nde::telemetry::NoopSpan var

#define NDE_SPAN_ARG(var, key, value) \
  do {                                \
  } while (0)

#define NDE_METRIC_COUNT(name, delta) \
  do {                                \
  } while (0)

#define NDE_METRIC_GAUGE_SET(name, value) \
  do {                                    \
  } while (0)

#define NDE_METRIC_RECORD(name, value) \
  do {                                 \
  } while (0)

#endif  // NDE_TELEMETRY_ENABLED

#endif  // NDE_TELEMETRY_TELEMETRY_H_
