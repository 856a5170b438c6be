// Lightweight structured tracing (DESIGN.md §4d).
//
// Thread-local ring buffers of spans, counters and instants, timestamped on
// the steady clock and rendered as Chrome trace-event JSON — load the output
// in chrome://tracing or https://ui.perfetto.dev. Disabled by default: every
// recording helper is gated on one relaxed atomic load and performs no clock
// read, lock or allocation when tracing is off, so instrumented hot paths
// cost one predictable branch.
//
// Enable programmatically (trace::enable): `carecc --trace=<file>`, or
// CARE_TRACE=<file> for the programs that read the environment (carecc,
// the benches, the tests); an atexit hook writes the file. A literal `%p`
// in the path expands to the PID so concurrent processes (e.g. a parallel
// ctest run) don't clobber each other's traces.
//
// Event names and categories are NOT copied: pass string literals (or
// strings that outlive the trace).
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <string>

namespace care::trace {

using Clock = std::chrono::steady_clock;

namespace detail {
extern std::atomic<bool> gEnabled;
void emitSpan(const char* name, const char* cat, Clock::time_point begin,
              Clock::time_point end);
void emitCounter(const char* name, double value, Clock::time_point at);
void emitInstant(const char* name, const char* cat, Clock::time_point at);
} // namespace detail

/// Is tracing armed? One relaxed load; every recording helper below is a
/// no-op when this is false.
inline bool enabled() {
  return detail::gEnabled.load(std::memory_order_relaxed);
}

/// Arm tracing. `path` (after `%p` -> PID expansion) is where write() and
/// the atexit hook emit the JSON document; `ringCapacity` bounds each
/// per-thread buffer — once full, the oldest events are overwritten and
/// counted, so memory stays fixed no matter how long the process runs.
/// The capacity applies to threads that record their first event after the
/// call; already-registered buffers keep theirs.
void enable(const std::string& path, std::size_t ringCapacity = 1u << 15);

/// Stop recording. Buffered events are kept (write() still works).
void disable();

/// The resolved output path ("" when enable() was never called).
std::string outputPath();

/// Drop all buffered events; buffers stay registered and tracing stays in
/// its current armed state. For scoping a trace to one campaign and tests.
void reset();

/// Number of events currently buffered across all threads (post-wrap).
std::size_t bufferedEvents();

/// Render everything buffered as one Chrome trace-event JSON document.
std::string render();

/// render() to the enable()d path (or an explicit one). Returns false when
/// no path is known or the file cannot be written.
bool write();
bool write(const std::string& path);

/// Record a completed span over an externally timed interval [begin, end).
/// For code that already takes boundary timestamps (Safeguard's phase
/// breakdown) — no second clock read.
inline void span(const char* name, const char* cat, Clock::time_point begin,
                 Clock::time_point end) {
  if (enabled()) detail::emitSpan(name, cat, begin, end);
}

/// Record a counter sample (a Chrome "C" event).
inline void counter(const char* name, double value) {
  if (enabled()) detail::emitCounter(name, value, Clock::now());
}

/// Record an instantaneous event (a Chrome "i" event).
inline void instant(const char* name, const char* cat = "care") {
  if (enabled()) detail::emitInstant(name, cat, Clock::now());
}

/// RAII span: times construction -> destruction (or end()). The armed state
/// is latched at construction, so enabling tracing mid-span records
/// nothing for that span.
class Span {
public:
  explicit Span(const char* name, const char* cat = "care")
      : name_(name), cat_(cat), armed_(enabled()) {
    if (armed_) begin_ = Clock::now();
  }
  ~Span() { end(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Close the span early (idempotent).
  void end() {
    if (!armed_) return;
    armed_ = false;
    detail::emitSpan(name_, cat_, begin_, Clock::now());
  }

private:
  const char* name_;
  const char* cat_;
  bool armed_;
  Clock::time_point begin_{};
};

} // namespace care::trace
