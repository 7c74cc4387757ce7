// In-memory span recorder and small statistics helpers for the serving
// benchmark.
//
// A span is one timed call the benchmark makes into a layer of the library
// (or one stage duration the library itself reported, laid out on the
// request's timeline). Spans of one request share `request`; `parent` names
// the span that caused it. Recording is off unless the run is traced, so an
// untraced run pays one relaxed atomic load per would-be span and records
// nothing. Spans land in per-thread buffers and are only written out (as a
// Chrome trace JSON) when the run ends.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Seconds since an arbitrary process-wide epoch (steady clock).
double now_s();

struct Span {
  const char* name = "";  ///< static string: a layer-prefixed call name
  std::uint64_t request = 0;  ///< shared by every span of one request
  const char* parent = "";    ///< name of the causing span ("" = root)
  double start_s = 0.0;       ///< on the now_s() clock
  double end_s = 0.0;
  [[nodiscard]] double dur_s() const { return end_s - start_s; }
};

/// Turns recording on or off (process-wide). Off by default.
void set_tracing(bool on);
[[nodiscard]] bool tracing();

/// Records one span when tracing is on; no-op otherwise. Thread-safe.
void record(const char* name, std::uint64_t request, const char* parent,
            double start_s, double end_s);

/// Times a scope into one span when tracing is on.
class ScopedSpan {
 public:
  ScopedSpan(const char* name, std::uint64_t request, const char* parent)
      : name_(name), request_(request), parent_(parent), on_(tracing()),
        start_(on_ ? now_s() : 0.0) {}
  ~ScopedSpan() {
    if (on_) record(name_, request_, parent_, start_, now_s());
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  const char* name_;
  std::uint64_t request_;
  const char* parent_;
  bool on_;
  double start_;
};

/// Every span recorded so far, from all threads. Call after the threads
/// that record have finished or been joined.
[[nodiscard]] std::vector<Span> collect_spans();

/// Durations (seconds) of every collected span named `name`.
[[nodiscard]] std::vector<double> durations(const std::vector<Span>& spans,
                                            const std::string& name);

/// Writes the spans as a Chrome trace ("traceEvents", complete events, µs)
/// with `meta` (a JSON object text) under "otherData". Returns false when
/// the file cannot be written.
bool write_chrome_trace(const std::vector<Span>& spans, const std::string& path,
                        const std::string& meta);

/// Linear-interpolated quantile (p in [0, 1]) of an unsorted sample; NaN
/// when empty, so a metric taken from no sample fails the run's checks.
[[nodiscard]] double quantile(std::vector<double> values, double p);
[[nodiscard]] inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

}  // namespace perfbench
