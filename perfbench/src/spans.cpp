#include "spans.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <limits>
#include <memory>
#include <mutex>

namespace perfbench {

namespace {

const Clock::time_point g_epoch = Clock::now();
std::atomic<bool> g_tracing{false};

// Per-thread buffers, owned by a registry so collect_spans() can read the
// buffers of threads that have already exited.
struct Registry {
  std::mutex mu;
  std::vector<std::unique_ptr<std::vector<Span>>> buffers;
};
Registry& registry() {
  static Registry r;
  return r;
}

std::vector<Span>& thread_buffer() {
  thread_local std::vector<Span>* buf = [] {
    Registry& r = registry();
    std::lock_guard<std::mutex> lock(r.mu);
    r.buffers.push_back(std::make_unique<std::vector<Span>>());
    r.buffers.back()->reserve(4096);
    return r.buffers.back().get();
  }();
  return *buf;
}

}  // namespace

double now_s() {
  return std::chrono::duration<double>(Clock::now() - g_epoch).count();
}

void set_tracing(bool on) { g_tracing.store(on, std::memory_order_relaxed); }
bool tracing() { return g_tracing.load(std::memory_order_relaxed); }

void record(const char* name, std::uint64_t request, const char* parent,
            double start_s, double end_s) {
  if (!tracing()) return;
  thread_buffer().push_back(Span{name, request, parent, start_s, end_s});
}

std::vector<Span> collect_spans() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  std::vector<Span> all;
  for (const auto& buf : r.buffers) all.insert(all.end(), buf->begin(), buf->end());
  std::sort(all.begin(), all.end(),
            [](const Span& a, const Span& b) { return a.start_s < b.start_s; });
  return all;
}

std::vector<double> durations(const std::vector<Span>& spans,
                              const std::string& name) {
  std::vector<double> out;
  for (const Span& s : spans) {
    if (name == s.name) out.push_back(s.dur_s());
  }
  return out;
}

bool write_chrome_trace(const std::vector<Span>& spans, const std::string& path,
                        const std::string& meta) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"otherData\":%s,\"traceEvents\":[\n", meta.c_str());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    // One Chrome "thread" row per request keeps each request's spans
    // stacked together in the viewer.
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%llu,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"parent\":\"%s\"}}\n",
                 i == 0 ? "" : ",", s.name,
                 static_cast<unsigned long long>(s.request), s.start_s * 1e6,
                 s.dur_s() * 1e6, s.parent);
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

double quantile(std::vector<double> values, double p) {
  if (values.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(values.begin(), values.end());
  const double pos = std::clamp(p, 0.0, 1.0) * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

}  // namespace perfbench
