#include "host.hpp"

#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "entropy/rans.hpp"
#include "obs/perf_counters.hpp"

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_CXX_FLAGS
#define PERFBENCH_CXX_FLAGS "unknown"
#endif

namespace perfbench {

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) >= 0x20) {
      out += c;
    }
  }
  return out;
}

std::string cpu_model() {
  std::ifstream f("/proc/cpuinfo");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) {
        return line.substr(line.find_first_not_of(' ', colon + 1));
      }
    }
  }
  return "unknown";
}

// The CPUs this process may run on, as ranges ("0-3").
std::string affinity_set() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return "unknown";
  std::string out;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &set)) continue;
    int last = cpu;
    while (last + 1 < CPU_SETSIZE && CPU_ISSET(last + 1, &set)) ++last;
    if (!out.empty()) out += ",";
    out += std::to_string(cpu);
    if (last > cpu) {
      out += '-';
      out += std::to_string(last);
    }
    cpu = last;
  }
  return out;
}

// The rule tensor::kern uses to pick its GEMM/softmax kernels at run time.
const char* kern_isa() {
#if defined(__x86_64__) || defined(__i386__)
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")
             ? "avx2+fma"
             : "baseline";
#else
  return "baseline";
#endif
}

// Which interleaved rANS decode kernel the library's dispatch selected in
// this process. The dispatch runs a timed race once per process when the
// CPU has AVX2, so the answer is read off the running decoder: the public
// decode is timed against the forced-scalar one on one synthetic stream
// (best of kReps, alternating). "avx2" when the public decode is at least
// kAvx2Margin faster; "scalar" when the CPU has no AVX2; "scalar_speed"
// when it has, but the dispatched decode runs no faster than the scalar
// kernel (the race chose scalar, or AVX2 gains nothing on this host).
// `speedup` is scalar time / public time.
struct RansDispatch {
  const char* path;
  double speedup;
};
RansDispatch rans_dispatch() {
  namespace en = easz::entropy;
  constexpr int kReps = 9;
  constexpr double kAvx2Margin = 1.15;
  constexpr std::size_t kSymbols = 16384;
  std::vector<int> symbols(kSymbols);
  std::vector<std::uint64_t> counts(32, 0);
  std::uint32_t lcg = 0x2545F491u;
  for (int& s : symbols) {
    lcg = lcg * 1664525u + 1013904223u;
    s = static_cast<int>((lcg >> 18U) % 5 + (lcg >> 27U) % 11);
    ++counts[static_cast<std::size_t>(s)];
  }
  const en::FrequencyTable table = en::FrequencyTable::from_counts(counts);
  const std::vector<std::uint8_t> stream =
      en::rans_encode_interleaved(symbols, table);
  const auto time_one = [&](auto&& decode) {
    const auto t0 = std::chrono::steady_clock::now();
    const std::vector<int> out = decode(stream.data(), stream.size(), kSymbols, table);
    const auto t1 = std::chrono::steady_clock::now();
    if (out != symbols) throw std::runtime_error("rans probe: decode mismatch");
    return std::chrono::duration<double>(t1 - t0).count();
  };
  double t_public = 1e9, t_scalar = 1e9;
  for (int rep = 0; rep < kReps; ++rep) {
    t_public = std::min(t_public, time_one(en::rans_decode_interleaved));
    t_scalar = std::min(t_scalar,
                        time_one(en::detail::rans_decode_interleaved_scalar));
  }
  const double speedup = t_scalar / t_public;
  if (!en::detail::rans_interleaved_avx2_available()) return {"scalar", speedup};
  return {speedup >= kAvx2Margin ? "avx2" : "scalar_speed", speedup};
}

}  // namespace

std::string host_record_json() {
  const char* commit = std::getenv("PERFBENCH_GIT_COMMIT");
  const easz::obs::PerfCounters counters;
  const RansDispatch rans = rans_dispatch();
  char buf[2048];
  std::snprintf(
      buf, sizeof(buf),
      "{\"cpu\":\"%s\",\"kern_isa\":\"%s\",\"rans_avx2_available\":%s,"
      "\"rans_dispatch\":\"%s\",\"rans_dispatch_speedup\":%.3f,"
      "\"nproc\":%u,\"affinity\":\"%s\",\"compiler\":\"%s\","
      "\"cxx_flags\":\"%s\",\"build_type\":\"%s\",\"git_commit\":\"%s\","
      "\"perf_event_open\":%s}",
      json_escape(cpu_model()).c_str(), kern_isa(),
      easz::entropy::detail::rans_interleaved_avx2_available() ? "true"
                                                                : "false",
      rans.path, rans.speedup, std::thread::hardware_concurrency(), affinity_set().c_str(),
      json_escape(PERFBENCH_COMPILER).c_str(),
      json_escape(PERFBENCH_CXX_FLAGS).c_str(),
      json_escape(PERFBENCH_BUILD_TYPE).c_str(),
      json_escape(commit != nullptr && *commit != '\0' ? commit : "unknown")
          .c_str(),
      counters.available() ? "true" : "false");
  return buf;
}

}  // namespace perfbench
