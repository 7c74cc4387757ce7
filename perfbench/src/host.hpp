// Host and build record printed with every report.
#pragma once

#include <string>

namespace perfbench {

/// One JSON object: CPU model, the ISA path tensor::kern dispatches to,
/// whether the CPU offers the AVX2 rANS decoder and which rANS decode path
/// the process's dispatch selected (call it after a warm-up has decoded),
/// nproc and the affinity set, compiler, flags and
/// build type, git commit (from PERFBENCH_GIT_COMMIT, else "unknown"), and
/// whether perf_event_open could open any counter.
std::string host_record_json();

}  // namespace perfbench
