// The measured phases of a run: warm-up, the in-process closed windows
// (saturation and latency), the socket closed loop, the single-thread edge
// encode, and the correctness checks that follow them.
#pragma once

#include <cstdint>
#include <vector>

#include "workload.hpp"

namespace perfbench {

/// Outcome of one request as the client saw it.
struct Served {
  std::size_t upload = 0;  ///< index into Inputs::uploads
  bool ok = false;         ///< settled with an image (not shed or failed)
  std::uint64_t hash = 0;  ///< of the returned image's float bytes
  int rung = 0;
  /// In-process: submit -> settled. Sockets: start of the request's wire
  /// encode -> response received.
  double latency_s = 0.0;
  serve::RequestTiming timing;  ///< in-process only
};

struct PhaseResult {
  std::vector<Served> served;
  double wall_s = 0.0;
  double megapixels = 0.0;  ///< original megapixels of completed requests
  [[nodiscard]] double mpps() const {
    return wall_s > 0.0 ? megapixels / wall_s : 0.0;
  }
};

struct WarmupResult {
  int attempted = 0;
  int failed = 0;  ///< shed, failed or broken-connection requests
};

/// Runs the warm-up uploads through the serving path a fixed number of
/// rounds.
WarmupResult warm_up(Fixture& fx, const WorkloadSpec& spec);

/// In-process closed window: `window` requests kept in flight from one
/// submitter thread for `seconds`, then drained. Requests walk the pool
/// order from `next` on (advanced past the last one sent).
PhaseResult run_window(Fixture& fx, int window, std::size_t& next,
                       double seconds);

/// Socket closed loop: every camera connection sends its sequence (from
/// its cursor on) and waits for each reply, for `seconds`.
PhaseResult run_closed_loop(Fixture& fx, std::vector<std::size_t>& cursors,
                            double seconds);

struct EdgeResult {
  std::vector<double> pass_mpps;  ///< original MP / seconds, one per pass
  int attempted = 0;   ///< encodes run
  int mismatched = 0;  ///< encodes whose bytes differ from the upload
};

/// Single-thread EaszPipeline::encode over every original, pass after
/// pass, for `seconds` (at least one pass), accumulated into `acc`; each
/// output is compared with the upload it made during set-up.
void run_edge_encode(Fixture& fx, double seconds, EdgeResult& acc);

struct CheckResult {
  int wrong = 0;       ///< served requests failing either check below
  int mismatched = 0;  ///< served requests whose bytes differ from reference
  int below_floor = 0; ///< int8 requests whose upload misses the PSNR floor
  double min_int8_psnr_db = 0.0;  ///< lowest int8-vs-fp32 PSNR seen (0: none)
};

/// PSNR (dB) an int8 reconstruction must keep against the fp32 sequential
/// decode of the same upload.
inline constexpr double kInt8PsnrFloorDb = 30.0;

/// Reference check of served outputs: each distinct served upload is decoded
/// sequentially with EaszPipeline::decode at its precision (and rung); every
/// completed request must match that reference byte for byte. Int8 uploads
/// are also decoded at fp32 and must stay within kInt8PsnrFloorDb of it.
CheckResult check_outputs(Fixture& fx, const std::vector<const PhaseResult*>& phases);

}  // namespace perfbench
