// Traced-run layer probes. Each records benchmark spans (spans.hpp) around
// the public library calls it makes; the per-layer metrics are read back
// from those spans.
#pragma once

#include <cstdint>

#include "workload.hpp"

namespace perfbench {

/// Request-id ranges of the probe spans, apart from the serving phases'
/// ids (which count up from 1).
inline constexpr std::uint64_t kReplayIds = 1ULL << 40;
inline constexpr std::uint64_t kKernFp32Ids = 2ULL << 40;
inline constexpr std::uint64_t kKernInt8Ids = 3ULL << 40;
inline constexpr std::uint64_t kProbeIds = 4ULL << 40;

struct ReplayResult {
  int attempted = 0;   ///< uploads replayed
  int mismatched = 0;  ///< replays whose edge bytes or pixels differ
  double request_bytes = 0.0;   ///< mean wire request frame size
  double response_bytes = 0.0;  ///< mean wire response frame size
  double decoded_pixels = 0.0;  ///< codec-decoded pixels, all replays
};

/// Replays a sample of the workload's uploads stage by stage on the
/// calling thread through the public stage functions: erase-and-squeeze,
/// codec encode (edge) and codec decode, unsqueeze, tokenise, the chunked
/// reconstruct, untokenise, deblock (server), then the wire encode and
/// parse of the request and of its response. Every replay must reproduce
/// the upload's bytes and the sequential decode's pixels.
ReplayResult replay_stages(Fixture& fx, int reps);

/// Times the transformer at `batch` patches: the model's whole
/// reconstruct at fp32 and int8, standalone blocks (encoder and decoder
/// token counts), embed and head Linears, and one forward's worth of
/// tensor::kern calls at fp32 and int8 plus the FFN-shaped GEMM alone.
/// `int8_blocks` selects infer_q for the standalone blocks and Linears.
void time_model(Fixture& fx, int batch, bool int8_blocks, int reps);

}  // namespace perfbench
