// The benchmark's three traffic workloads: their fixed configuration, the
// inputs generated from the run's seed, and the live serving fixture (model,
// codecs, servers and, for the socket workload, transports, router and
// client connections) one set-up builds.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "codec/codec.hpp"
#include "core/pipeline.hpp"
#include "core/recon_model.hpp"
#include "serve/router.hpp"
#include "serve/server.hpp"
#include "serve/transport.hpp"

namespace perfbench {

namespace core = easz::core;
namespace serve = easz::serve;
namespace nn = easz::nn;
namespace image = easz::image;

struct WorkloadSpec {
  std::string name;
  bool sockets = false;       ///< closed loop over loopback via the router
  std::string codec;          ///< "jpeg" or "bpg"
  int quality = 75;
  bool int8_tenant = false;   ///< model calibrated to int8 during set-up
  int window = 0;             ///< in-process: saturation in-flight window
  int latency_window = 0;     ///< in-process: latency-slice in-flight window
};

/// The workload of that name, or nullptr.
const WorkloadSpec* find_workload(const std::string& name);
/// Names of every workload, for usage text.
std::string workload_names();

/// One edge upload of the workload.
struct Upload {
  core::EaszCompressed compressed;
  std::size_t original = 0;  ///< index into Inputs::originals
  std::size_t config = 0;    ///< index into Inputs::configs (its edge config)
  std::string tenant;        ///< "" rides the default tenant
  nn::Precision precision = nn::Precision::kFp32;  ///< precision served at
  [[nodiscard]] double megapixels() const {
    return static_cast<double>(compressed.full_width) *
           compressed.full_height / 1e6;
  }
};

/// Everything generated from the seed. Measured uploads and warm-up uploads
/// come from distinct originals, so warm-up never fills the result cache
/// with a measured key.
struct Inputs {
  std::vector<image::Image> originals;  ///< of the measured uploads
  std::vector<core::EaszConfig> configs;
  std::vector<Upload> uploads;          ///< measured pool
  std::vector<Upload> warmup;
  /// Sockets: each camera's send sequence (indices into uploads; a stuck
  /// trigger repeats an index back to back). In-process: one seeded
  /// permutation of the pool in sequences[0].
  std::vector<std::vector<std::size_t>> sequences;
};

/// Model shape every workload serves (the serve runtime's test shape:
/// 16-px patches of 4-px sub-patches, d_model 64).
core::ReconModelConfig model_config();

/// A served workload: what one set-up builds and the measured phases use.
/// Members are declared in construction order; destruction stops the
/// clients, router and transports before the servers they front.
struct Fixture {
  std::unique_ptr<core::ReconstructionModel> model;
  std::unique_ptr<easz::codec::ImageCodec> codec;
  Inputs inputs;
  std::vector<std::unique_ptr<serve::ReconServer>> servers;
  std::vector<std::unique_ptr<serve::ServeTransport>> transports;
  std::unique_ptr<serve::ReplicaRouter> router;
  std::vector<serve::WireClient> clients;  ///< one connection per camera
  int workers_per_server = 0;

  Fixture() = default;
  Fixture(const Fixture&) = delete;
  Fixture& operator=(const Fixture&) = delete;
  ~Fixture();
};

/// Builds the model (and int8 calibration), inputs, servers and — for the
/// socket workload — transports, router and client connections. Warm-up is
/// run separately (see phases.hpp) so the caller can time set-up end to end.
std::unique_ptr<Fixture> make_fixture(const WorkloadSpec& spec,
                                      std::uint64_t seed);

/// Sequential reference decoder for the fixture's uploads.
core::EaszPipeline reference_pipeline(Fixture& fx);

}  // namespace perfbench
