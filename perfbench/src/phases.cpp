#include "phases.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstring>
#include <map>
#include <mutex>
#include <thread>

#include "metrics/distortion.hpp"
#include "serve/wire.hpp"
#include "spans.hpp"

namespace perfbench {

namespace {

constexpr int kWarmupRounds = 4;

// Request ids shared by every span of one request, unique across phases.
std::atomic<std::uint64_t> g_next_request{1};

serve::ServeRequest to_request(const Fixture& fx, const Upload& u) {
  serve::ServeRequest r;
  r.compressed = u.compressed;
  r.codec = fx.codec->name();
  r.tenant = u.tenant;
  return r;
}

// 64-bit hash of a byte range (equality check of served pixels).
std::uint64_t hash_bytes(const void* data, std::size_t size) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t h = 0x9E3779B97F4A7C15ULL ^ size;
  std::size_t i = 0;
  for (; i + 8 <= size; i += 8) {
    std::uint64_t w;
    std::memcpy(&w, p + i, 8);
    h = (h ^ w) * 0xFF51AFD7ED558CCDULL;
    h ^= h >> 32;
  }
  for (; i < size; ++i) h = (h ^ p[i]) * 0x100000001B3ULL;
  return h ^ (h >> 29);
}

std::uint64_t hash_image(const image::Image& img) {
  return hash_bytes(img.data().data(), img.data().size() * sizeof(float));
}

// Lays the server's own per-request stage timings out on the request's
// timeline, starting at the submit instant, as child spans of `parent`.
void record_stage_spans(std::uint64_t id, double sent_s,
                        const serve::RequestTiming& t) {
  struct Stage {
    const char* name;
    double dur;
  };
  const Stage stages[] = {{"serve.queue_wait", t.queue_wait_s},
                          {"serve.decode", t.decode_s},
                          {"serve.batch_wait", t.batch_wait_s},
                          {"serve.reconstruct", t.reconstruct_s},
                          {"serve.assemble", t.assemble_s}};
  double at = sent_s;
  for (const Stage& s : stages) {
    record(s.name, id, "testbed.request", at, at + s.dur);
    at += s.dur;
  }
}

// Shared bookkeeping of one in-process phase: requests in flight and the
// outcomes their callbacks deliver.
struct InFlight {
  std::mutex mu;
  std::condition_variable cv;
  int inflight = 0;
  std::vector<Served> served;
  double megapixels = 0.0;

  void wait_below(int limit) {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return inflight < limit; });
  }
  void settle(Served s, double mp) {
    std::lock_guard<std::mutex> lock(mu);
    if (s.ok) megapixels += mp;
    served.push_back(s);
    --inflight;
    cv.notify_all();
  }
};

// Submits upload `u` (recorded as `index`) asynchronously; the outcome lands
// in `flight`.
void submit_one(const Fixture& fx, serve::ReconServer& server,
                InFlight& flight, const Upload& u, std::size_t index) {
  const std::uint64_t id = g_next_request.fetch_add(1);
  {
    std::lock_guard<std::mutex> lock(flight.mu);
    ++flight.inflight;
  }
  const double sent_s = now_s();
  const double mp = u.megapixels();
  serve::SubmitStatus status;
  {
    ScopedSpan span("serve.submit", id, "testbed.request");
    status = server.submit_async(
        to_request(fx, u),
        [&flight, index, sent_s, id, mp](serve::ServeResponse response,
                                          std::exception_ptr error) {
          const double settled_s = now_s();
          Served s;
          s.upload = index;
          s.latency_s = settled_s - sent_s;
          if (!error && response.image) {
            s.ok = true;
            s.hash = hash_image(*response.image);
            s.rung = response.rung;
            s.timing = response.timing;
          }
          if (tracing()) {
            record("testbed.request", id, "", sent_s, settled_s);
            record_stage_spans(id, sent_s, s.timing);
          }
          flight.settle(s, mp);
        });
  }
  if (status != serve::SubmitStatus::kAccepted) {
    Served s;
    s.upload = index;
    flight.settle(s, 0.0);  // shed: counted as a failed operation
  }
}

}  // namespace

WarmupResult warm_up(Fixture& fx, const WorkloadSpec& spec) {
  const std::vector<Upload>& warm = fx.inputs.warmup;
  WarmupResult result;
  result.attempted = kWarmupRounds * static_cast<int>(warm.size());
  if (spec.sockets) {
    // Every camera connection sends the warm-up frames of its own camera.
    std::vector<std::thread> cams;
    std::mutex mu;
    int failed = 0;
    for (std::size_t c = 0; c < fx.clients.size(); ++c) {
      cams.emplace_back([&, c] {
        int bad = 0;
        for (int round = 0; round < kWarmupRounds; ++round) {
          for (const Upload& u : warm) {
            if (u.config != c) continue;
            serve::wire::WireRequest w;
            w.codec = fx.codec->name();
            w.compressed = u.compressed;
            try {
              const serve::wire::WireResponse r = fx.clients[c].roundtrip(w);
              if (r.status != serve::wire::ResponseStatus::kOk) ++bad;
            } catch (const std::exception&) {
              ++bad;
            }
          }
        }
        std::lock_guard<std::mutex> lock(mu);
        failed += bad;
      });
    }
    for (std::thread& t : cams) t.join();
    result.failed = failed;
    return result;
  }
  serve::ReconServer& server = *fx.servers.front();
  InFlight flight;
  for (int round = 0; round < kWarmupRounds; ++round) {
    for (std::size_t i = 0; i < warm.size(); ++i) {
      flight.wait_below(spec.window);
      submit_one(fx, server, flight, warm[i], i);
    }
  }
  flight.wait_below(1);
  for (const Served& s : flight.served) {
    if (!s.ok) ++result.failed;
  }
  return result;
}

PhaseResult run_window(Fixture& fx, int window, std::size_t& next,
                       double seconds) {
  serve::ReconServer& server = *fx.servers.front();
  const std::vector<std::size_t>& order = fx.inputs.sequences.front();
  InFlight flight;
  const double t0 = now_s();
  while (now_s() - t0 < seconds) {
    flight.wait_below(window);
    const std::size_t index = order[next++ % order.size()];
    submit_one(fx, server, flight, fx.inputs.uploads[index], index);
  }
  flight.wait_below(1);
  PhaseResult r;
  r.wall_s = now_s() - t0;
  r.served = std::move(flight.served);
  r.megapixels = flight.megapixels;
  return r;
}

PhaseResult run_closed_loop(Fixture& fx, std::vector<std::size_t>& cursors,
                            double seconds) {
  const std::vector<std::vector<std::size_t>>& seqs = fx.inputs.sequences;
  std::vector<std::vector<Served>> per_cam(seqs.size());
  std::vector<double> per_cam_mp(seqs.size(), 0.0);
  const double t0 = now_s();
  std::vector<std::thread> cams;
  for (std::size_t c = 0; c < seqs.size(); ++c) {
    cams.emplace_back([&, c] {
      serve::WireClient& client = fx.clients[c];
      std::size_t& cursor = cursors[c];
      bool broken = false;
      while (!broken && now_s() - t0 < seconds) {
        const std::size_t index = seqs[c][cursor % seqs[c].size()];
        ++cursor;
        const Upload& u = fx.inputs.uploads[index];
        const std::uint64_t id = g_next_request.fetch_add(1);
        serve::wire::WireRequest w;
        w.client_tag = id;
        w.codec = fx.codec->name();
        w.compressed = u.compressed;
        Served s;
        s.upload = index;
        const double start_s = now_s();
        try {
          const std::vector<std::uint8_t> frame = serve::wire::encode_request(w);
          const double encoded_s = now_s();
          client.send_frame(frame);
          const double sent_s = now_s();
          const serve::wire::WireResponse resp = client.recv_response(30.0);
          const double done_s = now_s();
          s.latency_s = done_s - start_s;
          if (resp.status == serve::wire::ResponseStatus::kOk &&
              resp.client_tag == id) {
            s.ok = true;
            s.hash = hash_bytes(resp.pixels.data(), resp.pixels.size());
            s.rung = resp.rung;
            per_cam_mp[c] += u.megapixels();
          }
          if (tracing()) {
            record("client.roundtrip", id, "", start_s, done_s);
            record("serve.wire.encode_request", id, "client.roundtrip",
                   start_s, encoded_s);
            record("client.send", id, "client.roundtrip", encoded_s, sent_s);
            record("client.recv", id, "client.roundtrip", sent_s, done_s);
          }
        } catch (const std::exception&) {
          broken = true;  // the connection cannot carry further requests
        }
        per_cam[c].push_back(s);
      }
    });
  }
  for (std::thread& t : cams) t.join();
  PhaseResult r;
  r.wall_s = now_s() - t0;
  for (std::size_t c = 0; c < seqs.size(); ++c) {
    r.served.insert(r.served.end(), per_cam[c].begin(), per_cam[c].end());
    r.megapixels += per_cam_mp[c];
  }
  return r;
}

void run_edge_encode(Fixture& fx, double seconds, EdgeResult& acc) {
  const Inputs& in = fx.inputs;
  std::vector<core::EaszPipeline> edges;
  for (const core::EaszConfig& cfg : in.configs) {
    edges.emplace_back(cfg, *fx.codec, nullptr);
  }
  double pass_mp = 0.0;
  for (const Upload& u : in.uploads) pass_mp += u.megapixels();

  const double t0 = now_s();
  do {
    const double p0 = now_s();
    for (const Upload& u : in.uploads) {
      const core::EaszCompressed c =
          edges[u.config].encode(in.originals[u.original]);
      const core::EaszCompressed& want = u.compressed;
      if (c.payload.bytes != want.payload.bytes ||
          c.mask_bytes != want.mask_bytes ||
          c.full_width != want.full_width ||
          c.full_height != want.full_height ||
          c.padded_width != want.padded_width ||
          c.padded_height != want.padded_height ||
          c.erased_per_row != want.erased_per_row || c.axis != want.axis) {
        ++acc.mismatched;
      }
    }
    acc.pass_mpps.push_back(pass_mp / (now_s() - p0));
    acc.attempted += static_cast<int>(in.uploads.size());
  } while (now_s() - t0 < seconds);
}

CheckResult check_outputs(Fixture& fx,
                          const std::vector<const PhaseResult*>& phases) {
  const core::EaszPipeline pipe = reference_pipeline(fx);
  struct Reference {
    std::uint64_t hash = 0;
    bool within_floor = true;
  };
  std::map<std::size_t, Reference> reference;  // by upload index
  CheckResult r;
  for (const PhaseResult* phase : phases) {
    for (const Served& s : phase->served) {
      if (!s.ok) continue;
      auto it = reference.find(s.upload);
      if (it == reference.end()) {
        const Upload& u = fx.inputs.uploads[s.upload];
        const image::Image ref = pipe.decode(u.compressed, u.precision);
        Reference entry{hash_image(ref), true};
        if (u.precision == nn::Precision::kInt8) {
          const image::Image fp32 =
              pipe.decode(u.compressed, nn::Precision::kFp32);
          const double db = easz::metrics::psnr(ref, fp32);
          if (r.min_int8_psnr_db == 0.0 || db < r.min_int8_psnr_db) {
            r.min_int8_psnr_db = db;
          }
          entry.within_floor = db >= kInt8PsnrFloorDb;
        }
        it = reference.emplace(s.upload, entry).first;
      }
      // The ladder is off in every workload, so every request must come
      // back at full quality (rung 0); any other rung is a wrong output.
      const bool mismatch = s.rung != 0 || s.hash != it->second.hash;
      if (mismatch) ++r.mismatched;
      if (!it->second.within_floor) ++r.below_floor;
      if (mismatch || !it->second.within_floor) ++r.wrong;
    }
  }
  return r;
}

}  // namespace perfbench
