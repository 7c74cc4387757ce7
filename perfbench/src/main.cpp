// Easz serving benchmark: one workload per process.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--span-dir DIR]
//
// Untraced (--trace 0): rounds of a fresh set-up (median reported), the
// measured phases and the single-thread edge encode, then the output
// checks; prints every end-to-end metric. Traced (--trace 1): the same
// rounds with benchmark spans recorded in every other serving slice, then
// the stage-by-stage replay and the model and kernel probes; prints every
// per-layer metric and writes the spans as a Chrome trace under DIR.
// Either way the last stdout line is one JSON object
// {"correct", "attempted", "failed", "metrics"}; a host record line
// precedes it.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <limits>
#include <stdexcept>
#include <map>
#include <string>
#include <vector>

#include "host.hpp"
#include "layers.hpp"
#include "obs/histogram.hpp"
#include "phases.hpp"
#include "spans.hpp"
#include "util/affinity.hpp"
#include "util/parse.hpp"
#include "workload.hpp"

namespace {

using namespace perfbench;

constexpr double kRoundSeconds = 2.0;
constexpr int kReplayReps = 3;
constexpr int kModelReps = 20;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 0.0;
  bool trace = false;
  std::string span_dir = ".bench_build/spans";
};

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload {%s} --seed N "
               "--seconds S --trace 0|1 [--span-dir DIR]\n",
               why, workload_names().c_str());
  return 2;
}

// Metric name -> (value, unit), printed in insertion order. A value that
// is not finite (a quantile of an empty sample, a ratio of nothing) is
// printed as null and named in `undefined`; it fails the run's checks.
struct Metrics {
  std::vector<std::pair<std::string, std::pair<double, std::string>>> items;
  std::vector<std::string> undefined;
  void add(const std::string& name, double value, const std::string& unit) {
    if (!std::isfinite(value)) undefined.push_back(name);
    items.push_back({name, {value, unit}});
  }
  [[nodiscard]] std::string json() const {
    std::string out = "{";
    for (std::size_t i = 0; i < items.size(); ++i) {
      const double v = items[i].second.first;
      char value[64] = "null";
      if (std::isfinite(v)) std::snprintf(value, sizeof(value), "%.9g", v);
      char buf[256];
      std::snprintf(buf, sizeof(buf), "%s\"%s\":{\"value\":%s,\"unit\":\"%s\"}",
                    i == 0 ? "" : ",", items[i].first.c_str(), value,
                    items[i].second.second.c_str());
      out += buf;
    }
    return out + "}";
  }
};

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// Aggregate server statistics over the replicas of one fixture.
struct ServerTotals {
  double batches = 0, patches = 0, hits = 0, misses = 0;
  double busy_decode = 0, busy_forward = 0, busy_assemble = 0;
};
ServerTotals totals(const Fixture& fx) {
  ServerTotals t;
  for (const auto& s : fx.servers) {
    const serve::ServerStatsSnapshot st = s->stats();
    t.batches += static_cast<double>(st.batches);
    t.patches += static_cast<double>(st.batched_patches);
    t.hits += static_cast<double>(st.cache_hits);
    t.misses += static_cast<double>(st.cache_misses);
    t.busy_decode += st.stage_busy_decode_s;
    t.busy_forward += st.stage_busy_forward_s;
    t.busy_assemble += st.stage_busy_assemble_s;
  }
  return t;
}
ServerTotals operator-(const ServerTotals& a, const ServerTotals& b) {
  return {a.batches - b.batches, a.patches - b.patches, a.hits - b.hits,
          a.misses - b.misses, a.busy_decode - b.busy_decode,
          a.busy_forward - b.busy_forward, a.busy_assemble - b.busy_assemble};
}
ServerTotals& operator+=(ServerTotals& a, const ServerTotals& b) {
  a.batches += b.batches;
  a.patches += b.patches;
  a.hits += b.hits;
  a.misses += b.misses;
  a.busy_decode += b.busy_decode;
  a.busy_forward += b.busy_forward;
  a.busy_assemble += b.busy_assemble;
  return a;
}

std::vector<easz::obs::HistogramSnapshot> router_latency(const Fixture& fx) {
  std::vector<easz::obs::HistogramSnapshot> out;
  for (std::size_t r = 0; r < fx.servers.size(); ++r) {
    out.push_back(fx.router->replica_stats(r).latency);
  }
  return out;
}
std::vector<double> router_forwarded(const Fixture& fx) {
  std::vector<double> out;
  for (std::size_t r = 0; r < fx.servers.size(); ++r) {
    out.push_back(static_cast<double>(fx.router->replica_stats(r).forwarded));
  }
  return out;
}

// part / whole; NaN (an undefined metric) when there is no whole.
double share(double part, double whole) {
  return whole > 0.0 ? part / whole : std::numeric_limits<double>::quiet_NaN();
}
double ms(double s) { return s * 1e3; }

// Median of the per-forward sums of `name` spans over request ids
// [lo, hi).
double per_forward_ms(const std::vector<Span>& spans, const char* name,
                      std::uint64_t lo, std::uint64_t hi) {
  std::map<std::uint64_t, double> sums;
  for (const Span& s : spans) {
    if (s.request >= lo && s.request < hi && std::strcmp(s.name, name) == 0) {
      sums[s.request] += s.dur_s();
    }
  }
  std::vector<double> v;
  for (const auto& [id, sum] : sums) v.push_back(sum);
  return ms(median(v));
}

double p50_ms(const std::vector<Span>& spans, const char* name) {
  return ms(median(durations(spans, name)));
}

// Server-side stage figures of one round's replicas (socket workload: the
// server timings live inside the replicas), in ms. Each stage quantile is
// the request-count-weighted mean of the replicas' quantiles.
struct ReplicaStages {
  double qw50, qw99, bw50, dec50, rec50, asm50, unattr;
};
ReplicaStages replica_stages(const Fixture& fx) {
  using S = serve::ServerStatsSnapshot;
  using Q = serve::StageSummary;
  std::vector<S> stats;
  for (const auto& srv : fx.servers) stats.push_back(srv->stats());
  const auto stage_ms = [&](Q S::*stage, double Q::*q) {
    double weighted = 0.0, count = 0.0;
    for (const S& st : stats) {
      weighted += (st.*stage.*q) * static_cast<double>((st.*stage).count);
      count += static_cast<double>((st.*stage).count);
    }
    return ms(share(weighted, count));
  };
  // Quantiles of separate stages do not add up, so the unattributed time is
  // a mean over the requests that reached a worker: summed totals (cache
  // hits add ~0) minus summed stages, with each request charged its batch's
  // mean forward.
  double total_s = 0.0, stages_s = 0.0, decoded = 0.0;
  for (const S& st : stats) {
    const auto sum = [](const Q& q) {
      return q.mean_s * static_cast<double>(q.count);
    };
    total_s += sum(st.total);
    stages_s += sum(st.queue_wait) + sum(st.decode) + sum(st.batch_wait) +
                sum(st.assemble) +
                st.reconstruct.mean_s * static_cast<double>(st.decode.count);
    decoded += static_cast<double>(st.decode.count);
  }
  return {stage_ms(&S::queue_wait, &Q::p50_s), stage_ms(&S::queue_wait, &Q::p99_s),
          stage_ms(&S::batch_wait, &Q::p50_s), stage_ms(&S::decode, &Q::p50_s),
          stage_ms(&S::reconstruct, &Q::p50_s), stage_ms(&S::assemble, &Q::p50_s),
          ms(share(total_s - stages_s, decoded))};
}

}  // namespace

int main(int argc, char** argv) {
  const double t_start = now_s();
  Args args;
  bool have_seed = false, have_seconds = false, have_trace = false;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string flag = argv[i];
      if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
      const std::string value = argv[++i];
      if (flag == "--workload") {
        args.workload = value;
      } else if (flag == "--seed") {
        args.seed = static_cast<std::uint64_t>(easz::util::parse_int(
            value, "--seed", 0, std::numeric_limits<long long>::max()));
        have_seed = true;
      } else if (flag == "--seconds") {
        args.seconds = easz::util::parse_int32(value, "--seconds", 1, 3600);
        have_seconds = true;
      } else if (flag == "--trace") {
        args.trace = easz::util::parse_int32(value, "--trace", 0, 1) == 1;
        have_trace = true;
      } else if (flag == "--span-dir") {
        args.span_dir = value;
      } else {
        return usage(("unknown flag " + flag).c_str());
      }
    }
  } catch (const std::invalid_argument& e) {
    return usage(e.what());
  }
  const WorkloadSpec* spec = find_workload(args.workload);
  if (spec == nullptr) return usage("unknown or missing --workload");
  if (!have_seed || !have_seconds || !have_trace) {
    return usage("--seed, --seconds and --trace are required");
  }

  // Threads inherit their creator's CPU mask and the server pins its
  // workers within its creator's mask, so every set-up runs on the whole
  // affinity set; only then does this thread, the in-process submitter,
  // move to the last CPU, leaving the others to the pinned workers.
  cpu_set_t affinity;
  CPU_ZERO(&affinity);
  const bool have_affinity = sched_getaffinity(0, sizeof(affinity), &affinity) == 0;

  // ---- rounds: a fresh set-up, then one slice of each measured phase ------
  // Every round starts from a new set-up (model, inputs, servers, sockets,
  // warm-up) with cold caches, and then runs one slice of each phase, so
  // each metric samples the whole run rather than one stretch of it: on a
  // shared host the speed drifts over tens of seconds. setup_s is the median
  // of the rounds' set-up times; the first counts from process start. A
  // traced run records spans in every other serving slice and compares the
  // two kinds of slice for the overhead.
  const int rounds = std::max(
      1, static_cast<int>(std::lround(args.seconds / kRoundSeconds)));
  const double R = args.seconds / rounds;
  std::string host;
  std::vector<double> setup_times;
  std::unique_ptr<Fixture> fx;
  int attempted = 0, failed = 0;
  std::vector<PhaseResult> throughput_slices, latency_phase_slices;
  std::vector<double> untraced_mpps, traced_mpps;
  ServerTotals window_delta, latency_delta;
  double window_wall = 0.0;
  EdgeResult edge;
  std::size_t next = 0;
  std::vector<std::size_t> cursors;
  // Socket workload: router figures summed per replica over the rounds,
  // and the replicas' stage figures of each round.
  std::vector<easz::obs::HistogramSnapshot> router_delta;
  std::vector<double> forwarded_delta;
  std::vector<ReplicaStages> replica_rounds;
  for (int r = 0; r < rounds; ++r) {
    fx.reset();  // tear the previous round down outside the timing
    if (have_affinity) sched_setaffinity(0, sizeof(affinity), &affinity);
    const double t0 = r == 0 ? t_start : now_s();
    fx = make_fixture(*spec, args.seed);
    const WarmupResult warm = warm_up(*fx, *spec);
    setup_times.push_back(now_s() - t0);
    attempted += warm.attempted;
    failed += warm.failed;
    if (r == 0) {
      // After the first warm-up, once the ISA dispatch races have run.
      host = host_record_json();
      std::printf("host %s\n", host.c_str());
      std::fflush(stdout);
      cursors.assign(fx->clients.size(), 0);
      router_delta.resize(fx->servers.size());
      forwarded_delta.assign(fx->servers.size(), 0.0);
    }
    if (!spec->sockets) {
      easz::util::pin_current_thread_to_cpu(easz::util::affinity_cpu_count() - 1);
    }
    std::vector<easz::obs::HistogramSnapshot> router_before;
    std::vector<double> forwarded_before;
    if (spec->sockets) {
      router_before = router_latency(*fx);
      forwarded_before = router_forwarded(*fx);
    }

    const bool traced_slice = args.trace && r % 2 == 1;
    set_tracing(traced_slice);
    const ServerTotals t1 = totals(*fx);
    PhaseResult slice = spec->sockets
                            ? run_closed_loop(*fx, cursors, 0.9 * R)
                            : run_window(*fx, spec->window, next, 0.35 * R);
    const ServerTotals t2 = totals(*fx);
    window_delta += t2 - t1;
    window_wall += slice.wall_s;
    (traced_slice ? traced_mpps : untraced_mpps).push_back(slice.mpps());
    throughput_slices.push_back(std::move(slice));
    if (!spec->sockets) {
      set_tracing(args.trace);
      latency_phase_slices.push_back(
          run_window(*fx, spec->latency_window, next, 0.55 * R));
      latency_delta += totals(*fx) - t2;
    }
    set_tracing(false);
    run_edge_encode(*fx, 0.10 * R, edge);

    if (spec->sockets) {
      const std::vector<easz::obs::HistogramSnapshot> after = router_latency(*fx);
      const std::vector<double> forwarded_after = router_forwarded(*fx);
      for (std::size_t i = 0; i < after.size(); ++i) {
        easz::obs::HistogramSnapshot delta = after[i];
        for (std::size_t b = 0; b < delta.counts.size(); ++b) {
          delta.counts[b] -= router_before[i].counts[b];
        }
        delta.count -= router_before[i].count;
        delta.sum_s -= router_before[i].sum_s;
        router_delta[i].merge(delta);
        forwarded_delta[i] += forwarded_after[i] - forwarded_before[i];
      }
      replica_rounds.push_back(replica_stages(*fx));
    }
  }
  for (std::size_t i = 0; i < setup_times.size(); ++i) {
    std::fprintf(stderr, "%s%.4f", i == 0 ? "set-up times (s): " : " ",
                 setup_times[i]);
  }
  std::fprintf(stderr, "\n");
  const int workers =
      fx->workers_per_server * static_cast<int>(fx->servers.size());
  if (spec->sockets) latency_delta = window_delta;
  // Closed-loop slices give both throughput and latency.
  const std::vector<PhaseResult>& latency_slices =
      spec->sockets ? throughput_slices : latency_phase_slices;

  // ---- output checks (after every timed phase) ------------------------------
  std::vector<const PhaseResult*> checked;
  for (const PhaseResult& p : throughput_slices) checked.push_back(&p);
  for (const PhaseResult& p : latency_phase_slices) checked.push_back(&p);
  const CheckResult check = check_outputs(*fx, checked);
  int served_ok = 0, served_total = 0;
  for (const PhaseResult* p : checked) {
    for (const Served& s : p->served) {
      ++served_total;
      if (s.ok) ++served_ok;
    }
  }
  attempted += served_total + edge.attempted;
  failed += (served_total - served_ok) + check.wrong + edge.mismatched;
  bool correct = check.wrong == 0 && edge.mismatched == 0 && served_ok > 0;
  std::fprintf(stderr,
               "perfbench %s seed %llu: %d served (%d ok), %d mismatched, "
               "%d below the int8 PSNR floor (min %.2f dB), %d/%d edge "
               "re-encodes differ\n",
               spec->name.c_str(), static_cast<unsigned long long>(args.seed),
               served_total, served_ok, check.mismatched, check.below_floor,
               check.min_int8_psnr_db, edge.mismatched, edge.attempted);

  Metrics m;
  // Latency percentiles are taken in each third of the run and the median
  // of the three reported, so a slowdown of the host confined to one third
  // does not set the run's figure. At the default 30 s, each third holds
  // over a thousand requests, so at least ten lie beyond its p99. The p99
  // is reported with the traced run's layer metrics: on this shared host
  // it follows stalls of the virtual CPUs and spread by 28-46% over ten
  // seeds, above the largest bound an end-to-end metric may have.
  std::vector<double> lat;  // in slice order
  for (const PhaseResult& p : latency_slices) {
    for (const Served& s : p.served) {
      if (s.ok) lat.push_back(s.latency_s);
    }
  }
  std::vector<double> third_p50, third_p90, third_p99;
  for (std::size_t third = 0; third < 3; ++third) {
    const std::vector<double> part(lat.begin() + third * lat.size() / 3,
                                   lat.begin() + (third + 1) * lat.size() / 3);
    third_p50.push_back(quantile(part, 0.50));
    third_p90.push_back(quantile(part, 0.90));
    third_p99.push_back(quantile(part, 0.99));
  }
  if (!args.trace) {
    double bpp = 0.0;
    for (const Upload& u : fx->inputs.uploads) bpp += u.compressed.bpp();
    bpp /= static_cast<double>(fx->inputs.uploads.size());
    m.add("setup_s", median(setup_times), "s");
    m.add("throughput_mpps", median(untraced_mpps), "MP/s");
    m.add("latency_p50_ms", ms(median(third_p50)), "ms");
    m.add("latency_p90_ms", ms(median(third_p90)), "ms");
    m.add("edge_encode_mpps", median(edge.pass_mpps), "MP/s");
    m.add("upload_bpp", bpp, "bits/px");
    m.add("peak_rss_mb", peak_rss_mb(), "MB");
    std::fprintf(stderr, "latency sample: %zu requests\n", lat.size());
  } else {
    // ---- traced probes --------------------------------------------------
    const double mean_batch = share(window_delta.patches, window_delta.batches);
    const int batch =
        std::isfinite(mean_batch)
            ? std::clamp(static_cast<int>(std::lround(mean_batch)), 1, 32)
            : 1;
    set_tracing(true);
    const ReplayResult replay = replay_stages(*fx, kReplayReps);
    time_model(*fx, batch, spec->int8_tenant, kModelReps);
    set_tracing(false);
    attempted += replay.attempted;
    failed += replay.mismatched;
    correct = correct && replay.mismatched == 0;
    const std::vector<Span> spans = collect_spans();

    m.add("core.erase_squeeze_ms", p50_ms(spans, "core.erase_squeeze"), "ms");
    m.add("codec.encode_ms", p50_ms(spans, "codec.encode"), "ms");
    double decode_s = 0.0;
    for (const double d : durations(spans, "codec.decode")) decode_s += d;
    m.add("codec.decode_mpps", share(replay.decoded_pixels / 1e6, decode_s), "MP/s");
    m.add("core.unsqueeze_ms", p50_ms(spans, "core.unsqueeze"), "ms");
    m.add("core.tokenize_ms", p50_ms(spans, "core.tokenize"), "ms");
    m.add("core.untokenize_ms", p50_ms(spans, "core.untokenize"), "ms");
    m.add("core.deblock_ms", p50_ms(spans, "core.deblock"), "ms");

    const double fwd_fp32 = p50_ms(spans, "nn.reconstruct.fp32");
    const double fwd_int8 = p50_ms(spans, "nn.reconstruct.int8");
    const double enc = p50_ms(spans, "nn.encoder_block");
    const double dec = p50_ms(spans, "nn.decoder_block");
    const double embed_head = p50_ms(spans, "nn.embed") + p50_ms(spans, "nn.head");
    const core::ReconModelConfig mc = fx->model->config();
    const double fwd = spec->int8_tenant ? fwd_int8 : fwd_fp32;
    m.add("nn.forward_ms_per_patch.fp32", fwd_fp32 / batch, "ms");
    m.add("nn.forward_ms_per_patch.int8", fwd_int8 / batch, "ms");
    m.add("nn.encoder_block_ms", enc, "ms");
    m.add("nn.decoder_block_ms", dec, "ms");
    m.add("nn.embed_head_ms", embed_head, "ms");
    m.add("nn.forward_unattributed_share",
          share(fwd - (mc.encoder_blocks * enc + mc.decoder_blocks * dec +
                       embed_head),
                fwd),
          "share");

    const std::uint64_t fp32_lo = kKernFp32Ids + 1, fp32_hi = kKernFp32Ids + 1 + kModelReps;
    const std::uint64_t int8_lo = kKernInt8Ids + 1, int8_hi = kKernInt8Ids + 1 + kModelReps;
    const std::uint64_t row_lo = spec->int8_tenant ? int8_lo : fp32_lo;
    const std::uint64_t row_hi = spec->int8_tenant ? int8_hi : fp32_hi;
    m.add("tensor.gemm_ms", per_forward_ms(spans, "tensor.gemm", fp32_lo, fp32_hi), "ms");
    m.add("tensor.gemm_u8s8_ms",
          per_forward_ms(spans, "tensor.gemm_u8s8", int8_lo, int8_hi), "ms");
    m.add("tensor.softmax_ms", per_forward_ms(spans, "tensor.softmax", row_lo, row_hi), "ms");
    m.add("tensor.layernorm_ms",
          per_forward_ms(spans, "tensor.layernorm", row_lo, row_hi), "ms");
    m.add("tensor.quantize_ms",
          per_forward_ms(spans, "tensor.quantize", int8_lo, int8_hi), "ms");
    const double ffn_flops =
        2.0 * batch * mc.patchify.tokens() * mc.d_model * mc.ffn_hidden;
    m.add("tensor.gemm_gflops",
          share(ffn_flops / 1e9, median(durations(spans, "tensor.gemm_ffn"))),
          "GFLOP/s");

    // Server-side stage timings: in-process from each response's own
    // timing (latency slices); sockets from the replicas' statistics.
    double qw50, qw99, bw50, dec50, rec50, asm50, unattr50;
    if (!spec->sockets) {
      std::vector<double> qw, bw, de, re, as, un;
      for (const PhaseResult& p : latency_phase_slices) {
        for (const Served& s : p.served) {
          if (!s.ok) continue;
          const serve::RequestTiming& t = s.timing;
          qw.push_back(t.queue_wait_s);
          bw.push_back(t.batch_wait_s);
          de.push_back(t.decode_s);
          re.push_back(t.reconstruct_s);
          as.push_back(t.assemble_s);
          un.push_back(t.total_s - (t.queue_wait_s + t.decode_s +
                                    t.batch_wait_s + t.reconstruct_s +
                                    t.assemble_s));
        }
      }
      qw50 = ms(quantile(qw, 0.5));
      qw99 = ms(quantile(qw, 0.99));
      bw50 = ms(median(bw));
      dec50 = ms(median(de));
      rec50 = ms(median(re));
      asm50 = ms(median(as));
      unattr50 = ms(median(un));
    } else {
      // The median over the rounds of each round's replica figures
      // (warm-up requests included: the replicas keep no per-phase stats).
      const auto over_rounds = [&](double ReplicaStages::*field) {
        std::vector<double> v;
        for (const ReplicaStages& rs : replica_rounds) v.push_back(rs.*field);
        return median(v);
      };
      qw50 = over_rounds(&ReplicaStages::qw50);
      qw99 = over_rounds(&ReplicaStages::qw99);
      bw50 = over_rounds(&ReplicaStages::bw50);
      dec50 = over_rounds(&ReplicaStages::dec50);
      rec50 = over_rounds(&ReplicaStages::rec50);
      asm50 = over_rounds(&ReplicaStages::asm50);
      unattr50 = over_rounds(&ReplicaStages::unattr);
    }
    m.add("serve.queue_wait_ms_p50", qw50, "ms");
    m.add("serve.queue_wait_ms_p99", qw99, "ms");
    m.add("serve.batch_wait_ms_p50", bw50, "ms");
    m.add("serve.decode_ms_p50", dec50, "ms");
    m.add("serve.reconstruct_ms_p50", rec50, "ms");
    m.add("serve.assemble_ms_p50", asm50, "ms");
    m.add("serve.patches_per_forward", mean_batch, "patches");
    m.add("serve.forwards", latency_delta.batches, "count");
    const double worker_s = window_wall * workers;
    m.add("serve.busy_share.decode", share(window_delta.busy_decode, worker_s), "share");
    m.add("serve.busy_share.forward", share(window_delta.busy_forward, worker_s), "share");
    m.add("serve.busy_share.assemble", share(window_delta.busy_assemble, worker_s), "share");
    m.add("serve.unattributed_ms_p50", unattr50, "ms");
    // The in-process servers run with the result cache off: no lookups, so
    // no hits.
    m.add("serve.cache_hit_ratio",
          spec->sockets ? share(latency_delta.hits,
                                latency_delta.hits + latency_delta.misses)
                        : 0.0,
          "share");
    m.add("serve.wire.request_bytes", replay.request_bytes, "bytes");
    m.add("serve.wire.response_bytes", replay.response_bytes, "bytes");
    const double enc_req = p50_ms(spans, "serve.wire.encode_request");
    const double parse_resp = p50_ms(spans, "serve.wire.parse_response");
    m.add("serve.wire.encode_us",
          1e3 * (enc_req + p50_ms(spans, "serve.wire.encode_response")), "us");
    m.add("serve.wire.parse_us",
          1e3 * (p50_ms(spans, "serve.wire.parse_request") + parse_resp), "us");

    const double client_p50 = ms(median(lat));
    double replica_p50 = 0.0, imbalance = 0.0;
    if (spec->sockets) {
      easz::obs::HistogramSnapshot merged;
      double max_fwd = 0.0, sum_fwd = 0.0;
      for (std::size_t r = 0; r < router_delta.size(); ++r) {
        merged.merge(router_delta[r]);
        max_fwd = std::max(max_fwd, forwarded_delta[r]);
        sum_fwd += forwarded_delta[r];
      }
      replica_p50 = ms(merged.quantile(50.0));
      imbalance = share(max_fwd, sum_fwd / static_cast<double>(router_delta.size()));
    }
    m.add("serve.router.replica_ms_p50", replica_p50, "ms");
    m.add("serve.router.hop_ms_p50", spec->sockets ? client_p50 - replica_p50 : 0.0, "ms");
    m.add("serve.router.imbalance", imbalance, "ratio");

    double ledger = 0.0;
    if (!spec->sockets) {
      std::vector<double> uncovered;
      for (const PhaseResult& p : latency_phase_slices) {
        for (const Served& s : p.served) {
          if (!s.ok) continue;
          const serve::RequestTiming& t = s.timing;
          uncovered.push_back(s.latency_s -
                              (t.queue_wait_s + t.decode_s + t.batch_wait_s +
                               t.reconstruct_s + t.assemble_s));
        }
      }
      ledger = share(ms(median(uncovered)), client_p50);
    } else {
      ledger = share(client_p50 - (enc_req + replica_p50 + parse_resp), client_p50);
    }
    m.add("ledger.unattributed_share", ledger, "share");
    m.add("testbed.latency_p99_ms", ms(median(third_p99)), "ms");
    m.add("bench.trace_overhead_pct",
          100.0 * share(median(untraced_mpps) - median(traced_mpps),
                        median(untraced_mpps)),
          "%");

    std::error_code ec;
    std::filesystem::create_directories(args.span_dir, ec);
    const std::string path = args.span_dir + "/" + spec->name + "-seed" +
                             std::to_string(args.seed) + ".json";
    const std::string meta = "{\"workload\":\"" + spec->name +
                             "\",\"seed\":" + std::to_string(args.seed) +
                             ",\"host\":" + host + "}";
    if (write_chrome_trace(spans, path, meta)) {
      std::fprintf(stderr, "span dump: %s (%zu spans)\n", path.c_str(), spans.size());
    } else {
      std::fprintf(stderr, "span dump: cannot write %s\n", path.c_str());
    }
  }

  for (const std::string& name : m.undefined) {
    std::fprintf(stderr, "metric %s: no value (empty or undefined sample)\n",
                 name.c_str());
  }
  correct = correct && m.undefined.empty();
  fx.reset();
  std::printf("{\"correct\":%s,\"attempted\":%d,\"failed\":%d,\"metrics\":%s}\n",
              correct ? "true" : "false", attempted, failed, m.json().c_str());
  return 0;
}
