#include "layers.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <vector>

#include "core/deblock.hpp"
#include "core/patchify.hpp"
#include "core/squeeze.hpp"
#include "phases.hpp"
#include "serve/wire.hpp"
#include "spans.hpp"
#include "tensor/kernels.hpp"
#include "util/prng.hpp"

namespace perfbench {

namespace {

namespace kern = easz::tensor::kern;
using easz::tensor::Tensor;

constexpr int kReplaySamples = 16;

// Times one call into a span of the given request.
template <typename F>
auto timed(const char* name, std::uint64_t id, const char* parent, F&& fn) {
  ScopedSpan span(name, id, parent);
  return fn();
}

// The chunked reconstruct EaszPipeline::decode runs between tokenise and
// untokenise.
Tensor reconstruct_chunked(const core::ReconstructionModel& model,
                           const Tensor& tokens, const core::EraseMask& mask,
                           nn::Precision precision) {
  const int patches = tokens.dim(0);
  const int total = tokens.dim(1);
  const int td = tokens.dim(2);
  const std::size_t per_patch = static_cast<std::size_t>(total) * td;
  Tensor out({patches, total, td});
  for (int start = 0; start < patches;
       start += core::EaszPipeline::kReconstructChunk) {
    const int count =
        std::min(core::EaszPipeline::kReconstructChunk, patches - start);
    Tensor chunk({count, total, td});
    std::copy_n(tokens.data().begin() + start * per_patch, count * per_patch,
                chunk.data().begin());
    const Tensor r = model.reconstruct(chunk, mask, precision);
    std::copy_n(r.data().begin(), count * per_patch,
                out.data().begin() + start * per_patch);
  }
  return out;
}

std::vector<float> random_floats(std::size_t n, easz::util::Pcg32& rng) {
  std::vector<float> v(n);
  for (float& x : v) x = rng.next_float() * 2.0F - 1.0F;
  return v;
}

// Standalone Linear of one forward shape, quantized from a calibration
// pass over random activations so its int8 state is usable too.
struct ProbeLinear {
  int in = 0;
  int out = 0;
  bool gelu = false;
  std::unique_ptr<nn::Linear> layer;
  std::vector<float> weight;  // [in, out] for the raw fp32 GEMM
  std::vector<float> bias;
};

ProbeLinear make_probe_linear(int in, int out, bool gelu,
                              easz::util::Pcg32& rng) {
  ProbeLinear p;
  p.in = in;
  p.out = out;
  p.gelu = gelu;
  p.layer = std::make_unique<nn::Linear>(in, out, rng);
  p.weight = random_floats(static_cast<std::size_t>(in) * out, rng);
  p.bias = random_floats(static_cast<std::size_t>(out), rng);
  const int rows = 64;
  const std::vector<float> x = random_floats(static_cast<std::size_t>(rows) * in, rng);
  std::vector<float> y(static_cast<std::size_t>(rows) * out);
  nn::set_calibration(true);
  p.layer->infer(x.data(), y.data(), rows);
  nn::set_calibration(false);
  p.layer->build_quant(p.layer->observed_absmax());
  return p;
}

void quantize_block(nn::TransformerBlock& block, const float* x, int batch,
                    int tokens, int d_model) {
  std::vector<float> out(static_cast<std::size_t>(batch) * tokens * d_model);
  kern::Workspace& ws = kern::Workspace::for_this_thread();
  ws.reset();
  nn::set_calibration(true);
  block.infer(x, out.data(), batch, tokens, ws);
  nn::set_calibration(false);
  std::vector<nn::Linear*> linears;
  block.collect_linears(linears);
  for (nn::Linear* l : linears) l->build_quant(l->observed_absmax());
}

// One forward's worth of tensor::kern calls at `batch` patches, in the
// order ReconstructionModel::infer makes them, each call a span of `id`.
class ForwardCalls {
 public:
  ForwardCalls(const core::ReconModelConfig& mc, int batch, int kept,
               easz::util::Pcg32& rng)
      : mc_(mc), batch_(batch), kept_(kept),
        total_(mc.patchify.tokens()),
        td_(mc.patchify.token_dim(mc.channels)) {
    const int d = mc.d_model;
    embed_ = make_probe_linear(td_, d, false, rng);
    qkv_ = make_probe_linear(d, 3 * d, false, rng);
    proj_ = make_probe_linear(d, d, false, rng);
    fc1_ = make_probe_linear(d, mc.ffn_hidden, true, rng);
    fc2_ = make_probe_linear(mc.ffn_hidden, d, false, rng);
    head_ = make_probe_linear(d, td_, false, rng);
    const std::size_t rows = static_cast<std::size_t>(batch) * total_;
    const std::size_t width = static_cast<std::size_t>(
        std::max({3 * d, mc.ffn_hidden, td_, d}));
    x_ = random_floats(rows * width, rng);
    y_.assign(rows * width, 0.0F);
    q_.assign(rows * width, 0);
    gamma_.assign(static_cast<std::size_t>(d), 1.0F);
    beta_.assign(static_cast<std::size_t>(d), 0.0F);
    scores_.assign(static_cast<std::size_t>(batch) * mc.num_heads * total_ *
                       total_, 0.0F);
  }

  void run(bool int8, std::uint64_t id) {
    const char* parent = int8 ? "tensor.forward.int8" : "tensor.forward.fp32";
    const double t0 = now_s();
    linear(embed_, batch_ * kept_, int8, id, parent);
    for (int b = 0; b < mc_.encoder_blocks; ++b) block(kept_, int8, id, parent);
    for (int b = 0; b < mc_.decoder_blocks; ++b) block(total_, int8, id, parent);
    linear(head_, batch_ * total_, int8, id, parent);
    record(parent, id, "", t0, now_s());
  }

  /// The FFN's first GEMM alone (fused bias + GELU), at decoder rows.
  void ffn_gemm(std::uint64_t id) {
    ScopedSpan span("tensor.gemm_ffn", id, "");
    fp32_gemm(fc1_, batch_ * total_);
  }

 private:
  void fp32_gemm(const ProbeLinear& p, int rows) {
    kern::GemmOpts o;
    o.bias = p.bias.data();
    o.gelu = p.gelu;
    kern::gemm(x_.data(), static_cast<std::size_t>(p.in), p.weight.data(),
               static_cast<std::size_t>(p.out), y_.data(),
               static_cast<std::size_t>(p.out), rows, p.in, p.out, o);
  }

  void linear(const ProbeLinear& p, int rows, bool int8, std::uint64_t id,
              const char* parent) {
    if (!int8) {
      ScopedSpan span("tensor.gemm", id, parent);
      fp32_gemm(p, rows);
      return;
    }
    const nn::Linear::QuantState& q = p.layer->quant();
    {
      ScopedSpan span("tensor.quantize", id, parent);
      kern::quantize_rows_u8(x_.data(), q_.data(),
                             static_cast<std::size_t>(rows) * p.in, q.act_scale);
    }
    ScopedSpan span("tensor.gemm_u8s8", id, parent);
    kern::QuantGemmOpts o;
    o.bias = p.bias.data();
    o.gelu = p.gelu;
    kern::gemm_u8s8(q_.data(), static_cast<std::size_t>(p.in), q.packed,
                    y_.data(), static_cast<std::size_t>(p.out), rows, p.in,
                    p.out, q.dq_scale.data(), q.col_sum.data(), o);
  }

  void layernorm(int rows, std::uint64_t id, const char* parent) {
    ScopedSpan span("tensor.layernorm", id, parent);
    kern::layernorm_rows(x_.data(), gamma_.data(), beta_.data(), y_.data(),
                         static_cast<std::size_t>(rows), mc_.d_model);
  }

  // The attention core: one task per (patch, head), three passes so each
  // kernel kind gets its own span; the inner kernels run serial, as in
  // MultiHeadAttention::attend.
  void attention(int tokens, std::uint64_t id, const char* parent) {
    const int d = mc_.d_model;
    const int heads = mc_.num_heads;
    const int hd = d / heads;
    const std::size_t ld = 3 * static_cast<std::size_t>(d);
    const float* qkv = x_.data();
    float* sc = scores_.data();
    const auto slab = [&](int task) {
      return sc + static_cast<std::size_t>(task) * tokens * tokens;
    };
    const auto head_base = [&](int task) {
      return qkv + static_cast<std::size_t>(task / heads) * tokens * ld +
             static_cast<std::size_t>(task % heads) * hd;
    };
    {
      ScopedSpan span("tensor.gemm", id, parent);
      kern::parallel_for(batch_ * heads, [&](int task) {
        kern::GemmOpts o;
        o.transpose_b = true;
        o.scale = 1.0F / std::sqrt(static_cast<float>(hd));
        o.parallel = false;
        kern::gemm(head_base(task), ld, head_base(task) + d, ld, slab(task),
                   static_cast<std::size_t>(tokens), tokens, hd, tokens, o);
      });
    }
    {
      ScopedSpan span("tensor.softmax", id, parent);
      kern::parallel_for(batch_ * heads, [&](int task) {
        kern::softmax_rows(slab(task), static_cast<std::size_t>(tokens),
                           tokens, /*parallel=*/false);
      });
    }
    ScopedSpan span("tensor.gemm", id, parent);
    kern::parallel_for(batch_ * heads, [&](int task) {
      kern::GemmOpts o;
      o.parallel = false;
      float* out = y_.data() + static_cast<std::size_t>(task / heads) * tokens * d +
                   static_cast<std::size_t>(task % heads) * hd;
      kern::gemm(slab(task), static_cast<std::size_t>(tokens),
                 head_base(task) + 2 * d, ld, out, static_cast<std::size_t>(d),
                 tokens, tokens, hd, o);
    });
  }

  void block(int tokens, bool int8, std::uint64_t id, const char* parent) {
    const int rows = batch_ * tokens;
    layernorm(rows, id, parent);
    linear(qkv_, rows, int8, id, parent);
    attention(tokens, id, parent);
    linear(proj_, rows, int8, id, parent);
    layernorm(rows, id, parent);
    linear(fc1_, rows, int8, id, parent);
    linear(fc2_, rows, int8, id, parent);
    layernorm(rows, id, parent);
  }

  core::ReconModelConfig mc_;
  int batch_;
  int kept_;
  int total_;
  int td_;
  ProbeLinear embed_, qkv_, proj_, fc1_, fc2_, head_;
  std::vector<float> x_, y_, gamma_, beta_, scores_;
  std::vector<std::uint8_t> q_;
};

}  // namespace

ReplayResult replay_stages(Fixture& fx, int reps) {
  const Inputs& in = fx.inputs;
  const core::PatchifyConfig pc = fx.model->config().patchify;
  const core::EaszPipeline ref_pipe = reference_pipeline(fx);
  std::vector<core::EaszPipeline> edges;
  for (const core::EaszConfig& cfg : in.configs) {
    edges.emplace_back(cfg, *fx.codec, nullptr);
  }
  const std::size_t n = std::min<std::size_t>(kReplaySamples, in.uploads.size());
  std::vector<std::size_t> sample;
  std::vector<std::shared_ptr<const image::Image>> reference;
  for (std::size_t i = 0; i < n; ++i) {
    sample.push_back(i * in.uploads.size() / n);
    const Upload& u = in.uploads[sample.back()];
    reference.push_back(std::make_shared<const image::Image>(
        ref_pipe.decode(u.compressed, u.precision)));
  }

  ReplayResult r;
  for (int rep = 0; rep < reps; ++rep) {
    for (std::size_t i = 0; i < n; ++i) {
      const Upload& u = in.uploads[sample[i]];
      const core::EaszConfig& cfg = in.configs[u.config];
      const core::EaszCompressed& c = u.compressed;
      const std::uint64_t id = kReplayIds + static_cast<std::uint64_t>(rep) * n + i;
      const char* root = "replay.upload";
      const double t0 = now_s();

      // Edge: pad, erase-and-squeeze, codec encode.
      const image::Image& original = in.originals[u.original];
      const core::PaddedGeometry g =
          core::padded_geometry(original.width(), original.height(), pc.patch);
      const image::Image padded = original.pad_to(g.padded_w, g.padded_h);
      const core::EraseMask mask = edges[u.config].make_mask();
      const image::Image squeezed = timed("core.erase_squeeze", id, root, [&] {
        return core::erase_and_squeeze(padded, mask, pc, cfg.axis);
      });
      const easz::codec::Compressed payload = timed(
          "codec.encode", id, root, [&] { return fx.codec->encode(squeezed); });

      // Server: the stages EaszPipeline::decode runs, one call at a time.
      const image::Image decoded = timed(
          "codec.decode", id, root, [&] { return fx.codec->decode(c.payload); });
      r.decoded_pixels += static_cast<double>(decoded.pixel_count());
      const core::EraseMask emask =
          core::EraseMask::from_bytes(c.mask_bytes, pc.grid(), c.erased_per_row);
      const image::Image zero = timed("core.unsqueeze", id, root, [&] {
        return core::unsqueeze(decoded, emask, pc, c.padded_width,
                               c.padded_height, c.axis);
      });
      const Tensor tokens = timed("core.tokenize", id, root,
                                  [&] { return core::image_to_tokens(zero, pc); });
      const core::EraseMask recon_mask =
          c.axis == core::SqueezeAxis::kVertical ? emask.transposed() : emask;
      const Tensor recon = timed("nn.forward", id, root, [&] {
        return reconstruct_chunked(*fx.model, tokens, recon_mask, u.precision);
      });
      image::Image img = timed("core.untokenize", id, root, [&] {
        return core::tokens_to_image(recon, zero.width(), zero.height(),
                                     zero.channels(), pc);
      });
      img = timed("core.deblock", id, root,
                  [&] { return core::deblock_erased(img, recon_mask, pc); });
      if (img.width() != c.full_width || img.height() != c.full_height) {
        img = img.crop(0, 0, c.full_width, c.full_height);
      }

      // Wire: the request frame an edge client sends and the response
      // frame a replica returns for it.
      serve::wire::WireRequest w;
      w.tenant = u.tenant;
      w.codec = fx.codec->name();
      w.compressed = c;
      const std::vector<std::uint8_t> req = timed(
          "serve.wire.encode_request", id, root,
          [&] { return serve::wire::encode_request(w); });
      const std::vector<std::uint8_t> req_body(
          req.begin() + serve::wire::kLengthPrefixBytes, req.end());
      const serve::wire::WireRequest parsed = timed(
          "serve.wire.parse_request", id, root,
          [&] { return serve::wire::parse_request(req_body); });
      serve::ServeResponse sr;
      sr.image = reference[i];
      const serve::wire::WireResponse wr = serve::wire::make_ok_response(sr);
      const std::vector<std::uint8_t> resp = timed(
          "serve.wire.encode_response", id, root,
          [&] { return serve::wire::encode_response(wr); });
      const std::vector<std::uint8_t> resp_body(
          resp.begin() + serve::wire::kLengthPrefixBytes, resp.end());
      const serve::wire::WireResponse parsed_resp = timed(
          "serve.wire.parse_response", id, root,
          [&] { return serve::wire::parse_response(resp_body); });
      record(root, id, "", t0, now_s());

      r.request_bytes += static_cast<double>(req.size());
      r.response_bytes += static_cast<double>(resp.size());
      ++r.attempted;
      const bool same =
          payload.bytes == c.payload.bytes &&
          img.data() == reference[i]->data() &&
          parsed.compressed.payload.bytes == c.payload.bytes &&
          parsed_resp.pixels == wr.pixels;
      if (!same) ++r.mismatched;
    }
  }
  if (r.attempted > 0) {
    r.request_bytes /= r.attempted;
    r.response_bytes /= r.attempted;
  }
  return r;
}

void time_model(Fixture& fx, int batch, bool int8_blocks, int reps) {
  const core::ReconModelConfig mc = fx.model->config();
  const int total = mc.patchify.tokens();
  const int td = mc.patchify.token_dim(mc.channels);
  const int d = mc.d_model;
  easz::util::Pcg32 rng(0xB10C);

  // A batch of the workload's own decoded patches, tiled to `batch`.
  const core::EaszPipeline pipe = reference_pipeline(fx);
  const core::DecodedTokens dec =
      pipe.decode_tokens(fx.inputs.uploads.front().compressed);
  const int have = dec.tokens.dim(0);
  const std::size_t per_patch = static_cast<std::size_t>(total) * td;
  Tensor tokens({batch, total, td});
  for (int b = 0; b < batch; ++b) {
    std::copy_n(dec.tokens.data().begin() + (b % have) * per_patch, per_patch,
                tokens.data().begin() + b * per_patch);
  }
  const core::EraseMask& mask = dec.recon_mask;
  const int kept = mask.kept_count();

  // The int8 forward needs a quantized model; a workload that serves only
  // fp32 gets an identical model calibrated on these same patches.
  std::unique_ptr<core::ReconstructionModel> calibrated;
  const core::ReconstructionModel* int8_model = fx.model.get();
  if (!fx.model->is_quantized()) {
    easz::util::Pcg32 model_rng(77);
    calibrated = std::make_unique<core::ReconstructionModel>(mc, model_rng);
    calibrated->calibrate_and_quantize({{tokens, mask}});
    int8_model = calibrated.get();
  }
  for (int rep = -2; rep < reps; ++rep) {  // two unrecorded warm calls
    const bool keep = rep >= 0;
    const std::uint64_t id = kProbeIds + static_cast<std::uint64_t>(std::max(rep, 0));
    const double a = now_s();
    (void)fx.model->reconstruct(tokens, mask, nn::Precision::kFp32);
    const double b = now_s();
    (void)int8_model->reconstruct(tokens, mask, nn::Precision::kInt8);
    const double c = now_s();
    if (keep) {
      record("nn.reconstruct.fp32", id, "", a, b);
      record("nn.reconstruct.int8", id, "", b, c);
    }
  }

  // Standalone block, embed and head at the model's dims.
  nn::TransformerBlock block(d, mc.num_heads, mc.ffn_hidden, rng);
  nn::Linear embed(td, d, rng);
  nn::Linear head(d, td, rng);
  const std::vector<float> x_enc =
      random_floats(static_cast<std::size_t>(batch) * kept * d, rng);
  const std::vector<float> x_dec =
      random_floats(static_cast<std::size_t>(batch) * total * d, rng);
  const std::vector<float> x_tok =
      random_floats(static_cast<std::size_t>(batch) * kept * td, rng);
  std::vector<float> out(static_cast<std::size_t>(batch) * total * d);
  std::vector<float> out_tok(static_cast<std::size_t>(batch) * total * td);
  if (int8_blocks) {
    quantize_block(block, x_dec.data(), batch, total, d);
    std::vector<float> scratch(static_cast<std::size_t>(batch) * total *
                               std::max(d, td));
    nn::set_calibration(true);
    embed.infer(x_tok.data(), scratch.data(), batch * kept);
    head.infer(x_dec.data(), scratch.data(), batch * total);
    nn::set_calibration(false);
    embed.build_quant(embed.observed_absmax());
    head.build_quant(head.observed_absmax());
  }
  kern::Workspace& ws = kern::Workspace::for_this_thread();
  for (int rep = -2; rep < reps; ++rep) {
    const bool keep = rep >= 0;
    const std::uint64_t id = kProbeIds + static_cast<std::uint64_t>(std::max(rep, 0));
    double t[5];
    t[0] = now_s();
    ws.reset();
    if (int8_blocks) {
      block.infer_q(x_enc.data(), out.data(), batch, kept, ws);
    } else {
      block.infer(x_enc.data(), out.data(), batch, kept, ws);
    }
    t[1] = now_s();
    ws.reset();
    if (int8_blocks) {
      block.infer_q(x_dec.data(), out.data(), batch, total, ws);
    } else {
      block.infer(x_dec.data(), out.data(), batch, total, ws);
    }
    t[2] = now_s();
    if (int8_blocks) {
      embed.infer_q(x_tok.data(), out.data(), batch * kept);
    } else {
      embed.infer(x_tok.data(), out.data(), batch * kept);
    }
    t[3] = now_s();
    if (int8_blocks) {
      head.infer_q(x_dec.data(), out_tok.data(), batch * total);
    } else {
      head.infer(x_dec.data(), out_tok.data(), batch * total);
    }
    t[4] = now_s();
    if (keep) {
      record("nn.encoder_block", id, "", t[0], t[1]);
      record("nn.decoder_block", id, "", t[1], t[2]);
      record("nn.embed", id, "", t[2], t[3]);
      record("nn.head", id, "", t[3], t[4]);
    }
  }

  ForwardCalls calls(mc, batch, kept, rng);
  calls.run(false, kKernFp32Ids);  // unrecorded warm pass
  calls.run(true, kKernInt8Ids);
  for (int rep = 0; rep < reps; ++rep) {
    calls.run(false, kKernFp32Ids + 1 + static_cast<std::uint64_t>(rep));
    calls.run(true, kKernInt8Ids + 1 + static_cast<std::uint64_t>(rep));
    calls.ffn_gemm(kProbeIds + static_cast<std::uint64_t>(rep));
  }
}

}  // namespace perfbench
