#include "nn/quant_plan.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "nn/activation.hpp"
#include "nn/conv.hpp"
#include "nn/linear.hpp"
#include "nn/pool.hpp"
#include "tensor/gemm.hpp"
#include "util/thread_pool.hpp"

namespace nshd::nn {

namespace {

using tensor::quant::CalibStatus;
using tensor::quant::QuantParams;

Shape with_batch(const Shape& chw, std::int64_t batch) {
  std::vector<std::int64_t> dims;
  dims.reserve(chw.rank() + 1);
  dims.push_back(batch);
  for (std::size_t i = 0; i < chw.rank(); ++i) dims.push_back(chw[i]);
  return Shape(std::move(dims));
}

Shape replace_batch(const Shape& shape, std::int64_t batch) {
  std::vector<std::int64_t> dims = shape.dims();
  assert(!dims.empty());
  dims[0] = batch;
  return Shape(std::move(dims));
}

/// Floats needed to carve `bytes` bytes out of the float arena.
std::int64_t bytes_to_floats(std::int64_t bytes) { return (bytes + 3) / 4; }

std::uint8_t* as_u8(float* p) { return reinterpret_cast<std::uint8_t*>(p); }
std::int32_t* as_s32(float* p) { return reinterpret_cast<std::int32_t*>(p); }

/// Fixed element grain for the parallel u8 clamp (ReLU) loop.
constexpr std::int64_t kElemGrain = 1 << 15;

}  // namespace

QuantizedInferencePlan::QuantizedInferencePlan(Sequential& net, Shape sample_chw,
                                               std::size_t last_layer,
                                               std::int64_t max_batch,
                                               Options options)
    : net_(&net),
      sample_chw_(std::move(sample_chw)),
      last_layer_(last_layer),
      max_batch_(max_batch),
      options_(options) {
  assert(max_batch_ >= 1);
  if (last_layer_ >= net_->size()) {
    throw std::out_of_range("QuantizedInferencePlan: last_layer out of range");
  }
  // Boundary shapes once, at plan-build time (batch dim == 1 throughout).
  shapes_.reserve(last_layer_ + 2);
  shapes_.push_back(with_batch(sample_chw_, 1));
  for (std::size_t i = 0; i <= last_layer_; ++i) {
    shapes_.push_back(net_->layer(i).output_shape(shapes_.back()));
  }
  out_shape_one_ = shapes_.back();
  out_numel_per_sample_ = out_shape_one_.numel();
  for (const Shape& s : shapes_) {
    max_boundary_numel_ = std::max(max_boundary_numel_, s.numel());
  }
  classify_layers();
  planned_floats_ = planned_floats_for(max_batch_);
}

void QuantizedInferencePlan::classify_layers() {
  classes_.assign(last_layer_ + 1, LayerClass::kFallback);
  weight_index_.assign(last_layer_ + 1, -1);
  for (std::size_t i = 0; i <= last_layer_; ++i) {
    Layer& layer = net_->layer(i);
    switch (layer.kind()) {
      case LayerKind::kConv: {
        auto& conv = static_cast<Conv2d&>(layer);
        std::vector<Param*> params = conv.params();
        const Tensor& w = params[0]->value;
        qweights_.push_back(tensor::quant::quantize_weights_per_channel(
            w.data(), conv.out_channels(), w.numel() / conv.out_channels()));
        weight_index_[i] = static_cast<int>(qweights_.size()) - 1;
        classes_[i] = LayerClass::kConvS8;
        break;
      }
      case LayerKind::kLinear: {
        auto& lin = static_cast<Linear&>(layer);
        qweights_.push_back(tensor::quant::quantize_weights_per_channel(
            lin.weight().value.data(), lin.out_features(), lin.in_features()));
        weight_index_[i] = static_cast<int>(qweights_.size()) - 1;
        classes_[i] = LayerClass::kLinearS8;
        break;
      }
      case LayerKind::kActivation: {
        const Activation act = static_cast<ActivationLayer&>(layer).activation();
        classes_[i] = (act == Activation::kReLU || act == Activation::kReLU6)
                          ? LayerClass::kReluQ
                          : LayerClass::kFallback;
        break;
      }
      case LayerKind::kMaxPool:
        classes_[i] = LayerClass::kMaxPoolQ;
        break;
      case LayerKind::kFlatten:
      case LayerKind::kDropout:
        classes_[i] = LayerClass::kPassQ;  // identity at eval in both reps
        break;
      default:
        classes_[i] = LayerClass::kFallback;
        break;
    }
  }
}

const CalibrationReport& QuantizedInferencePlan::calibrate(
    const TensorView& images, std::int64_t batch_size) {
  assert(images.shape().rank() == sample_chw_.rank() + 1);
  const std::int64_t total = images.shape()[0];
  batch_size = std::max<std::int64_t>(
      1, std::min<std::int64_t>(batch_size, max_batch_));

  const std::size_t boundaries = last_layer_ + 2;
  minmax_.assign(boundaries, tensor::quant::MinMaxObserver());
  ema_.assign(boundaries, tensor::quant::MovingAverageObserver(options_.momentum));
  auto observe = [&](std::size_t b, const float* x, std::int64_t n) {
    if (options_.observer == ObserverKind::kMinMax) {
      minmax_[b].observe(x, n);
    } else {
      ema_[b].observe(x, n);
    }
  };

  const std::int64_t sample_numel = shapes_[0].numel();
  std::unique_ptr<Workspace> ws = acquire_workspace();
  ws->reset();
  {
    // Batches run serially, in order, so both observer kinds are
    // deterministic functions of (images, batch_size).
    Workspace::Frame frame(*ws);
    float* slab[2] = {ws->alloc(batch_size * max_boundary_numel_),
                      ws->alloc(batch_size * max_boundary_numel_)};
    for (std::int64_t b0 = 0; b0 < total; b0 += batch_size) {
      const std::int64_t n = std::min<std::int64_t>(batch_size, total - b0);
      const float* cur = images.data() + b0 * sample_numel;
      int cur_slab = -1;  // -1: still pointing into the caller's images
      observe(0, cur, n * sample_numel);
      for (std::size_t i = 0; i <= last_layer_; ++i) {
        Layer& layer = net_->layer(i);
        const Shape in_shape = replace_batch(shapes_[i], n);
        const Shape out_shape = replace_batch(shapes_[i + 1], n);
        float* dst;
        int dst_slab;
        if (layer.inplace_eval() && cur_slab >= 0) {
          dst = const_cast<float*>(cur);
          dst_slab = cur_slab;
        } else {
          dst_slab = cur_slab == 0 ? 1 : 0;
          dst = slab[dst_slab];
        }
        layer.forward_into(TensorView(const_cast<float*>(cur), in_shape),
                           TensorView(dst, out_shape), *ws);
        cur = dst;
        cur_slab = dst_slab;
        observe(i + 1, cur, out_shape.numel());
      }
    }
  }
  release_workspace(std::move(ws));

  compile();
  report_.calibrated = true;
  return report_;
}

tensor::quant::CalibStatus QuantizedInferencePlan::boundary_params(
    std::size_t boundary, QuantParams* qp) {
  const tensor::quant::Range& range = options_.observer == ObserverKind::kMinMax
                                          ? minmax_[boundary].range()
                                          : ema_[boundary].range();
  const CalibStatus status = tensor::quant::activation_params(range, qp);
  report_.boundary_status[boundary] = status;
  return status;
}

void QuantizedInferencePlan::compile() {
  steps_.clear();
  report_.int8_layers = 0;
  report_.fallback_layers = 0;
  report_.calibration_fallbacks = 0;
  report_.boundary_status.assign(last_layer_ + 2, CalibStatus::kOk);

  bool u8 = false;
  QuantParams cur;
  for (std::size_t i = 0; i <= last_layer_; ++i) {
    LayerClass cls = classes_[i];
    const Shape& in_shape = shapes_[i];
    const Shape& out_shape = shapes_[i + 1];

    if (cls == LayerClass::kConvS8 || cls == LayerClass::kLinearS8) {
      QuantParams in_q = cur;
      QuantParams out_q;
      bool ok = u8 || boundary_params(i, &in_q) == CalibStatus::kOk;
      if (ok) ok = boundary_params(i + 1, &out_q) == CalibStatus::kOk;
      if (!ok) {
        // Typed calibration failure: this layer runs f32 and is COUNTED —
        // the no-silent-fallback contract.
        ++report_.calibration_fallbacks;
        cls = LayerClass::kFallback;
      } else {
        if (!u8) {
          Step q;
          q.kind = Step::Kind::kQuantize;
          q.in_shape = in_shape;
          q.out_shape = in_shape;
          q.out_q = in_q;
          steps_.push_back(std::move(q));
        }
        Step st;
        st.kind = cls == LayerClass::kConvS8 ? Step::Kind::kConvS8
                                             : Step::Kind::kLinearS8;
        st.layer = i;
        st.in_shape = in_shape;
        st.out_shape = out_shape;
        st.in_q = in_q;
        st.out_q = out_q;
        st.weights = weight_index_[i];
        const tensor::quant::QuantizedWeights& qw =
            qweights_[static_cast<std::size_t>(st.weights)];
        st.rows = qw.rows;
        st.cols = qw.cols;
        if (cls == LayerClass::kConvS8) {
          auto& conv = static_cast<Conv2d&>(net_->layer(i));
          st.geom = {.channels = conv.in_channels(),
                     .in_h = in_shape[2],
                     .in_w = in_shape[3],
                     .kernel_h = conv.kernel(),
                     .kernel_w = conv.kernel(),
                     .stride = conv.stride(),
                     .pad = conv.pad()};
        }
        st.mult.resize(static_cast<std::size_t>(qw.rows));
        st.sub.resize(static_cast<std::size_t>(qw.rows));
        st.bias.assign(static_cast<std::size_t>(qw.rows), 0.0f);
        const float* bias = nullptr;
        if (cls == LayerClass::kConvS8) {
          auto& conv = static_cast<Conv2d&>(net_->layer(i));
          if (conv.has_bias()) bias = conv.params()[1]->value.data();
        } else {
          bias = static_cast<Linear&>(net_->layer(i)).bias().value.data();
        }
        for (std::int64_t o = 0; o < qw.rows; ++o) {
          st.mult[static_cast<std::size_t>(o)] =
              in_q.scale * qw.scales[static_cast<std::size_t>(o)];
          st.sub[static_cast<std::size_t>(o)] =
              in_q.zero_point * qw.row_sums[static_cast<std::size_t>(o)];
          if (bias != nullptr) st.bias[static_cast<std::size_t>(o)] = bias[o];
        }
        steps_.push_back(std::move(st));
        u8 = true;
        cur = out_q;
        ++report_.int8_layers;
        continue;
      }
    }

    if (cls == LayerClass::kReluQ || cls == LayerClass::kMaxPoolQ) {
      if (u8) {
        Step st;
        st.kind = cls == LayerClass::kReluQ ? Step::Kind::kReluQ
                                            : Step::Kind::kMaxPoolQ;
        st.layer = i;
        st.in_shape = in_shape;
        st.out_shape = out_shape;
        st.in_q = cur;
        st.out_q = cur;  // scale-preserving: params propagate unchanged
        if (cls == LayerClass::kReluQ) {
          st.clamp_lo = static_cast<std::uint8_t>(
              std::min(255, std::max(0, cur.zero_point)));
          const Activation act =
              static_cast<ActivationLayer&>(net_->layer(i)).activation();
          if (act == Activation::kReLU6) {
            // Quantization is monotone, so clamping the codes at q(6) equals
            // quantizing min(x, 6).
            st.clamp_hi = tensor::quant::quantize_value(6.0f, cur);
          }
        } else {
          auto& pool = static_cast<MaxPool2d&>(net_->layer(i));
          st.geom = {.channels = in_shape[1],
                     .in_h = in_shape[2],
                     .in_w = in_shape[3],
                     .kernel_h = pool.kernel(),
                     .kernel_w = pool.kernel(),
                     .stride = pool.stride(),
                     .pad = 0};
        }
        steps_.push_back(std::move(st));
        ++report_.int8_layers;
        continue;
      }
      // Policy (not a failure): a scale-preserving op never *enters* u8 on
      // its own — a quantize/dequantize sandwich around it would add error
      // for no kernel win.  Runs f32, counted in fallback_layers below.
      cls = LayerClass::kFallback;
    }

    if (cls == LayerClass::kPassQ) continue;  // identity in either rep

    // f32 fallback layer; leave u8 first if needed.
    if (u8) {
      Step dq;
      dq.kind = Step::Kind::kDequant;
      dq.in_shape = in_shape;
      dq.out_shape = in_shape;
      dq.in_q = cur;
      steps_.push_back(std::move(dq));
      u8 = false;
    }
    Step st;
    st.kind = Step::Kind::kF32;
    st.layer = i;
    st.in_shape = in_shape;
    st.out_shape = out_shape;
    steps_.push_back(std::move(st));
    ++report_.fallback_layers;
  }

  // Dequantize at the cut: the HD projection consumes f32 features.
  if (u8) {
    Step dq;
    dq.kind = Step::Kind::kDequant;
    dq.in_shape = shapes_.back();
    dq.out_shape = shapes_.back();
    dq.in_q = cur;
    steps_.push_back(std::move(dq));
  }
}

std::size_t QuantizedInferencePlan::planned_floats_for(std::int64_t batch) const {
  const auto align = static_cast<std::int64_t>(Workspace::kAlignFloats);
  const std::int64_t slab = batch * max_boundary_numel_;
  std::int64_t total = 2 * (slab + align);                    // f32 ping-pong
  total += 2 * (bytes_to_floats(slab) + align);               // u8 ping-pong
  // Largest transient: any layer's f32 scratch (calibration runs the whole
  // prefix in f32; fallback steps run single layers), or a conv step's
  // im2row + s32 accumulator carve.
  std::int64_t scratch = 0;
  for (std::size_t i = 0; i <= last_layer_; ++i) {
    const Shape in_shape = replace_batch(shapes_[i], batch);
    scratch = std::max(scratch, net_->layer(i).scratch_floats(in_shape));
    if (classes_[i] == LayerClass::kConvS8) {
      auto& conv = static_cast<const Conv2d&>(net_->layer(i));
      tensor::ConvGeometry g{.channels = conv.in_channels(),
                             .in_h = shapes_[i][2],
                             .in_w = shapes_[i][3],
                             .kernel_h = conv.kernel(),
                             .kernel_w = conv.kernel(),
                             .stride = conv.stride(),
                             .pad = conv.pad()};
      // Patch rows carry the weight matrix's padded K stride (cols16).
      const std::int64_t crows16 =
          qweights_[static_cast<std::size_t>(weight_index_[i])].cols16;
      const std::int64_t conv_scratch =
          batch * bytes_to_floats(crows16 * g.col_cols()) +  // u8 im2row
          batch * shapes_[i + 1].numel() +                   // s32 acc
          2 * align;
      scratch = std::max(scratch, conv_scratch);
    } else if (classes_[i] == LayerClass::kLinearS8) {
      scratch = std::max(scratch, batch * shapes_[i + 1].numel() + 2 * align);
    }
  }
  total += scratch + 4 * align;
  return static_cast<std::size_t>(total);
}

Shape QuantizedInferencePlan::output_shape(std::int64_t n) const {
  return replace_batch(out_shape_one_, n);
}

std::unique_ptr<Workspace> QuantizedInferencePlan::acquire_workspace() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!free_.empty()) {
      auto ws = std::move(free_.back());
      free_.pop_back();
      return ws;
    }
    ++total_workspaces_;
  }
  return std::make_unique<Workspace>(planned_floats_);
}

void QuantizedInferencePlan::release_workspace(std::unique_ptr<Workspace> ws) {
  std::lock_guard<std::mutex> lock(mutex_);
  peak_floats_ = std::max(peak_floats_, ws->peak_floats());
  if (ws->capacity_floats() > planned_floats_) {
    --total_workspaces_;
    return;
  }
  free_.push_back(std::move(ws));
}

void QuantizedInferencePlan::run_batch(const TensorView& in, TensorView out) {
  if (!report_.calibrated) {
    throw std::logic_error(
        "QuantizedInferencePlan: calibrate() must run before run_batch()");
  }
  assert(in.shape().rank() == sample_chw_.rank() + 1);
  const std::int64_t batch = in.shape()[0];
  assert(out.numel() == batch * out_numel_per_sample_);
  if (batch == 0) return;

  // Oversized batches get a throwaway burst arena, exactly as InferencePlan:
  // pooling it would pin the burst's memory forever.
  if (batch > max_batch_) {
    Workspace burst(planned_floats_for(batch));
    execute(in, out, burst);
    std::lock_guard<std::mutex> lock(mutex_);
    peak_floats_ = std::max(peak_floats_, burst.peak_floats());
    return;
  }

  std::unique_ptr<Workspace> ws = acquire_workspace();
  ws->reset();
  try {
    execute(in, out, *ws);
  } catch (...) {
    release_workspace(std::move(ws));
    throw;
  }
  release_workspace(std::move(ws));
}

Tensor QuantizedInferencePlan::run_batch(const Tensor& in) {
  const std::int64_t batch = in.shape().rank() > 0 ? in.shape()[0] : 0;
  Tensor out(output_shape(batch));
  if (batch > 0) run_batch(in.view(), out.view());
  return out;
}

void QuantizedInferencePlan::execute(const TensorView& in, TensorView out,
                                     Workspace& ws) const {
  const std::int64_t batch = in.shape()[0];
  const std::int64_t slab_numel = batch * max_boundary_numel_;
  float* fslab[2] = {ws.alloc(slab_numel), ws.alloc(slab_numel)};
  std::uint8_t* qslab[2] = {as_u8(ws.alloc(bytes_to_floats(slab_numel))),
                            as_u8(ws.alloc(bytes_to_floats(slab_numel)))};

  const float* cur_f = in.data();
  int cur_fslab = -1;  // -1 while cur_f still aliases the caller's input
  const std::uint8_t* cur_q = nullptr;
  int cur_qslab = -1;

  for (std::size_t s = 0; s < steps_.size(); ++s) {
    const Step& st = steps_[s];
    const bool final_step = s + 1 == steps_.size();
    const std::int64_t in_per = st.in_shape.numel();
    const std::int64_t out_per = st.out_shape.numel();

    switch (st.kind) {
      case Step::Kind::kQuantize: {
        const int dst_slab = cur_qslab == 0 ? 1 : 0;
        std::uint8_t* dst = qslab[dst_slab];
        const float* src = cur_f;
        const QuantParams qp = st.out_q;
        util::parallel_for(0, batch, 1, [=](std::int64_t b0, std::int64_t b1) {
          for (std::int64_t n = b0; n < b1; ++n) {
            tensor::quant::quantize_u8(src + n * in_per, dst + n * in_per,
                                       in_per, qp);
          }
        });
        cur_q = dst;
        cur_qslab = dst_slab;
        break;
      }
      case Step::Kind::kDequant: {
        float* dst;
        if (final_step) {
          dst = out.data();
        } else {
          const int dst_slab = cur_fslab == 0 ? 1 : 0;
          dst = fslab[dst_slab];
          cur_fslab = dst_slab;
        }
        const std::uint8_t* src = cur_q;
        const QuantParams qp = st.in_q;
        util::parallel_for(0, batch, 1, [=](std::int64_t b0, std::int64_t b1) {
          for (std::int64_t n = b0; n < b1; ++n) {
            tensor::quant::dequantize_u8(src + n * in_per, dst + n * in_per,
                                         in_per, qp);
          }
        });
        cur_f = dst;
        break;
      }
      case Step::Kind::kConvS8: {
        const tensor::ConvGeometry& g = st.geom;
        const std::int64_t cols = g.col_cols();
        const std::int64_t rows = st.rows;  // out channels
        const tensor::quant::QuantizedWeights& qw =
            qweights_[static_cast<std::size_t>(st.weights)];
        // Patch rows use the weight matrix's padded K stride (cols16), so
        // the int8 gemm runs whole simd strips with no scalar tail — the
        // zero-padded weight lanes annihilate the zp-filled patch padding.
        const std::int64_t crows16 = qw.cols16;
        // Per-sample carve happens serially up front (Workspace is not
        // thread-safe); the per-sample regions are disjoint so the sample
        // loop parallelizes with grain 1.
        Workspace::Frame frame(ws);
        std::uint8_t* rows_buf =
            as_u8(ws.alloc(batch * bytes_to_floats(crows16 * cols)));
        std::int32_t* acc_buf = as_s32(ws.alloc(batch * out_per));
        const std::int64_t rows_stride = bytes_to_floats(crows16 * cols) * 4;
        const int dst_slab = cur_qslab == 0 ? 1 : 0;
        std::uint8_t* dst = qslab[dst_slab];
        const std::uint8_t* src = cur_q;
        const auto zp_in = static_cast<std::uint8_t>(
            std::min(255, std::max(0, st.in_q.zero_point)));
        const QuantParams out_q = st.out_q;
        const float* mult = st.mult.data();
        const std::int32_t* sub = st.sub.data();
        const float* bias = st.bias.data();
        util::parallel_for(0, batch, 1, [=](std::int64_t b0, std::int64_t b1) {
          for (std::int64_t n = b0; n < b1; ++n) {
            std::uint8_t* patch = rows_buf + n * rows_stride;
            std::int32_t* acc = acc_buf + n * out_per;
            tensor::quant::im2row_u8(src + n * in_per, g, zp_in, patch,
                                     crows16);
            tensor::quant::gemm_weights(qw, patch, crows16, acc, crows16, cols);
            std::uint8_t* out_n = dst + n * out_per;
            for (std::int64_t o = 0; o < rows; ++o) {
              tensor::quant::requantize_row_u8(acc + o * cols, cols, sub[o],
                                               mult[o], bias[o], out_q,
                                               out_n + o * cols, 1);
            }
          }
        });
        cur_q = dst;
        cur_qslab = dst_slab;
        break;
      }
      case Step::Kind::kLinearS8: {
        const tensor::quant::QuantizedWeights& qw =
            qweights_[static_cast<std::size_t>(st.weights)];
        Workspace::Frame frame(ws);
        std::int32_t* acc = as_s32(ws.alloc(batch * st.rows));
        // acc[o, n] = W_s8[o,:] . x_u8[n,:]; activations sit unpadded in the
        // slab, so pass the true K and let the kernel take its scalar tail.
        tensor::quant::gemm_weights(qw, cur_q, st.cols, acc, st.cols, batch);
        const int dst_slab = cur_qslab == 0 ? 1 : 0;
        std::uint8_t* dst = qslab[dst_slab];
        for (std::int64_t o = 0; o < st.rows; ++o) {
          // Accumulator row o is contiguous over samples; the u8 store
          // scatters back to [n, o] layout with stride rows.
          tensor::quant::requantize_row_u8(
              acc + o * batch, batch, st.sub[static_cast<std::size_t>(o)],
              st.mult[static_cast<std::size_t>(o)],
              st.bias[static_cast<std::size_t>(o)], st.out_q, dst + o,
              st.rows);
        }
        cur_q = dst;
        cur_qslab = dst_slab;
        break;
      }
      case Step::Kind::kReluQ: {
        // Exact in u8: max with the zero point (and min with q(6) for
        // ReLU6); runs in place on the current slab.
        auto* buf = const_cast<std::uint8_t*>(cur_q);
        const std::uint8_t lo = st.clamp_lo, hi = st.clamp_hi;
        util::parallel_for(0, batch * in_per, kElemGrain,
                           [=](std::int64_t e0, std::int64_t e1) {
                             tensor::quant::clamp_u8(buf + e0, e1 - e0, lo, hi);
                           });
        break;
      }
      case Step::Kind::kMaxPoolQ: {
        // Monotone window max — exact in u8.
        const tensor::ConvGeometry& g = st.geom;
        const std::int64_t channels = g.channels;
        const std::int64_t oh = st.out_shape[2], ow = st.out_shape[3];
        const std::int64_t kk = g.kernel_h, stride = g.stride;
        const int dst_slab = cur_qslab == 0 ? 1 : 0;
        std::uint8_t* dst = qslab[dst_slab];
        const std::uint8_t* src = cur_q;
        const std::int64_t in_h = g.in_h, in_w = g.in_w;
        util::parallel_for(0, batch, 1, [=](std::int64_t b0, std::int64_t b1) {
          for (std::int64_t n = b0; n < b1; ++n) {
            tensor::quant::max_pool2d_u8(src + n * in_per, channels, in_h,
                                         in_w, kk, stride, dst + n * out_per,
                                         oh, ow);
          }
        });
        cur_q = dst;
        cur_qslab = dst_slab;
        break;
      }
      case Step::Kind::kF32: {
        Layer& layer = net_->layer(st.layer);
        const Shape in_shape = replace_batch(st.in_shape, batch);
        const Shape out_shape = replace_batch(st.out_shape, batch);
        float* dst;
        int dst_slab = cur_fslab;
        if (final_step) {
          dst = out.data();
        } else if (layer.inplace_eval() && cur_fslab >= 0) {
          dst = const_cast<float*>(cur_f);
        } else {
          dst_slab = cur_fslab == 0 ? 1 : 0;
          dst = fslab[dst_slab];
        }
        layer.forward_into(TensorView(const_cast<float*>(cur_f), in_shape),
                           TensorView(dst, out_shape), ws);
        cur_f = dst;
        if (!final_step) cur_fslab = dst_slab;
        break;
      }
    }
  }

  // Compile guarantees a non-empty tape ends by writing f32 — via a final
  // kDequant/kF32 targeting `out` directly.  Two leftovers: an all-pass
  // prefix (empty tape) and a tape whose last op step was followed only by
  // skipped pass layers with the result parked in a slab.
  if (steps_.empty() || (cur_f != out.data())) {
    std::memcpy(out.data(), cur_f,
                static_cast<std::size_t>(batch * out_numel_per_sample_) *
                    sizeof(float));
  }
}

std::size_t QuantizedInferencePlan::peak_workspace_bytes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::size_t peak = peak_floats_;
  for (const auto& ws : free_) peak = std::max(peak, ws->peak_floats());
  return peak * sizeof(float);
}

std::size_t QuantizedInferencePlan::workspace_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return total_workspaces_;
}

}  // namespace nshd::nn
