#include "nn/plan.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <string>
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
using tensor::quant::MinMaxObserver;
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

Plan::Plan(Sequential& net, Shape sample_chw, std::size_t last_layer,
           std::int64_t max_batch)
    : net_(&net),
      sample_chw_(std::move(sample_chw)),
      last_layer_(last_layer),
      max_batch_(max_batch) {
  assert(max_batch_ >= 1);
  if (last_layer_ >= net_->size()) {
    throw std::out_of_range("Plan: last_layer " + std::to_string(last_layer_) +
                            " >= net size " + std::to_string(net_->size()));
  }
  // Boundary shapes once, at plan-build time (batch dim == 1 throughout).
  shapes_.reserve(last_layer_ + 2);
  shapes_.push_back(with_batch(sample_chw_, 1));
  for (std::size_t i = 0; i <= last_layer_; ++i) {
    shapes_.push_back(net_->layer(i).output_shape(shapes_.back()));
  }
  out_numel_per_sample_ = shapes_.back().numel();
  compile(nullptr);
}

void Plan::classify_layers() {
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

const CalibrationReport& Plan::calibrate(const TensorView& images,
                                         std::int64_t batch_size) {
  assert(images.shape().rank() == sample_chw_.rank() + 1);
  const std::int64_t total = images.shape()[0];
  batch_size = std::max<std::int64_t>(
      1, std::min<std::int64_t>(batch_size, max_batch_));
  if (classes_.empty()) classify_layers();

  // The observation pass is the f32 tape, with an observer on every boundary
  // the walk writes.  Batches run serially, in order, so the ranges are a
  // deterministic function of (images, batch_size).
  report_.calibrated = false;
  compile(nullptr);
  std::vector<MinMaxObserver> observers(last_layer_ + 2);
  const Sequential::BoundaryObserver observe =
      [&observers](std::size_t b, const TensorView& x) {
        observers[b].observe(x.data(), x.numel());
      };
  const std::int64_t sample_numel = shapes_[0].numel();
  Workspace ws(planned_floats_for(batch_size));
  Tensor sink(output_shape(batch_size));
  for (std::int64_t b0 = 0; b0 < total; b0 += batch_size) {
    const std::int64_t n = std::min<std::int64_t>(batch_size, total - b0);
    const TensorView batch(images.data() + b0 * sample_numel,
                           replace_batch(shapes_[0], n));
    observe(0, batch);
    ws.reset();
    execute(batch, TensorView(sink.data(), output_shape(n)), ws, observe);
  }

  compile(&observers);
  report_.calibrated = true;
  return report_;
}

tensor::quant::CalibStatus Plan::boundary_params(
    const std::vector<MinMaxObserver>& observers, std::size_t boundary,
    QuantParams* qp) {
  const CalibStatus status =
      tensor::quant::activation_params(observers[boundary].range(), qp);
  report_.boundary_status[boundary] = status;
  return status;
}

void Plan::add_f32_layer(std::size_t layer) {
  if (!steps_.empty() && steps_.back().kind == Step::Kind::kF32 &&
      steps_.back().last + 1 == layer) {
    steps_.back().last = layer;
    steps_.back().out_shape = shapes_[layer + 1];
    return;
  }
  Step st;
  st.kind = Step::Kind::kF32;
  st.first = st.last = layer;
  st.in_shape = shapes_[layer];
  st.out_shape = shapes_[layer + 1];
  steps_.push_back(std::move(st));
}

void Plan::compile(const std::vector<MinMaxObserver>* observers) {
  steps_.clear();
  report_.int8_layers = 0;
  report_.fallback_layers = 0;
  report_.calibration_fallbacks = 0;
  report_.boundary_status.assign(last_layer_ + 2, CalibStatus::kOk);

  bool u8 = false;
  QuantParams cur;
  for (std::size_t i = 0; i <= last_layer_; ++i) {
    if (observers == nullptr) {
      add_f32_layer(i);
      continue;
    }
    LayerClass cls = classes_[i];
    const Shape& in_shape = shapes_[i];
    const Shape& out_shape = shapes_[i + 1];

    if (cls == LayerClass::kConvS8 || cls == LayerClass::kLinearS8) {
      QuantParams in_q = cur;
      QuantParams out_q;
      bool ok = u8 || boundary_params(*observers, i, &in_q) == CalibStatus::kOk;
      if (ok) ok = boundary_params(*observers, i + 1, &out_q) == CalibStatus::kOk;
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
        st.first = st.last = i;
        st.in_shape = in_shape;
        st.out_shape = out_shape;
        st.in_q = in_q;
        st.out_q = out_q;
        st.weights = weight_index_[i];
        const tensor::quant::QuantizedWeights& qw =
            qweights_[static_cast<std::size_t>(st.weights)];
        st.rows = qw.rows;
        st.cols = qw.cols;
        const float* bias = nullptr;
        if (cls == LayerClass::kConvS8) {
          auto& conv = static_cast<Conv2d&>(net_->layer(i));
          st.geom = {.channels = conv.in_channels(),
                     .in_h = in_shape[2],
                     .in_w = in_shape[3],
                     .kernel_h = conv.kernel(),
                     .kernel_w = conv.kernel(),
                     .stride = conv.stride(),
                     .pad = conv.pad()};
          if (conv.has_bias()) bias = conv.params()[1]->value.data();
        } else {
          bias = static_cast<Linear&>(net_->layer(i)).bias().value.data();
        }
        st.mult.resize(static_cast<std::size_t>(qw.rows));
        st.sub.resize(static_cast<std::size_t>(qw.rows));
        st.bias.assign(static_cast<std::size_t>(qw.rows), 0.0f);
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
        st.first = st.last = i;
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

    if (cls == LayerClass::kPassQ) {
      // Identity in either representation: skipped in u8, and uncounted
      // inside an f32 run.
      if (!u8) add_f32_layer(i);
      continue;
    }

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
    add_f32_layer(i);
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

  // Slab sizes: the largest boundary the tape writes to each kind of slab.
  // The final step writes the caller's output, and ReLU rewrites its slab.
  f32_slab_numel_ = 0;
  u8_slab_numel_ = 0;
  for (std::size_t s = 0; s < steps_.size(); ++s) {
    const Step& st = steps_[s];
    const bool final_step = s + 1 == steps_.size();
    const std::int64_t out_numel = st.out_shape.numel();
    switch (st.kind) {
      case Step::Kind::kF32:
        for (std::size_t b = st.first + 1; b <= st.last; ++b) {
          f32_slab_numel_ = std::max(f32_slab_numel_, shapes_[b].numel());
        }
        if (!final_step) f32_slab_numel_ = std::max(f32_slab_numel_, out_numel);
        break;
      case Step::Kind::kDequant:
        if (!final_step) f32_slab_numel_ = std::max(f32_slab_numel_, out_numel);
        break;
      case Step::Kind::kReluQ:
        break;
      default:
        u8_slab_numel_ = std::max(u8_slab_numel_, out_numel);
        break;
    }
  }
  planned_floats_ = planned_floats_for(max_batch_);
}

std::size_t Plan::planned_floats_for(std::int64_t batch) const {
  const auto align = static_cast<std::int64_t>(Workspace::kAlignFloats);
  std::int64_t total = 0;
  if (f32_slab_numel_ > 0) total += 2 * (batch * f32_slab_numel_ + align);
  if (u8_slab_numel_ > 0) {
    total += 2 * (bytes_to_floats(batch * u8_slab_numel_) + align);
  }
  // Largest transient: an f32 layer's own scratch, or an int8 conv/linear
  // step's im2row + s32 accumulator carve.
  std::int64_t scratch = 0;
  for (const Step& st : steps_) {
    switch (st.kind) {
      case Step::Kind::kF32:
        for (std::size_t i = st.first; i <= st.last; ++i) {
          scratch = std::max(scratch, net_->layer(i).scratch_floats(
                                          replace_batch(shapes_[i], batch)));
        }
        break;
      case Step::Kind::kConvS8: {
        // Patch rows carry the weight matrix's padded K stride (cols16).
        const std::int64_t crows16 =
            qweights_[static_cast<std::size_t>(st.weights)].cols16;
        scratch = std::max(
            scratch, batch * bytes_to_floats(crows16 * st.geom.col_cols()) +
                         batch * st.out_shape.numel() + 2 * align);
        break;
      }
      case Step::Kind::kLinearS8:
        scratch = std::max(scratch, batch * st.rows + 2 * align);
        break;
      default:
        break;
    }
  }
  return static_cast<std::size_t>(total + scratch);
}

Shape Plan::output_shape(std::int64_t n) const {
  return replace_batch(shapes_.back(), n);
}

std::unique_ptr<Workspace> Plan::acquire_workspace() {
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

void Plan::release_workspace(std::unique_ptr<Workspace> ws) {
  std::lock_guard<std::mutex> lock(mutex_);
  peak_floats_ = std::max(peak_floats_, ws->peak_floats());
  // A lease that grew past the planned budget is destroyed instead of
  // pooled: pooling it would pin the extra arena forever and inflate
  // steady-state memory.  Its peak was folded in above.
  if (ws->capacity_floats() > planned_floats_) {
    --total_workspaces_;
    return;
  }
  free_.push_back(std::move(ws));
}

void Plan::run_batch(const TensorView& in, TensorView out) {
  if (require_calibration_ && !report_.calibrated) {
    throw std::logic_error(
        "QuantizedInferencePlan: calibrate() must run before run_batch()");
  }
  assert(in.shape().rank() == sample_chw_.rank() + 1);
  const std::int64_t batch = in.shape()[0];
  assert(out.numel() == batch * out_numel_per_sample_);
  if (batch == 0) return;

  // An oversized batch (n > max_batch) needs more arena than the planned
  // budget.  It gets a throwaway workspace sized for the burst instead of a
  // pooled lease: growing a pooled workspace would pin the burst's memory in
  // the pool forever (steady-state inflation after one spike).
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
    // A throwing layer (fault injection, bad_alloc) must not corrupt the
    // pool: the lease goes back — reset() on reacquire wipes it — so the
    // workspace count and peak accounting survive and the plan keeps
    // serving retries.  The exception still propagates to the caller.
    release_workspace(std::move(ws));
    throw;
  }
  release_workspace(std::move(ws));
}

Tensor Plan::run_batch(const Tensor& in) {
  const std::int64_t batch = in.shape().rank() > 0 ? in.shape()[0] : 0;
  Tensor out(output_shape(batch));
  if (batch > 0) run_batch(in.view(), out.view());
  return out;
}

void Plan::execute(const TensorView& in, TensorView out, Workspace& ws,
                   const Sequential::BoundaryObserver& observe) const {
  const std::int64_t batch = in.shape()[0];
  float* fslab[2] = {ws.alloc(batch * f32_slab_numel_),
                     ws.alloc(batch * f32_slab_numel_)};
  const std::int64_t qslab_floats = bytes_to_floats(batch * u8_slab_numel_);
  std::uint8_t* qslab[2] = {as_u8(ws.alloc(qslab_floats)),
                            as_u8(ws.alloc(qslab_floats))};

  // The tape ends by writing `out`: a final kF32 step or kDequant.
  TensorView cur_f = in;
  int cur_fslab = -1;  // -1 while cur_f still aliases the caller's input
  const std::uint8_t* cur_q = nullptr;
  int cur_qslab = -1;

  for (std::size_t s = 0; s < steps_.size(); ++s) {
    const Step& st = steps_[s];
    const bool final_step = s + 1 == steps_.size();
    const std::int64_t in_per = st.in_shape.numel();
    const std::int64_t out_per = st.out_shape.numel();

    switch (st.kind) {
      case Step::Kind::kF32: {
        cur_f = net_->forward_range(cur_f, cur_fslab, fslab,
                                    final_step ? out.data() : nullptr, ws,
                                    st.first, st.last, observe);
        break;
      }
      case Step::Kind::kQuantize: {
        const int dst_slab = cur_qslab == 0 ? 1 : 0;
        std::uint8_t* dst = qslab[dst_slab];
        const float* src = cur_f.data();
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
          cur_fslab = cur_fslab == 0 ? 1 : 0;
          dst = fslab[cur_fslab];
        }
        const std::uint8_t* src = cur_q;
        const QuantParams qp = st.in_q;
        util::parallel_for(0, batch, 1, [=](std::int64_t b0, std::int64_t b1) {
          for (std::int64_t n = b0; n < b1; ++n) {
            tensor::quant::dequantize_u8(src + n * in_per, dst + n * in_per,
                                         in_per, qp);
          }
        });
        cur_f = TensorView(dst, replace_batch(st.out_shape, batch));
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
    }
  }
}

std::size_t Plan::peak_workspace_bytes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::size_t peak = peak_floats_;
  for (const auto& ws : free_) peak = std::max(peak, ws->peak_floats());
  return peak * sizeof(float);
}

std::size_t Plan::workspace_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return total_workspaces_;
}

}  // namespace nshd::nn
