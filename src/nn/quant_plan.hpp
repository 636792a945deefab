// INT8 execution plan for batched eval inference.
//
// A QuantizedInferencePlan mirrors InferencePlan (same Sequential prefix,
// same Workspace-pool discipline, same thread-safety contract) but executes
// int8-capable layers on the exact u8×s8 kernels in tensor/gemm.cpp (the
// VNNI kernel where the host has it, the s16 madd kernel elsewhere — see
// tensor::int8_kernel()).  Construction quantizes weights per-channel
// (keeping one K-padded copy, in the form the selected kernel reads) and
// compiles a step tape by tracking the activation *representation* through
// the prefix: the input edge is quantized to u8, conv/linear run
// quant::gemm_weights over a u8 im2row lowering — both operands K-padded to
// whole simd strips, so the tiled kernel never touches a scalar tail —
// with a per-row requantization epilogue
// (quant::requantize_row_u8), ReLU/ReLU6 and
// MaxPool stay in u8 (exact, scale-preserving), Flatten/Dropout vanish, and
// any other layer falls back to its f32 forward_into with explicit
// dequantize/quantize transition steps around the f32 segment.  The cut
// boundary feeding the HD projection is dequantized back to f32, so the
// plan is a drop-in for InferencePlan wherever features are consumed.
//
// Activation scales come from calibrate(): N batches run through the f32
// layers while observers fold per-boundary ranges; run_batch before
// calibration throws.  A boundary whose calibration fails (typed
// CalibStatus — non-finite range, zero scale, both fault-injectable) forces
// the layers that needed it onto the f32 path AND increments
// calibration_fallbacks — fallback is never silent.
//
// Determinism: integer accumulation is exact, the requant epilogue is a
// fixed per-element formula, and all parallel loops use fixed grains, so
// quantized outputs are bitwise invariant across NSHD_THREADS.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "nn/sequential.hpp"
#include "tensor/quant.hpp"

namespace nshd::nn {

/// Per-boundary calibration outcome plus plan-level fallback accounting.
/// boundary_status[b] is the status of the activation entering layer b
/// (b = 0 is the network input; b = last_layer+1 is the cut output); a
/// boundary the compiled tape never quantizes stays kOk.
struct CalibrationReport {
  std::vector<tensor::quant::CalibStatus> boundary_status;
  std::int64_t int8_layers = 0;           // layers executing on int8 kernels
  std::int64_t fallback_layers = 0;       // layers executing in f32
  std::int64_t calibration_fallbacks = 0; // int8-capable layers forced to f32
                                          // by a failed boundary calibration
  bool calibrated = false;

  bool clean() const { return calibrated && calibration_fallbacks == 0; }
};

enum class ObserverKind { kMinMax, kMovingAverage };

struct QuantPlanOptions {
  ObserverKind observer = ObserverKind::kMinMax;
  float momentum = 0.1f;  // MovingAverage only
};

class QuantizedInferencePlan {
 public:
  using Options = QuantPlanOptions;

  /// Plans layers [0, last_layer] of `net` for per-sample CHW shape
  /// `sample_chw`.  Weights are quantized immediately (per-channel symmetric
  /// s8); activation scales require calibrate().  The net must outlive the
  /// plan and must not be mutated while the plan is in use — reloading HD
  /// state (manifold/class bank) is fine, retraining the CNN prefix is not.
  QuantizedInferencePlan(Sequential& net, Shape sample_chw,
                         std::size_t last_layer, std::int64_t max_batch = 32,
                         Options options = Options());

  QuantizedInferencePlan(const QuantizedInferencePlan&) = delete;
  QuantizedInferencePlan& operator=(const QuantizedInferencePlan&) = delete;

  /// Runs `images` = [N, C, H, W] through the f32 layers in serial
  /// batch_size slices, folding every boundary range into the observers,
  /// then fixes activation scales and compiles the int8 tape.  Deterministic
  /// for a given (images, batch_size) — batches run in order.  May be called
  /// again to re-calibrate.  Returns the report (also kept on the plan).
  const CalibrationReport& calibrate(const TensorView& images,
                                     std::int64_t batch_size = 32);

  bool calibrated() const { return report_.calibrated; }
  const CalibrationReport& report() const { return report_; }
  std::int64_t int8_layers() const { return report_.int8_layers; }
  std::int64_t fallback_layers() const { return report_.fallback_layers; }
  std::int64_t calibration_fallbacks() const {
    return report_.calibration_fallbacks;
  }

  const Shape& sample_chw() const { return sample_chw_; }
  std::size_t last_layer() const { return last_layer_; }
  std::int64_t max_batch() const { return max_batch_; }
  Shape output_shape(std::int64_t n) const;
  std::int64_t out_features() const { return out_numel_per_sample_; }

  /// Runs quantized eval inference on `in` = [N, C, H, W], writing f32
  /// features into `out`.  Thread-safe (workspace pool, as InferencePlan).
  /// Throws std::logic_error if calibrate() has not run.
  void run_batch(const TensorView& in, TensorView out);
  Tensor run_batch(const Tensor& in);

  std::size_t planned_workspace_bytes() const {
    return planned_floats_ * sizeof(float);
  }
  std::size_t peak_workspace_bytes() const;
  std::size_t workspace_count() const;

 private:
  enum class LayerClass { kConvS8, kLinearS8, kReluQ, kMaxPoolQ, kPassQ, kFallback };

  struct Step {
    enum class Kind { kQuantize, kDequant, kConvS8, kLinearS8, kReluQ, kMaxPoolQ, kF32 };
    Kind kind;
    std::size_t layer = 0;  // source layer (op and kF32 steps)
    Shape in_shape, out_shape;  // per-sample shapes with batch dim == 1
    tensor::quant::QuantParams in_q, out_q;
    std::uint8_t clamp_lo = 0, clamp_hi = 255;  // kReluQ
    tensor::ConvGeometry geom;                  // kConvS8
    std::int64_t rows = 0, cols = 0;            // weight rows / K per row
    int weights = -1;                           // index into qweights_
    std::vector<float> mult;                    // per-row s_in * s_w
    std::vector<std::int32_t> sub;              // per-row zp_in * row_sum_w
    std::vector<float> bias;                    // per-row f32 bias (or 0)
  };

  void classify_layers();
  tensor::quant::CalibStatus boundary_params(std::size_t boundary,
                                             tensor::quant::QuantParams* qp);
  void compile();
  std::size_t planned_floats_for(std::int64_t batch) const;
  void execute(const TensorView& in, TensorView out, Workspace& ws) const;

  std::unique_ptr<Workspace> acquire_workspace();
  void release_workspace(std::unique_ptr<Workspace> ws);

  Sequential* net_;
  Shape sample_chw_;
  std::size_t last_layer_;
  std::int64_t max_batch_;
  Options options_;

  std::vector<Shape> shapes_;  // boundary shapes (batch dim == 1), size last+2
  std::vector<LayerClass> classes_;
  std::vector<int> weight_index_;  // per layer, -1 when not conv/linear
  std::vector<tensor::quant::QuantizedWeights> qweights_;
  std::vector<tensor::quant::MinMaxObserver> minmax_;
  std::vector<tensor::quant::MovingAverageObserver> ema_;

  std::vector<Step> steps_;
  CalibrationReport report_;

  Shape out_shape_one_;
  std::int64_t out_numel_per_sample_ = 0;
  std::int64_t max_boundary_numel_ = 0;  // per sample, across all boundaries
  std::size_t planned_floats_ = 0;

  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<Workspace>> free_;
  std::size_t total_workspaces_ = 0;
  std::size_t peak_floats_ = 0;
};

}  // namespace nshd::nn
