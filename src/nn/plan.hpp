// Execution plan for batched eval inference, f32 or int8.
//
// A Plan binds a Sequential prefix ([0, last_layer]) to a fixed per-sample
// input shape and compiles it, once, into a tape of steps.  Construction
// compiles an all-f32 tape: one kF32 step that walks every layer through
// Sequential::forward_range, ping-ponging intermediates between two
// workspace slabs.  It quantizes no weights.
//
// calibrate() turns the plan into an int8 plan.  It quantizes conv/linear
// weights per channel (one K-padded copy, in the form the selected int8
// kernel reads; see tensor::int8_kernel()), runs the f32 tape over the
// calibration images while a min/max observer folds every boundary's range,
// and recompiles the tape by tracking the activation representation through
// the prefix:
//   - the input edge is quantized to u8;
//   - conv/linear run quant::gemm_weights over a u8 im2row lowering (both
//     operands K-padded to whole simd strips) with a per-row requantization
//     epilogue (quant::requantize_row_u8);
//   - ReLU/ReLU6 and MaxPool stay in u8 (exact and scale-preserving);
//   - Flatten/Dropout vanish in u8;
//   - every other layer joins a kF32 step, with dequantize/quantize steps
//     around the f32 run;
//   - the cut boundary is dequantized, since the HD projection consumes f32.
// A boundary whose calibration fails (typed CalibStatus: a non-finite range
// or a zero scale, both fault-injectable) forces the layers that needed it
// onto the f32 path and increments calibration_fallbacks, so fallback is
// never silent.  An all-fallback int8 tape is the f32 walk, so it is
// bitwise equal to the f32 plan.
//
// run_batch executes the tape without a heap allocation for activations.
// Plans are safe to call from many threads at once: each run_batch leases a
// Workspace from an internal pool (one per concurrent caller), and every
// layer's forward_into is mutation-free in eval mode.  calibrate() must not
// run concurrently with run_batch.
//
// Every f32 inference path in the repo (feature extraction, evaluation,
// logits, serving) runs through a plan or Sequential::forward_into, so each
// layer's forward_into is the one eval kernel; tests check it against an
// independent direct-loop reference (tests/reference_net.hpp).
//
// Determinism: integer accumulation is exact, the requant epilogue is a
// fixed per-element formula, and all parallel loops use fixed grains, so
// outputs are bitwise invariant across NSHD_THREADS in both precisions.
//
// InferencePlan and QuantizedInferencePlan are the names callers use: the
// first is Plan itself; the second is a Plan whose run_batch throws until
// calibrate() has run.
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

class Plan {
 public:
  /// Plans layers [0, last_layer] of `net` for per-sample CHW shape
  /// `sample_chw`; throws std::out_of_range on an out-of-range cut.
  /// `max_batch` only sizes the pooled workspaces; run_batch accepts any
  /// batch.  A batch larger than max_batch runs on a throwaway workspace
  /// sized for it, so one burst never inflates steady-state memory.  The
  /// net must outlive the plan and must not be mutated (trained) while the
  /// plan is in use; reloading HD state (manifold/class bank) is fine.
  Plan(Sequential& net, Shape sample_chw, std::size_t last_layer,
       std::int64_t max_batch = 32);

  Plan(const Plan&) = delete;
  Plan& operator=(const Plan&) = delete;

  /// Runs `images` = [N, C, H, W] through the f32 tape in serial batch_size
  /// slices, folding every boundary range into the observers, then fixes
  /// activation scales and recompiles the tape to int8.  Deterministic for a
  /// given (images, batch_size).  May be called again to re-calibrate.
  /// Returns the report (also kept on the plan).
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

  /// Output shape for a batch of `n` samples.
  Shape output_shape(std::int64_t n) const;

  /// Per-sample output element count.
  std::int64_t out_features() const { return out_numel_per_sample_; }

  /// Runs eval inference on `in` = [N, C, H, W], writing f32 features into
  /// `out` (numel must equal output_shape(N).numel()).  Thread-safe.
  /// Throws std::logic_error on a plan built as QuantizedInferencePlan that
  /// has not been calibrated.
  void run_batch(const TensorView& in, TensorView out);

  /// Allocating convenience wrapper over the planned path.
  Tensor run_batch(const Tensor& in);

  /// Workspace budget reserved per pooled lease, for the current tape.
  std::size_t planned_workspace_bytes() const {
    return planned_floats_ * sizeof(float);
  }

  /// Observed high-water usage across all workspaces this plan has leased.
  std::size_t peak_workspace_bytes() const;

  /// Number of workspaces alive (pooled + leased).  Tracks the maximum
  /// concurrency seen, minus oversized leases that were released.
  std::size_t workspace_count() const;

 protected:
  /// Set by QuantizedInferencePlan: run_batch throws until calibrate().
  bool require_calibration_ = false;

 private:
  enum class LayerClass { kConvS8, kLinearS8, kReluQ, kMaxPoolQ, kPassQ, kFallback };

  struct Step {
    enum class Kind { kF32, kQuantize, kDequant, kConvS8, kLinearS8, kReluQ, kMaxPoolQ };
    Kind kind;
    std::size_t first = 0, last = 0;  // layer range (kF32) or source layer
    Shape in_shape, out_shape;  // per-sample shapes with batch dim == 1
    tensor::quant::QuantParams in_q, out_q;
    std::uint8_t clamp_lo = 0, clamp_hi = 255;  // kReluQ
    tensor::ConvGeometry geom;                  // kConvS8 / kMaxPoolQ
    std::int64_t rows = 0, cols = 0;            // weight rows / K per row
    int weights = -1;                           // index into qweights_
    std::vector<float> mult;                    // per-row s_in * s_w
    std::vector<std::int32_t> sub;              // per-row zp_in * row_sum_w
    std::vector<float> bias;                    // per-row f32 bias (or 0)
  };

  void classify_layers();
  tensor::quant::CalibStatus boundary_params(
      const std::vector<tensor::quant::MinMaxObserver>& observers,
      std::size_t boundary, tensor::quant::QuantParams* qp);
  /// Compiles the tape: all-f32 without observers, int8 with them.
  void compile(const std::vector<tensor::quant::MinMaxObserver>* observers);
  /// Appends layer `layer` to the trailing kF32 step, or opens one.
  void add_f32_layer(std::size_t layer);
  std::size_t planned_floats_for(std::int64_t batch) const;
  void execute(const TensorView& in, TensorView out, Workspace& ws,
               const Sequential::BoundaryObserver& observe = nullptr) const;

  std::unique_ptr<Workspace> acquire_workspace();
  void release_workspace(std::unique_ptr<Workspace> ws);

  Sequential* net_;
  Shape sample_chw_;
  std::size_t last_layer_;
  std::int64_t max_batch_;

  std::vector<Shape> shapes_;  // boundary shapes (batch dim == 1), size last+2
  std::int64_t out_numel_per_sample_ = 0;

  // Filled by the first calibrate().
  std::vector<LayerClass> classes_;
  std::vector<int> weight_index_;  // per layer, -1 when not conv/linear
  std::vector<tensor::quant::QuantizedWeights> qweights_;

  std::vector<Step> steps_;
  CalibrationReport report_;
  // Per-sample slab sizes: the largest boundary the tape writes to an f32
  // (u8) slab; 0 when it writes none.
  std::int64_t f32_slab_numel_ = 0;
  std::int64_t u8_slab_numel_ = 0;
  std::size_t planned_floats_ = 0;

  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<Workspace>> free_;  // idle leases
  std::size_t total_workspaces_ = 0;
  std::size_t peak_floats_ = 0;  // folded in as leases return
};

/// The f32 plan.
using InferencePlan = Plan;

/// A plan built for int8: run_batch throws std::logic_error until
/// calibrate() has run, so it never silently serves f32.
class QuantizedInferencePlan final : public Plan {
 public:
  QuantizedInferencePlan(Sequential& net, Shape sample_chw,
                         std::size_t last_layer, std::int64_t max_batch = 32)
      : Plan(net, std::move(sample_chw), last_layer, max_batch) {
    require_calibration_ = true;
  }
};

}  // namespace nshd::nn
