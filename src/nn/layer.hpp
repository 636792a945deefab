// Layer abstraction for the from-scratch deep-learning substrate.
//
// The paper consumes PyTorch models; this reproduction implements the
// minimum viable training framework instead: explicit workspace-backed
// forward/backward per layer, mutable parameter slots with gradient buffers,
// and a Sequential container that supports the paper's "cut at layer index
// k" operation (Sec. IV-A) for building feature extractors.
#pragma once

#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "tensor/tensor.hpp"
#include "tensor/workspace.hpp"

namespace nshd::nn {

using tensor::Shape;
using tensor::Tensor;
using tensor::TensorView;
using tensor::Workspace;

/// Violation of the training-state contract: backward_into called without a
/// matching forward_train_into, a grad_output that does not match the
/// recorded batch, or a planned step driven out of order.  Typed (instead of
/// an assert) so release builds fail loudly rather than reading stale state.
class TrainingStateError : public std::logic_error {
 public:
  using std::logic_error::logic_error;
};

/// Fixed chunk grains for the deterministic data-parallel backward path.
/// Gradient accumulation shards the batch into kTrainSampleGrain-sample
/// chunks with per-chunk partial buffers reduced in chunk-index order, and
/// elementwise adjoints split into kTrainElemGrain-element chunks — both are
/// functions of the work only, so results are bitwise identical at every
/// NSHD_THREADS (see DESIGN.md "Planned training & gradient accumulation").
inline constexpr std::int64_t kTrainSampleGrain = 8;
inline constexpr std::int64_t kTrainElemGrain = 1 << 14;

/// A trainable parameter: value plus an accumulated gradient of equal shape.
struct Param {
  Tensor value;
  Tensor grad;
  std::string name;

  explicit Param(Shape shape, std::string param_name = {})
      : value(shape), grad(std::move(shape)), name(std::move(param_name)) {}
};

/// Structural kind of a layer; used by the hardware census (src/hw) to
/// attribute MACs/bytes and by model indexing.
enum class LayerKind {
  kConv,
  kDepthwiseConv,
  kBatchNorm,
  kActivation,
  kMaxPool,
  kAvgPool,
  kLinear,
  kFlatten,
  kDropout,
  kBlock,  // composite (inverted residual / MBConv / SE)
};

const char* to_string(LayerKind kind);

/// Base class for all layers.  Every layer computes through one set of
/// workspace methods: forward_into (inference), forward_train_into and
/// backward_into (training).  Layers own their parameters; backward_into
/// receives the exact activation its forward_train_into consumed, so no
/// layer caches its input.
class Layer {
 public:
  virtual ~Layer() = default;

  /// Eval-mode convenience: allocates the output and runs forward_into with
  /// a local workspace.  Not for hot paths (plans pre-size their workspaces)
  /// and not for training (Sequential's tape must live in the caller's
  /// workspace until backward_into).
  Tensor forward(const Tensor& input);

  /// Inference-only forward writing into caller-provided memory.  `out` may
  /// alias `in` only when inplace_eval() is true.  Layer-local temporaries
  /// come from `scratch` and must be released (Frame) before returning;
  /// implementations must not mutate layer state so plans can run
  /// concurrently.
  virtual void forward_into(const TensorView& in, TensorView out,
                            Workspace& scratch) = 0;

  /// Upper bound on the floats this layer allocs from `scratch` during one
  /// forward_into with the given (batch-full) input shape.  Used by plans to
  /// pre-size workspaces; an underestimate only costs an extra arena block.
  virtual std::int64_t scratch_floats(const Shape& input) const {
    (void)input;
    return 0;
  }

  /// Training-mode forward writing into caller-provided memory.  It does NOT
  /// cache the input — the training path (TrainingPlan via
  /// Sequential::forward_train_into) pins boundary activations in the
  /// workspace and hands them back to backward_into, so no layer copies its
  /// input.  Layers whose training math equals eval math (conv, linear,
  /// pool, activation, SE, flatten) inherit the forward_into default;
  /// batch-norm (batch statistics), dropout (mask stream) and containers
  /// (tape) override.
  virtual void forward_train_into(const TensorView& in, TensorView out,
                                  Workspace& ws) {
    forward_into(in, out, ws);
  }

  /// Backward pass writing into caller-provided memory: accumulates into
  /// param grads and writes d(loss)/d(input) to `grad_in`.  `in` must be the
  /// exact activation the matching forward_train_into consumed (Sequential
  /// passes its pinned tape entry), and `grad_in` must not alias `in` or
  /// `grad_out`.
  /// Layer-local temporaries come from `ws` (Frame-scoped).  Implementations
  /// shard sample/element loops through util::parallel_for with fixed grains
  /// and reduce per-chunk gradient partials in chunk-index order, so the
  /// accumulated grads are bitwise NSHD_THREADS-invariant.
  virtual void backward_into(const TensorView& in, const TensorView& grad_out,
                             TensorView grad_in, Workspace& ws) = 0;

  /// Upper bound on the floats this layer allocs from `ws` across one
  /// forward_train_into + backward_into pair (excluding pinned activations,
  /// which the container accounts for).  Defaults to scratch_floats.
  virtual std::int64_t train_scratch_floats(const Shape& input) const {
    return scratch_floats(input);
  }

  /// Floats that stay allocated in `ws` from forward_train_into until the
  /// matching backward_into consumes them (a container's pinned activation
  /// tape; leaves recompute instead of pinning, so the default is 0).
  /// Containers must SUM this across nested layers — unlike transient
  /// scratch, pins held by sibling blocks are all live at once.
  virtual std::int64_t train_pinned_floats(const Shape& input) const {
    (void)input;
    return 0;
  }

  /// True when forward_into tolerates out.data() == in.data() (elementwise
  /// or copy-free layers); lets the plan scheduler reuse buffers.
  virtual bool inplace_eval() const { return false; }

  /// Trainable parameters (empty for stateless layers).
  virtual std::vector<Param*> params() { return {}; }

  /// Output shape for a given input shape (both include the batch axis).
  virtual Shape output_shape(const Shape& input) const = 0;

  virtual LayerKind kind() const = 0;
  virtual std::string name() const = 0;

  /// Multiply-accumulate count for a single sample with the given
  /// (batch-less) input shape; default 0 for op-free layers.
  virtual std::int64_t macs_per_sample(const Shape& input_chw) const {
    (void)input_chw;
    return 0;
  }

  /// Collects every tensor that must be persisted to reproduce inference:
  /// parameter values plus non-trainable state (batch-norm running stats).
  /// Containers recurse; the default implementation appends param values.
  virtual void append_state(std::vector<Tensor*>& state) {
    for (Param* p : params()) state.push_back(&p->value);
  }

  Layer() = default;
  Layer(const Layer&) = delete;
  Layer& operator=(const Layer&) = delete;
  Layer(Layer&&) = default;
  Layer& operator=(Layer&&) = default;
};

using LayerPtr = std::unique_ptr<Layer>;

/// Zeroes gradients of all params in the list.
void zero_grads(const std::vector<Param*>& params);

}  // namespace nshd::nn
