// Sequential layer container with the "cut at index k" operation the paper
// relies on to form feature extractors (Sec. IV-A).
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "nn/layer.hpp"

namespace nshd::nn {

class Sequential final : public Layer {
 public:
  Sequential() = default;

  /// Appends a layer; returns *this for chaining.
  Sequential& add(LayerPtr layer);

  template <typename L, typename... Args>
  Sequential& emplace(Args&&... args) {
    return add(std::make_unique<L>(std::forward<Args>(args)...));
  }

  /// Called with (boundary, activation) as an eval walk writes each layer's
  /// output; boundary i + 1 is layer i's output.
  using BoundaryObserver =
      std::function<void(std::size_t boundary, const TensorView& activation)>;

  /// The one eval layer walk: plans, nested blocks and int8 calibration all
  /// run through it.  Runs layers [first, last] on `cur`, which sits in
  /// slabs[cur_slab] or, with cur_slab == -1, in caller memory that is never
  /// written.  Each layer writes the other slab of the ping-pong pair, or
  /// rewrites its input slab when inplace_eval() (activation, eval
  /// batch-norm, flatten, dropout, SE); layer `last` writes `out` instead
  /// when `out` is non-null.  Both slabs must hold any boundary the walk
  /// writes to them.  Returns the range output and leaves cur_slab naming
  /// the slab that holds it (-1 when it went to `out`).
  TensorView forward_range(TensorView cur, int& cur_slab, float* const slabs[2],
                           float* out, Workspace& ws, std::size_t first,
                           std::size_t last,
                           const BoundaryObserver& observe = nullptr);

  void forward_into(const TensorView& in, TensorView out,
                    Workspace& scratch) override;
  /// Two ping-pong slabs at the largest intermediate plus the largest
  /// per-layer scratch.
  std::int64_t scratch_floats(const Shape& input) const override;

  /// Training forward for the planned path: every boundary activation is
  /// pinned in `ws` (no Frame — the buffers must survive until
  /// backward_into) and recorded on an internal tape together with `in` and
  /// `out`.  Call backward_into with the same `in` before the workspace is
  /// reset; the tape is single-use.
  void forward_train_into(const TensorView& in, TensorView out,
                          Workspace& ws) override;

  /// Reverse walk over the tape: gradients ping-pong between two slabs sized
  /// at the largest internal boundary; layer i consumes the pinned activation
  /// tape_[i].  Throws TrainingStateError when the tape is missing, already
  /// consumed, or `in`/`grad_out` do not match it.
  void backward_into(const TensorView& in, const TensorView& grad_out,
                     TensorView grad_in, Workspace& ws) override;

  /// Floats forward_train_into + backward_into draw from the workspace:
  /// all pinned boundaries (own tape plus every nested container's, summed
  /// via train_pinned_floats — sibling blocks hold their pins at once), two
  /// gradient slabs, plus the largest per-layer transient scratch.
  std::int64_t train_scratch_floats(const Shape& input) const override;

  /// Internal boundary activations pinned from forward_train_into until
  /// backward_into, including nested containers' tapes.
  std::int64_t train_pinned_floats(const Shape& input) const override;

  std::vector<Param*> params() override;
  Shape output_shape(const Shape& input) const override;

  /// Output shape after layer index `last_layer` (inclusive).
  Shape output_shape_at(const Shape& input, std::size_t last_layer) const;

  LayerKind kind() const override { return LayerKind::kBlock; }
  std::string name() const override { return "Sequential"; }

  std::size_t size() const { return layers_.size(); }
  Layer& layer(std::size_t i) { return *layers_[i]; }
  const Layer& layer(std::size_t i) const { return *layers_[i]; }

  std::int64_t macs_per_sample(const Shape& input_chw) const override;

  void append_state(std::vector<Tensor*>& state) override {
    for (auto& layer : layers_) layer->append_state(state);
  }

 private:
  std::vector<LayerPtr> layers_;
  // Training tape: views of the input, every internal boundary activation
  // (pinned in the caller's workspace) and the output of the last
  // forward_train_into.  Valid until consumed by backward_into.
  std::vector<TensorView> tape_;
  bool tape_valid_ = false;
};

}  // namespace nshd::nn
