#include "nn/sequential.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <stdexcept>
#include <string>

namespace nshd::nn {

namespace {
void check_layer_index(std::size_t index, std::size_t size, const char* what) {
  // Throw (instead of asserting) so an out-of-range cut from a sweep config
  // surfaces as a catchable failure, not release-mode UB.
  if (index >= size)
    throw std::out_of_range(std::string(what) + ": layer index " +
                            std::to_string(index) + " >= size " +
                            std::to_string(size));
}
}  // namespace

Sequential& Sequential::add(LayerPtr layer) {
  layers_.push_back(std::move(layer));
  return *this;
}

TensorView Sequential::forward_range(TensorView cur, int& cur_slab,
                                     float* const slabs[2], float* out,
                                     Workspace& ws, std::size_t first,
                                     std::size_t last,
                                     const BoundaryObserver& observe) {
  check_layer_index(last, layers_.size(), "Sequential::forward_range");
  for (std::size_t i = first; i <= last; ++i) {
    Layer& layer = *layers_[i];
    Shape shape = layer.output_shape(cur.shape());
    float* target;
    if (i == last && out != nullptr) {
      target = out;
      cur_slab = -1;
    } else if (layer.inplace_eval() && cur_slab >= 0) {
      target = cur.data();  // in-place layers preserve numel
    } else {
      cur_slab = cur_slab == 0 ? 1 : 0;
      target = slabs[cur_slab];
    }
    TensorView next(target, std::move(shape));
    layer.forward_into(cur, next, ws);
    if (observe) observe(i + 1, next);
    cur = std::move(next);
  }
  return cur;
}

void Sequential::forward_into(const TensorView& in, TensorView out,
                              Workspace& scratch) {
  if (layers_.empty()) {
    assert(out.numel() == in.numel());
    if (out.data() != in.data() && in.numel() > 0) {
      std::memcpy(out.data(), in.data(),
                  static_cast<std::size_t>(in.numel()) * sizeof(float));
    }
    return;
  }
  std::int64_t max_inter = 0;
  Shape s = in.shape();
  for (std::size_t i = 0; i + 1 < layers_.size(); ++i) {
    s = layers_[i]->output_shape(s);
    max_inter = std::max(max_inter, s.numel());
  }
  Workspace::Frame frame(scratch);
  float* slabs[2] = {scratch.alloc(max_inter), scratch.alloc(max_inter)};
  int slab = -1;
  forward_range(in, slab, slabs, out.data(), scratch, 0, layers_.size() - 1);
}

std::int64_t Sequential::scratch_floats(const Shape& input) const {
  if (layers_.empty()) return 0;
  Shape s = input;
  std::int64_t max_inter = 0, max_layer_scratch = 0;
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    max_layer_scratch =
        std::max(max_layer_scratch, layers_[i]->scratch_floats(s));
    s = layers_[i]->output_shape(s);
    if (i + 1 < layers_.size()) max_inter = std::max(max_inter, s.numel());
  }
  // Slack for the arena rounding each alloc up to its alignment quantum.
  const auto align = static_cast<std::int64_t>(Workspace::kAlignFloats);
  return 2 * (max_inter + align) + max_layer_scratch;
}

void Sequential::forward_train_into(const TensorView& in, TensorView out,
                                    Workspace& ws) {
  tape_.clear();
  tape_.push_back(in);
  if (layers_.empty()) {
    assert(out.numel() == in.numel());
    if (out.data() != in.data() && in.numel() > 0) {
      std::memcpy(out.data(), in.data(),
                  static_cast<std::size_t>(in.numel()) * sizeof(float));
    }
    tape_.push_back(out);
    tape_valid_ = true;
    return;
  }
  // Every boundary activation gets its own pinned span (deliberately no
  // Frame and no in-place reuse: backward_into needs each layer's exact
  // input preserved).  The last layer writes straight into `out`.
  Shape s = in.shape();
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    s = layers_[i]->output_shape(s);
    TensorView target;
    if (i + 1 == layers_.size()) {
      assert(out.numel() == s.numel());
      target = TensorView(out.data(), s);
    } else {
      target = ws.alloc_view(s);
    }
    layers_[i]->forward_train_into(tape_.back(), target, ws);
    tape_.push_back(target);
  }
  tape_valid_ = true;
}

void Sequential::backward_into(const TensorView& in, const TensorView& grad_out,
                               TensorView grad_in, Workspace& ws) {
  if (!tape_valid_)
    throw TrainingStateError(
        "Sequential::backward_into before forward_train_into (or tape "
        "already consumed)");
  if (tape_.front().data() != in.data() || tape_.front().shape() != in.shape())
    throw TrainingStateError(
        "Sequential::backward_into: input does not match the training tape");
  if (grad_out.shape() != tape_.back().shape())
    throw TrainingStateError(
        "Sequential::backward_into: grad_output shape " +
        grad_out.shape().to_string() + " does not match the forward output " +
        tape_.back().shape().to_string());
  tape_valid_ = false;  // single-use: the slab walk clobbers nothing pinned,
                        // but the tape's activations die with the next reset

  if (layers_.empty()) {
    assert(grad_in.numel() == grad_out.numel());
    if (grad_in.data() != grad_out.data() && grad_out.numel() > 0) {
      std::memcpy(grad_in.data(), grad_out.data(),
                  static_cast<std::size_t>(grad_out.numel()) * sizeof(float));
    }
    return;
  }

  // Gradients ping-pong between two slabs sized at the largest internal
  // boundary; the first layer writes straight into grad_in.  Layer-local
  // scratch (chunk partials, col buffers) nests in per-layer Frames inside
  // this one, so the pinned tape below stays untouched.
  Workspace::Frame frame(ws);
  std::int64_t max_inter = 0;
  for (std::size_t i = 1; i + 1 < tape_.size(); ++i)
    max_inter = std::max(max_inter, tape_[i].numel());
  float* slabs[2] = {ws.alloc(max_inter), ws.alloc(max_inter)};

  TensorView g = grad_out;
  int cur_slab = -1;  // -1: still reading the caller's grad_out
  for (std::size_t i = layers_.size(); i-- > 0;) {
    TensorView target;
    if (i == 0) {
      target = TensorView(grad_in.data(), tape_[0].shape());
    } else {
      const int t = cur_slab == 0 ? 1 : 0;
      target = TensorView(slabs[t], tape_[i].shape());
      cur_slab = t;
    }
    layers_[i]->backward_into(tape_[i], g, target, ws);
    g = target;
  }
}

std::int64_t Sequential::train_pinned_floats(const Shape& input) const {
  const auto align = static_cast<std::int64_t>(Workspace::kAlignFloats);
  Shape s = input;
  std::int64_t pinned = 0;
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    pinned += layers_[i]->train_pinned_floats(s);
    s = layers_[i]->output_shape(s);
    if (i + 1 < layers_.size()) pinned += s.numel() + align;
  }
  return pinned;
}

std::int64_t Sequential::train_scratch_floats(const Shape& input) const {
  const auto align = static_cast<std::int64_t>(Workspace::kAlignFloats);
  Shape s = input;
  std::int64_t max_inter = 0, max_transient = 0;
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    // A nested container's pins are already summed via train_pinned_floats;
    // only its transient (frame-scoped) share competes for the max.
    max_transient = std::max(max_transient,
                             layers_[i]->train_scratch_floats(s) -
                                 layers_[i]->train_pinned_floats(s));
    s = layers_[i]->output_shape(s);
    if (i + 1 < layers_.size()) max_inter = std::max(max_inter, s.numel());
  }
  return train_pinned_floats(input) + 2 * (max_inter + align) + max_transient;
}

std::vector<Param*> Sequential::params() {
  std::vector<Param*> all;
  for (auto& layer : layers_) {
    for (Param* p : layer->params()) all.push_back(p);
  }
  return all;
}

Shape Sequential::output_shape(const Shape& input) const {
  Shape s = input;
  for (const auto& layer : layers_) s = layer->output_shape(s);
  return s;
}

Shape Sequential::output_shape_at(const Shape& input, std::size_t last_layer) const {
  check_layer_index(last_layer, layers_.size(), "Sequential::output_shape_at");
  Shape s = input;
  for (std::size_t i = 0; i <= last_layer; ++i) s = layers_[i]->output_shape(s);
  return s;
}

std::int64_t Sequential::macs_per_sample(const Shape& input_chw) const {
  // Walk batch-less CHW shapes through the stack, accumulating per-layer MACs.
  // Works because every layer's output_shape handles rank-4 with batch; wrap
  // in a fake batch of 1.
  Shape s{1, input_chw[0], input_chw.rank() > 1 ? input_chw[1] : 1,
          input_chw.rank() > 2 ? input_chw[2] : 1};
  std::int64_t total = 0;
  for (const auto& layer : layers_) {
    if (layer->kind() == LayerKind::kFlatten || layer->kind() == LayerKind::kLinear) {
      // Linear layers operate on [N, F]; flatten first.
      if (s.rank() == 4) s = Shape{s[0], s.numel() / s[0]};
    }
    const Shape chw = s.rank() == 4 ? Shape{s[1], s[2], s[3]} : Shape{s[1]};
    total += layer->macs_per_sample(chw);
    s = layer->output_shape(s);
  }
  return total;
}

}  // namespace nshd::nn
