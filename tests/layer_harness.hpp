// Test-side drivers for the workspace layer API: one-shot training-mode
// forward/backward and the finite-difference gradient check.  Layers have no
// allocating training entry points, so tests drive forward_train_into /
// backward_into through these with an explicit Workspace — the same calls
// nn::TrainingPlan makes.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "nn/layer.hpp"
#include "tensor/workspace.hpp"
#include "util/rng.hpp"

namespace nshd::nn::harness {

using tensor::Shape;
using tensor::Tensor;
using tensor::Workspace;

inline Tensor random_tensor(Shape shape, util::Rng& rng, float scale = 1.0f) {
  Tensor t(std::move(shape));
  for (float& v : t.span()) v = rng.normal(0.0f, scale);
  return t;
}

/// Training-mode forward of `x`, written into a fresh tensor.  `ws` must
/// outlive a following backward() of the same pass (containers pin their
/// activation tape in it); it is reset on entry.
inline Tensor train_forward(Layer& layer, const Tensor& x, Workspace& ws) {
  ws.reset();
  Tensor out(layer.output_shape(x.shape()));
  layer.forward_train_into(x.view(), out.view(), ws);
  return out;
}

/// Backward of the pass train_forward(layer, x, ws) just ran: accumulates
/// param grads and returns d(loss)/d(x).  `x` must be the same tensor object.
inline Tensor train_backward(Layer& layer, const Tensor& x,
                             const Tensor& grad_out, Workspace& ws) {
  Tensor grad_in(x.shape());
  layer.backward_into(x.view(), grad_out.view(), grad_in.view(), ws);
  return grad_in;
}

inline std::vector<Tensor> snapshot_state(Layer& layer) {
  std::vector<Tensor*> ptrs;
  layer.append_state(ptrs);
  std::vector<Tensor> out;
  out.reserve(ptrs.size());
  for (const Tensor* t : ptrs) out.push_back(*t);
  return out;
}

inline void restore_state(Layer& layer, const std::vector<Tensor>& snapshot) {
  std::vector<Tensor*> ptrs;
  layer.append_state(ptrs);
  ASSERT_EQ(ptrs.size(), snapshot.size());
  for (std::size_t i = 0; i < ptrs.size(); ++i) {
    ASSERT_EQ(ptrs[i]->numel(), snapshot[i].numel());
    std::memcpy(ptrs[i]->data(), snapshot[i].data(),
                static_cast<std::size_t>(snapshot[i].numel()) * sizeof(float));
  }
}

/// Probe loss sum(out .* probe) through the training forward.  Callers
/// restore the layer's state (params, batch-norm running stats, dropout step
/// counters) to the baseline before each call — append_state covers the
/// param values too, so a restore inside this function would undo the
/// caller's finite-difference perturbation.
inline double probe_loss(Layer& layer, const Tensor& x, const Tensor& probe,
                         Workspace& ws) {
  const Tensor out = train_forward(layer, x, ws);
  double loss = 0.0;
  for (std::int64_t i = 0; i < out.numel(); ++i)
    loss += static_cast<double>(out[i]) * probe[i];
  return loss;
}

/// Checks backward_into's d(probe loss)/d(input) and d/d(params) against
/// central finite differences of the training forward.  Training mode makes
/// batch norm differentiate its batch statistics, which is the function its
/// backward implements.
inline void check_gradients(Layer& layer, Tensor x, double tolerance = 2e-2,
                            float eps = 1e-2f) {
  util::Rng rng(4242);
  Workspace ws;
  const std::vector<Tensor> state0 = snapshot_state(layer);
  const Tensor probe = random_tensor(layer.output_shape(x.shape()), rng);

  restore_state(layer, state0);
  zero_grads(layer.params());
  train_forward(layer, x, ws);
  const Tensor grad_in = train_backward(layer, x, probe, ws);

  // Copy the analytic gradients out before the numeric passes overwrite
  // anything.
  std::vector<Tensor> param_grads;
  for (Param* p : layer.params()) param_grads.push_back(p->grad);

  // Each numeric evaluation restores the full baseline first (pinning the
  // batch-norm stats and dropout step), then applies one perturbation.
  const std::int64_t stride = std::max<std::int64_t>(1, x.numel() / 20);
  for (std::int64_t i = 0; i < x.numel(); i += stride) {
    const float saved = x[i];
    restore_state(layer, state0);
    x[i] = saved + eps;
    const double up = probe_loss(layer, x, probe, ws);
    restore_state(layer, state0);
    x[i] = saved - eps;
    const double down = probe_loss(layer, x, probe, ws);
    x[i] = saved;
    const double numeric = (up - down) / (2.0 * eps);
    EXPECT_NEAR(grad_in[i], numeric, tolerance + 0.05 * std::fabs(numeric))
        << layer.name() << " input grad at " << i;
  }

  const std::vector<Param*> params = layer.params();
  for (std::size_t pi = 0; pi < params.size(); ++pi) {
    Param* p = params[pi];
    const std::int64_t pstride = std::max<std::int64_t>(1, p->value.numel() / 12);
    for (std::int64_t i = 0; i < p->value.numel(); i += pstride) {
      restore_state(layer, state0);
      const float saved = p->value[i];
      p->value[i] = saved + eps;
      const double up = probe_loss(layer, x, probe, ws);
      restore_state(layer, state0);
      p->value[i] = saved - eps;
      const double down = probe_loss(layer, x, probe, ws);
      const double numeric = (up - down) / (2.0 * eps);
      EXPECT_NEAR(param_grads[pi][i], numeric,
                  tolerance + 0.05 * std::fabs(numeric))
          << layer.name() << " " << p->name << " grad at " << i;
    }
  }
  restore_state(layer, state0);
}

}  // namespace nshd::nn::harness
