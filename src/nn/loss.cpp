#include "nn/loss.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <string>

#include "nn/layer.hpp"

namespace nshd::nn {

LossStats softmax_cross_entropy_into(const tensor::TensorView& logits,
                                     const std::vector<std::int64_t>& labels,
                                     tensor::TensorView grad_logits) {
  assert(logits.shape().rank() == 2);
  assert(grad_logits.shape() == logits.shape());
  assert(grad_logits.data() != logits.data());
  const std::int64_t batch = logits.shape()[0];
  const std::int64_t classes = logits.shape()[1];
  if (static_cast<std::int64_t>(labels.size()) != batch)
    throw TrainingStateError("softmax_cross_entropy_into: " +
                             std::to_string(labels.size()) +
                             " labels for a batch of " + std::to_string(batch));

  LossStats stats;
  double total = 0.0;
  for (std::int64_t n = 0; n < batch; ++n) {
    const std::int64_t label = labels[static_cast<std::size_t>(n)];
    if (label < 0 || label >= classes)
      throw TrainingStateError("softmax_cross_entropy_into: label " +
                               std::to_string(label) + " outside [0, " +
                               std::to_string(classes) + ")");
    const float* row = logits.data() + n * classes;
    float* g = grad_logits.data() + n * classes;
    // Row softmax with the exact float-op sequence of tensor::softmax at
    // temperature 1 (division by 1.0f is an identity), computed into the
    // gradient row instead of a fresh tensor.
    float hi = row[0];
    for (std::int64_t i = 1; i < classes; ++i) hi = std::max(hi, row[i]);
    double z = 0.0;
    for (std::int64_t i = 0; i < classes; ++i) {
      g[i] = std::exp((row[i] - hi) / 1.0f);
      z += g[i];
    }
    const auto inv = static_cast<float>(1.0 / z);
    for (std::int64_t i = 0; i < classes; ++i) g[i] *= inv;

    const float p = g[label];
    total -= std::log(std::max(p, 1e-12f));
    // Argmax before the onehot subtraction, first-max-wins.
    std::int64_t best = 0;
    for (std::int64_t i = 1; i < classes; ++i)
      if (g[i] > g[best]) best = i;
    if (best == label) ++stats.correct;
    g[label] -= 1.0f;
  }
  const float inv_batch = 1.0f / static_cast<float>(batch);
  const std::int64_t numel = batch * classes;
  float* g = grad_logits.data();
  for (std::int64_t i = 0; i < numel; ++i) g[i] *= inv_batch;
  stats.loss = total / static_cast<double>(batch);
  return stats;
}

}  // namespace nshd::nn
