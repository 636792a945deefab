// Softmax cross-entropy loss with fused gradient.
#pragma once

#include <cstdint>
#include <vector>

#include "tensor/view.hpp"

namespace nshd::nn {

/// Mean loss over the batch and the argmax == label count.
struct LossStats {
  double loss = 0.0;
  std::int64_t correct = 0;
};

/// Mean softmax-CE over a batch of logits [N, K] with integer labels.
/// Writes grad_logits = (softmax - onehot) / N into caller memory (same
/// shape as logits, must not alias it) and returns loss/correct.  The row
/// softmax follows tensor::softmax's float-op order at temperature 1.
/// Throws TrainingStateError on a label outside [0, K).
LossStats softmax_cross_entropy_into(const tensor::TensorView& logits,
                                     const std::vector<std::int64_t>& labels,
                                     tensor::TensorView grad_logits);

}  // namespace nshd::nn
