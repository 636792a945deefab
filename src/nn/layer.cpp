#include "nn/layer.hpp"

namespace nshd::nn {

Tensor Layer::forward(const Tensor& input) {
  Tensor output(output_shape(input.shape()));
  Workspace ws;
  forward_into(input.view(), output.view(), ws);
  return output;
}

const char* to_string(LayerKind kind) {
  switch (kind) {
    case LayerKind::kConv: return "Conv";
    case LayerKind::kDepthwiseConv: return "DepthwiseConv";
    case LayerKind::kBatchNorm: return "BatchNorm";
    case LayerKind::kActivation: return "Activation";
    case LayerKind::kMaxPool: return "MaxPool";
    case LayerKind::kAvgPool: return "AvgPool";
    case LayerKind::kLinear: return "Linear";
    case LayerKind::kFlatten: return "Flatten";
    case LayerKind::kDropout: return "Dropout";
    case LayerKind::kBlock: return "Block";
  }
  return "?";
}

void zero_grads(const std::vector<Param*>& params) {
  for (Param* p : params) p->grad.zero();
}

}  // namespace nshd::nn
