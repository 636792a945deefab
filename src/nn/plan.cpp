#include "nn/plan.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

namespace nshd::nn {

namespace {
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
}  // namespace

InferencePlan::InferencePlan(Sequential& net, Shape sample_chw,
                             std::size_t last_layer, std::int64_t max_batch)
    : net_(&net),
      sample_chw_(std::move(sample_chw)),
      last_layer_(last_layer),
      max_batch_(max_batch) {
  assert(max_batch_ >= 1);
  // Shape inference once, at plan-build time.  output_shape_at throws
  // std::out_of_range on an out-of-range cut.
  const Shape in_one = with_batch(sample_chw_, 1);
  out_shape_one_ = net_->output_shape_at(in_one, last_layer_);
  out_numel_per_sample_ = out_shape_one_.numel();
  planned_floats_ = static_cast<std::size_t>(std::max<std::int64_t>(
      0, net_->scratch_floats_to(with_batch(sample_chw_, max_batch_),
                                 last_layer_)));
}

Shape InferencePlan::output_shape(std::int64_t n) const {
  return replace_batch(out_shape_one_, n);
}

std::unique_ptr<Workspace> InferencePlan::acquire_workspace() {
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

void InferencePlan::release_workspace(std::unique_ptr<Workspace> ws) {
  std::lock_guard<std::mutex> lock(mutex_);
  peak_floats_ = std::max(peak_floats_, ws->peak_floats());
  // A lease that grew past the planned budget (an oversized batch with
  // n > max_batch) is destroyed instead of pooled: pooling it would pin the
  // burst's arena forever and inflate steady-state memory.  Its peak was
  // folded into peak_floats_ above, so high-water reporting stays accurate.
  if (ws->capacity_floats() > planned_floats_) {
    --total_workspaces_;
    return;
  }
  free_.push_back(std::move(ws));
}

void InferencePlan::run_batch(const TensorView& in, TensorView out) {
  assert(in.shape().rank() == sample_chw_.rank() + 1);
  const std::int64_t batch = in.shape()[0];
  assert(out.numel() == batch * out_numel_per_sample_);
  if (batch == 0) return;

  // An oversized batch (n > max_batch) needs more arena than the planned
  // budget.  It gets a throwaway workspace sized for the burst instead of a
  // pooled lease: growing a pooled workspace would pin the burst's memory in
  // the pool forever (steady-state inflation after one spike).
  if (batch > max_batch_) {
    const auto scale = static_cast<std::size_t>(
        (batch + max_batch_ - 1) / max_batch_);
    Workspace burst(planned_floats_ * scale);
    net_->forward_into_to(in, out, burst, last_layer_);
    std::lock_guard<std::mutex> lock(mutex_);
    peak_floats_ = std::max(peak_floats_, burst.peak_floats());
    return;
  }

  std::unique_ptr<Workspace> ws = acquire_workspace();
  ws->reset();
  try {
    net_->forward_into_to(in, out, *ws, last_layer_);
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

Tensor InferencePlan::run_batch(const Tensor& in) {
  const std::int64_t batch = in.shape().rank() > 0 ? in.shape()[0] : 0;
  Tensor out(output_shape(batch));
  if (batch > 0) run_batch(in.view(), out.view());
  return out;
}

std::size_t InferencePlan::peak_workspace_bytes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::size_t peak = peak_floats_;
  for (const auto& ws : free_) peak = std::max(peak, ws->peak_floats());
  return peak * sizeof(float);
}

std::size_t InferencePlan::workspace_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return total_workspaces_;
}

}  // namespace nshd::nn
