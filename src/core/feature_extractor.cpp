#include "core/feature_extractor.hpp"

#include <cassert>

#include "util/thread_pool.hpp"

namespace nshd::core {

ExtractedFeatures extract_features(nn::Plan& plan, const data::Dataset& dataset,
                                   std::int64_t batch_size) {
  assert(batch_size >= 1);
  ExtractedFeatures out;
  out.cut_layer = plan.last_layer();
  const tensor::Shape out_one = plan.output_shape(1);
  out.chw = tensor::Shape{out_one[1], out_one.rank() > 2 ? out_one[2] : 1,
                          out_one.rank() > 3 ? out_one[3] : 1};
  const std::int64_t f = plan.out_features();
  const std::int64_t total = dataset.size();
  out.values = tensor::Tensor(tensor::Shape{total, f});
  if (total == 0) return out;

  const tensor::Shape& chw = plan.sample_chw();
  assert(dataset.sample_shape() == chw && "dataset/plan shape mismatch");
  const std::int64_t sample_numel = chw.numel();
  // Views slice the dataset tensor and the output rows directly; batches
  // write disjoint row ranges, so running them in parallel (one leased
  // workspace each) is race-free and bitwise deterministic.
  const tensor::TensorView images = dataset.images.view();
  const tensor::TensorView values = out.values.view();
  util::parallel_for(0, total, batch_size,
                     [&](std::int64_t begin, std::int64_t end) {
    const std::int64_t n = end - begin;
    const tensor::TensorView in(images.data() + begin * sample_numel,
                                tensor::Shape{n, chw[0], chw[1], chw[2]});
    tensor::TensorView rows(values.data() + begin * f, tensor::Shape{n, f});
    plan.run_batch(in, rows);
  });
  return out;
}

ExtractedFeatures ExtractedFeatures::select_rows(
    const std::vector<std::int64_t>& rows) const {
  const std::int64_t f = values.shape()[1];
  ExtractedFeatures out;
  out.chw = chw;
  out.cut_layer = cut_layer;
  out.values =
      tensor::Tensor(tensor::Shape{static_cast<std::int64_t>(rows.size()), f});
  for (std::size_t r = 0; r < rows.size(); ++r) {
    assert(rows[r] >= 0 && rows[r] < values.shape()[0]);
    std::copy_n(values.data() + rows[r] * f, f,
                out.values.data() + static_cast<std::int64_t>(r) * f);
  }
  return out;
}

ExtractedFeatures extract_features(models::ZooModel& model, std::size_t cut_layer,
                                   const data::Dataset& dataset,
                                   std::int64_t batch_size) {
  assert(cut_layer < model.feature_count);
  nn::Plan plan(model.net, model.input_chw, cut_layer, batch_size);
  return extract_features(plan, dataset, batch_size);
}

tensor::Tensor extract_one(nn::Plan& plan, const tensor::Tensor& image) {
  assert(image.shape().rank() == 4 && image.shape()[0] == 1);
  tensor::Tensor activations = plan.run_batch(image);
  return activations.reshaped(tensor::Shape{activations.numel()});
}

tensor::Tensor extract_one(models::ZooModel& model, std::size_t cut_layer,
                           const tensor::Tensor& image) {
  assert(cut_layer < model.feature_count);
  nn::Plan plan(model.net, model.input_chw, cut_layer, /*max_batch=*/1);
  return extract_one(plan, image);
}

}  // namespace nshd::core
