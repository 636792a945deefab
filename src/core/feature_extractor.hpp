// Feature extraction through a cut CNN (Sec. IV-A).
//
// NSHD takes a pretrained zoo model, keeps layers [0..cut] as the frozen
// feature extractor, and uses the *full* model separately as the KD teacher.
// Extraction is batched and materialized once per dataset — the features are
// reused across every retraining epoch, mirroring how the paper runs the
// extractor under TensorRT exactly once per input.
//
// Extraction executes through an nn::Plan (f32, or int8 once calibrated):
// batches are sliced as
// TensorViews straight out of the dataset tensor and activations land
// directly in the output rows, so the hot loop performs no heap allocation
// or gather copies.  Batches run in parallel with per-worker workspaces;
// results are bitwise identical for any thread count.
#pragma once

#include <cstdint>

#include "data/dataset.hpp"
#include "models/zoo.hpp"
#include "nn/plan.hpp"

namespace nshd::core {

/// Materialized features: one row per sample, plus the CHW shape of the cut
/// activation (needed by the manifold pooling step).
struct ExtractedFeatures {
  tensor::Tensor values;    // [N, F] with F = C*H*W at the cut
  tensor::Shape chw;        // activation shape at the cut
  std::size_t cut_layer = 0;

  /// Copies the given rows (in order, duplicates allowed) into a new
  /// ExtractedFeatures carrying the same cut metadata.  Shared by the
  /// incremental-learning example and the online drift-stream tooling
  /// (base-class subsets, per-chunk slices).
  ExtractedFeatures select_rows(const std::vector<std::int64_t>& rows) const;
};

/// Runs a prebuilt plan over every sample of `dataset`.  Use this overload
/// when the same (model, cut) is extracted repeatedly — the plan's
/// workspaces are reused across calls.  Features come back as f32 from an
/// int8 plan too (it dequantizes at the cut), so everything downstream —
/// manifold, projection, class bank — is the same for both precisions.
ExtractedFeatures extract_features(nn::Plan& plan, const data::Dataset& dataset,
                                   std::int64_t batch_size = 32);

/// Convenience overload: builds a one-shot plan for layers [0..cut_layer]
/// of `model.net` and extracts through it.
ExtractedFeatures extract_features(models::ZooModel& model, std::size_t cut_layer,
                                   const data::Dataset& dataset,
                                   std::int64_t batch_size = 32);

/// Extracts a single image [1, C, H, W] -> flat [F] through a prebuilt plan
/// (a batch of one on the shared batched path).
tensor::Tensor extract_one(nn::Plan& plan, const tensor::Tensor& image);

/// Convenience overload building a one-shot batch-1 plan.
tensor::Tensor extract_one(models::ZooModel& model, std::size_t cut_layer,
                           const tensor::Tensor& image);

}  // namespace nshd::core
