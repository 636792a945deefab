// Double-buffered batch prefetch pipeline for the training loop.
//
// A BatchPipeline is a drop-in replacement for BatchIterator that overlaps
// batch assembly (index slicing + sample gather) with compute: a single
// producer thread fills a small ring of preallocated batch slots while the
// trainer consumes them, so the gather memcpy for batch k+1 happens during
// the forward/backward of batch k.  Depth 0 disables the thread entirely and
// fills synchronously on the caller — the scheduling degenerates to
// BatchIterator's.
//
// Determinism: the pipeline draws from the caller's Rng exactly like
// BatchIterator (one shuffle at construction, one per reset(), both on the
// calling thread) and batches are handed out strictly in epoch order, so the
// batch stream is bitwise identical at every prefetch depth, thread count,
// and to BatchIterator (kept as the reference the pipeline is tested
// against).  Single consumer only: next()/reset() must be called from one
// thread.
//
// Fault site: "train.prefetch_stall" delays a batch fill (~25 ms), modeling
// a slow producer; consumers must block, not skip or reorder.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

#include "data/dataset.hpp"
#include "tensor/view.hpp"

namespace nshd::data {

/// Upper bound on the prefetch depth accepted from NSHD_PREFETCH.
inline constexpr int kMaxPrefetchDepth = 8;

/// Prefetch depth from the NSHD_PREFETCH environment variable, strictly
/// validated over [0, kMaxPrefetchDepth] (0 = synchronous).  Default 1.
int prefetch_depth_from_env();

class BatchPipeline {
 public:
  /// `depth` batches are assembled ahead of the consumer (0 = synchronous,
  /// no producer thread).  `rng` must outlive the pipeline; it is only drawn
  /// from on the calling thread (construction and reset()), mirroring
  /// BatchIterator's stream draw for draw.
  BatchPipeline(const Dataset& dataset, std::int64_t batch_size,
                util::Rng& rng, int depth, bool shuffle = true);
  ~BatchPipeline();

  BatchPipeline(const BatchPipeline&) = delete;
  BatchPipeline& operator=(const BatchPipeline&) = delete;

  /// Hands out the next batch; returns false at epoch end.  `images` is a
  /// view into a pipeline-owned slot, valid until the next call to next(),
  /// reset(), or destruction; `labels` is copied into the caller's vector.
  bool next(tensor::TensorView& images, std::vector<std::int64_t>& labels);

  /// Restarts the epoch with a fresh shuffle (drawn on the calling thread).
  /// In-flight prefetched batches from the old epoch are discarded.
  void reset();

  std::int64_t batches_per_epoch() const { return batches_per_epoch_; }
  int depth() const { return depth_; }

 private:
  struct Slot {
    tensor::Tensor images;             // [batch_size, C, H, W], preallocated
    std::vector<std::int64_t> labels;  // of the `count` leading samples
    std::int64_t count = 0;
  };

  /// Copies the samples at `indices` into the slot's leading rows.  Runs
  /// outside the lock (dataset and slot are stable); carries the
  /// "train.prefetch_stall" fault probe.
  void fill_slot(Slot& slot, const std::vector<std::size_t>& indices);

  /// Index slice for epoch batch `b` of the current order_.  Lock held.
  std::vector<std::size_t> batch_indices_locked(std::int64_t b) const;

  void producer_loop();

  const Dataset* dataset_;
  std::int64_t batch_size_;
  util::Rng* rng_;
  bool shuffle_;
  int depth_;
  std::int64_t batches_per_epoch_ = 0;
  std::int64_t chw_ = 0;

  std::vector<Slot> slots_;

  // Everything below mutex_ is generation-local producer/consumer state.
  // order_ is read by the producer only under the lock (it snapshots the
  // batch's index slice before unlocking to gather), so reset() can
  // reshuffle safely.
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::vector<std::size_t> order_;
  std::uint64_t generation_ = 0;
  std::int64_t produced_ = 0;  // batches filled this generation
  std::int64_t handed_ = 0;    // batches returned to the consumer
  std::int64_t released_ = 0;  // handed-out slots the consumer is done with
  bool has_borrow_ = false;    // consumer currently holds a slot view
  bool stop_ = false;

  std::thread producer_;
};

}  // namespace nshd::data
