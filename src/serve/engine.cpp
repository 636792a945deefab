#include "serve/engine.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <utility>

#include "tensor/ops.hpp"
#include "util/fault.hpp"
#include "util/log.hpp"

namespace nshd::serve {

const char* to_string(SubmitStatus status) {
  switch (status) {
    case SubmitStatus::kOk: return "ok";
    case SubmitStatus::kUnknownModel: return "unknown-model";
    case SubmitStatus::kBadShape: return "bad-shape";
    case SubmitStatus::kQueueFull: return "queue-full";
    case SubmitStatus::kOverloaded: return "overloaded";
    case SubmitStatus::kShutdown: return "shutdown";
  }
  return "?";
}

const char* to_string(RequestStatus status) {
  switch (status) {
    case RequestStatus::kOk: return "ok";
    case RequestStatus::kDegraded: return "degraded";
    case RequestStatus::kTimedOut: return "timed-out";
    case RequestStatus::kInternalError: return "internal-error";
  }
  return "?";
}

const char* to_string(UpdateStatus status) {
  switch (status) {
    case UpdateStatus::kOk: return "ok";
    case UpdateStatus::kUnknownModel: return "unknown-model";
    case UpdateStatus::kOnlineDisabled: return "online-disabled";
    case UpdateStatus::kBadArgs: return "bad-args";
    case UpdateStatus::kNonFinite: return "non-finite";
    case UpdateStatus::kAccuracyCollapse: return "accuracy-collapse";
    case UpdateStatus::kPublishFault: return "publish-fault";
    case UpdateStatus::kShutdown: return "shutdown";
  }
  return "?";
}

const char* to_string(FlushReason reason) {
  switch (reason) {
    case FlushReason::kMaxBatch: return "max-batch";
    case FlushReason::kDeadline: return "deadline";
    case FlushReason::kDrain: return "drain";
  }
  return "?";
}

ModelBundle::ModelBundle(models::ZooModel zoo_model, std::size_t cut_layer,
                         const core::NshdConfig& config, std::int64_t max_batch)
    : zoo(std::move(zoo_model)),
      cut(cut_layer),
      nshd(zoo, cut_layer, config),
      plan(zoo.net, zoo.input_chw, cut_layer, max_batch) {}

void ModelBundle::enable_online(hd::UpdateGuard guard) {
  online = std::make_unique<hd::VersionedBank>(nshd.classifier());
  online->set_guard(std::move(guard));
}

const nn::CalibrationReport& ModelBundle::enable_quantized(
    const tensor::TensorView& calib_images, std::int64_t calib_batch) {
  // Installed only once calibrated, so serving never runs an
  // uncalibrated tape.
  auto built = std::make_unique<nn::Plan>(zoo.net, zoo.input_chw, cut,
                                          plan.max_batch());
  built->calibrate(calib_images, calib_batch);
  qplan = std::move(built);
  return qplan->report();
}

bool save_bundle_checkpoint(const core::NshdModel& model, const std::string& key,
                            const std::string& path) {
  util::Checkpoint checkpoint;
  checkpoint.key = key;
  checkpoint.meta = "serve-bundle";
  util::CheckpointTensor state;
  state.values = model.save_state();
  state.dims = {static_cast<std::int64_t>(state.values.size())};
  checkpoint.tensors.push_back(std::move(state));
  return util::write_checkpoint_file(path, checkpoint);
}

Engine::Engine(const EngineConfig& config) : config_(config) {
  config_.workers = std::max(1, config_.workers);
  config_.max_batch = std::max<std::int64_t>(1, config_.max_batch);
  config_.queue_capacity = std::max<std::size_t>(1, config_.queue_capacity);
  batch_deadline_ = std::chrono::microseconds(static_cast<std::int64_t>(
      std::max(0.0, config_.batch_deadline_ms) * 1000.0));
  request_deadline_ = std::chrono::microseconds(static_cast<std::int64_t>(
      std::max(0.0, config_.request_deadline_ms) * 1000.0));
  workers_.reserve(static_cast<std::size_t>(config_.workers));
  for (int i = 0; i < config_.workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

Engine::~Engine() { shutdown(); }

void Engine::register_model(const std::string& id,
                            std::unique_ptr<ModelBundle> bundle) {
  assert(bundle != nullptr);
  // All validation and warm-up happens here, on the caller's thread, before
  // the bundle is reachable by any worker: a failure is a caller-visible
  // exception, never one escaping a worker std::thread (std::terminate).
  if (!bundle->nshd.state_finite()) {
    throw std::invalid_argument("serve::Engine: model '" + id +
                                "' has non-finite weights; refusing to serve");
  }
  if (bundle->fallback != nullptr) {
    // The fallback consumes the raw cut features the plan produces, so it
    // must be a manifold-free encoder sized for them.
    if (bundle->fallback->manifold() != nullptr ||
        bundle->fallback->encoded_features() != bundle->plan.out_features()) {
      throw std::invalid_argument(
          "serve::Engine: model '" + id +
          "' fallback must be a manifold-free head over the same cut");
    }
    if (!bundle->fallback->state_finite()) {
      throw std::invalid_argument("serve::Engine: model '" + id +
                                  "' fallback has non-finite weights");
    }
    (void)bundle->fallback->classifier().class_norms();
  }
  // Warm the classifier's lazy norm cache before the bundle is reachable by
  // workers: similarities_all refreshes it on first use, and two concurrent
  // batches must never race that mutable refresh.
  (void)bundle->nshd.classifier().class_norms();
  auto entry = std::make_unique<ModelEntry>();
  entry->bundle = std::move(bundle);
  std::lock_guard<std::mutex> lock(mutex_);
  if (!registry_.emplace(id, std::move(entry)).second) {
    throw std::invalid_argument("serve::Engine: model '" + id +
                                "' is already registered (use reload())");
  }
}

const ModelBundle* Engine::bundle(const std::string& id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = registry_.find(id);
  return it == registry_.end() ? nullptr : it->second->bundle.get();
}

SubmitStatus Engine::submit(const std::string& id, tensor::Tensor image,
                            std::future<Response>* response,
                            double deadline_ms) {
  assert(response != nullptr);
  std::unique_lock<std::mutex> lock(mutex_);
  const auto it = registry_.find(id);
  if (it == registry_.end()) {
    counters_.rejected_unknown.fetch_add(1, std::memory_order_relaxed);
    return SubmitStatus::kUnknownModel;
  }
  ModelEntry& entry = *it->second;

  // Accept [C,H,W] or [1,C,H,W], matching the model's input exactly.
  const tensor::Shape& want = entry.bundle->zoo.input_chw;
  const tensor::Shape& got = image.shape();
  const bool shape_ok =
      (got.rank() == 3 && got[0] == want[0] && got[1] == want[1] &&
       got[2] == want[2]) ||
      (got.rank() == 4 && got[0] == 1 && got[1] == want[0] &&
       got[2] == want[1] && got[3] == want[2]);
  if (!shape_ok) {
    counters_.rejected_shape.fetch_add(1, std::memory_order_relaxed);
    return SubmitStatus::kBadShape;
  }
  if (draining_) {
    counters_.rejected_shutdown.fetch_add(1, std::memory_order_relaxed);
    return SubmitStatus::kShutdown;
  }
  if (entry.queue.size() >= config_.queue_capacity) {
    counters_.rejected_full.fetch_add(1, std::memory_order_relaxed);
    return SubmitStatus::kQueueFull;
  }

  // Admission control: shed before queuing when the backlog ahead of this
  // request, times the observed (EWMA) batch latency, already exceeds its
  // deadline budget — running it would only produce a kTimedOut later, at
  // the cost of real compute.  Sustained overload therefore degrades to
  // fast typed sheds instead of a growing queue of dead work.
  const double budget_ms = deadline_ms > 0.0
                               ? deadline_ms
                               : std::max(0.0, config_.request_deadline_ms);
  if (budget_ms > 0.0) {
    const double ewma = entry.ewma_batch_ms.load(std::memory_order_relaxed);
    if (ewma > 0.0 && !entry.queue.empty()) {
      const auto backlog = static_cast<double>(entry.queue.size());
      const double batches_ahead =
          std::ceil(backlog / static_cast<double>(config_.max_batch));
      if (batches_ahead * ewma > budget_ms) {
        counters_.rejected_overload.fetch_add(1, std::memory_order_relaxed);
        return SubmitStatus::kOverloaded;
      }
    }
  }

  Request request;
  request.image = std::move(image);
  request.enqueued = Clock::now();
  request.batch_by = request.enqueued + batch_deadline_;
  request.expires =
      budget_ms > 0.0
          ? request.enqueued + std::chrono::microseconds(
                                   static_cast<std::int64_t>(budget_ms * 1000.0))
          : Clock::time_point::max();
  *response = request.promise.get_future();
  entry.queue.push_back(std::move(request));
  lock.unlock();

  counters_.submitted.fetch_add(1, std::memory_order_relaxed);
  work_cv_.notify_one();
  return SubmitStatus::kOk;
}

void Engine::worker_loop() {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    const Clock::time_point now = Clock::now();
    // Scan the registry for (a) a flush-ready queue — full batch, expired
    // batching or request deadline, or drain — preferring the one whose head
    // request is oldest (FIFO fairness across models), and (b) the earliest
    // pending wake-up to sleep until when nothing is ready yet.
    ModelEntry* ready = nullptr;
    Clock::time_point ready_oldest{};
    bool any_pending = false;
    Clock::time_point min_wake{};
    for (auto& [id, entry] : registry_) {
      if (entry->queue.empty()) continue;
      const Request& head = entry->queue.front();
      const Clock::time_point head_wake = std::min(head.batch_by, head.expires);
      const bool full =
          entry->queue.size() >= static_cast<std::size_t>(config_.max_batch);
      if (full || draining_ || head_wake <= now) {
        if (ready == nullptr || head.enqueued < ready_oldest) {
          ready = entry.get();
          ready_oldest = head.enqueued;
        }
      }
      if (!any_pending || head_wake < min_wake) {
        min_wake = head_wake;
        any_pending = true;
      }
    }

    if (ready != nullptr) {
      const std::size_t take =
          std::min(ready->queue.size(),
                   static_cast<std::size_t>(config_.max_batch));
      const FlushReason reason =
          take == static_cast<std::size_t>(config_.max_batch)
              ? FlushReason::kMaxBatch
              : (draining_ ? FlushReason::kDrain : FlushReason::kDeadline);
      std::vector<Request> batch;
      batch.reserve(take);
      for (std::size_t i = 0; i < take; ++i) {
        batch.push_back(std::move(ready->queue.front()));
        ready->queue.pop_front();
      }
      ModelEntry* entry = ready;
      lock.unlock();
      execute_batch_guarded(*entry, std::move(batch), reason, /*attempt=*/0);
      lock.lock();
      continue;
    }

    // Draining with nothing ready means nothing is pending at all (any
    // non-empty queue is flush-ready during a drain): this worker is done.
    if (draining_) return;
    if (any_pending) {
      work_cv_.wait_until(lock, min_wake);
    } else {
      work_cv_.wait(lock);
    }
  }
}

void Engine::fail_request(Request& request, RequestStatus status,
                          FlushReason flush) {
  switch (status) {
    case RequestStatus::kTimedOut:
      counters_.timed_out.fetch_add(1, std::memory_order_relaxed);
      break;
    case RequestStatus::kInternalError:
      counters_.internal_errors.fetch_add(1, std::memory_order_relaxed);
      break;
    default: assert(false && "fail_request takes failure statuses only");
  }
  Response response;
  response.status = status;
  response.flush = flush;
  const Clock::time_point now = Clock::now();
  response.queue_ms =
      std::chrono::duration<double, std::milli>(now - request.enqueued).count();
  response.total_ms = response.queue_ms;
  request.promise.set_value(std::move(response));
}

void Engine::execute_batch_guarded(ModelEntry& entry, std::vector<Request> batch,
                                   FlushReason reason, std::int32_t attempt) {
  // Deadline enforcement at (re-)execution time: a request whose budget
  // expired while queued — or while riding bisection retries — completes
  // kTimedOut instead of consuming a forward pass.
  const Clock::time_point now = Clock::now();
  std::vector<Request> live;
  live.reserve(batch.size());
  for (Request& request : batch) {
    if (request.expires <= now) {
      fail_request(request, RequestStatus::kTimedOut, reason);
    } else {
      live.push_back(std::move(request));
    }
  }
  if (live.empty()) return;

  try {
    execute_batch(entry, live, reason, attempt);
    return;
  } catch (const std::exception& e) {
    NSHD_LOG_WARN("serve: batch of %zu faulted (attempt %d): %s",
                  live.size(), attempt, e.what());
  } catch (...) {
    NSHD_LOG_WARN("serve: batch of %zu faulted (attempt %d): non-std exception",
                  live.size(), attempt);
  }
  counters_.batch_faults.fetch_add(1, std::memory_order_relaxed);

  // Containment by bisection: a singleton that faults is the poison request
  // and is quarantined typed; a larger batch splits in half and each half is
  // re-executed, so innocents ride at most ceil(log2(n)) retries while every
  // poison request ends at its own kInternalError.  execute_batch touches no
  // promise before its fulfilment loop, so `live` still owns every promise
  // here and no request can be dropped or double-resolved.
  if (live.size() == 1) {
    fail_request(live.front(), RequestStatus::kInternalError, reason);
    return;
  }
  counters_.retried.fetch_add(live.size(), std::memory_order_relaxed);
  const auto mid =
      static_cast<std::ptrdiff_t>(live.size() / 2);
  std::vector<Request> lo(std::make_move_iterator(live.begin()),
                          std::make_move_iterator(live.begin() + mid));
  std::vector<Request> hi(std::make_move_iterator(live.begin() + mid),
                          std::make_move_iterator(live.end()));
  execute_batch_guarded(entry, std::move(lo), reason, attempt + 1);
  execute_batch_guarded(entry, std::move(hi), reason, attempt + 1);
}

void Engine::execute_batch(ModelEntry& entry, std::vector<Request>& batch,
                           FlushReason reason, std::int32_t attempt) {
  const Clock::time_point formed = Clock::now();
  ModelBundle& bundle = *entry.bundle;
  const auto n = static_cast<std::int64_t>(batch.size());
  const tensor::Shape& chw = bundle.zoo.input_chw;
  const std::int64_t sample_numel = chw.numel();
  const bool scan = config_.numeric_policy != NumericPolicy::kOff;

  // Gather request images into one contiguous [n, C, H, W] batch tensor.
  tensor::Tensor images(tensor::Shape{n, chw[0], chw[1], chw[2]});
  for (std::int64_t i = 0; i < n; ++i) {
    std::memcpy(images.data() + i * sample_numel, batch[static_cast<std::size_t>(i)].image.data(),
                static_cast<std::size_t>(sample_numel) * sizeof(float));
  }

  if (util::fault::should_fire("serve.worker_throw")) {
    throw std::runtime_error("injected serve.worker_throw");
  }

  tensor::Tensor sims;
  core::ExtractedFeatures features;
  std::vector<core::NshdModel::RowHealth> health;
  {
    // Shared against reload(): in-flight batches finish on the weights they
    // started with; a reload waits for them, then swaps exclusively.
    std::shared_lock<std::shared_mutex> guard(entry.reload_mutex);

    if (util::fault::should_fire("serve.batch_stall")) {
      std::this_thread::sleep_for(std::chrono::milliseconds(25));
    }

    const std::int64_t f = bundle.plan.out_features();
    features.cut_layer = bundle.cut;
    const tensor::Shape out_one = bundle.plan.output_shape(1);
    features.chw = tensor::Shape{out_one[1], out_one.rank() > 2 ? out_one[2] : 1,
                                 out_one.rank() > 3 ? out_one[3] : 1};
    features.values = tensor::Tensor(tensor::Shape{n, f});
    // The int8 plan, when enabled, has the same cut and [n, f] output; its
    // batches are counted so the quantized arm is observable in stats().
    nn::Plan& plan = bundle.qplan != nullptr ? *bundle.qplan : bundle.plan;
    plan.run_batch(images.view(), features.values.view());
    if (&plan != &bundle.plan) {
      counters_.quantized_batches.fetch_add(1, std::memory_order_relaxed);
    }

    const std::vector<hd::Hypervector> queries =
        bundle.nshd.symbolize_all(features, scan ? &health : nullptr);
    if (bundle.online != nullptr) {
      // Online mode: score the latest published bank version — one atomic
      // load, and the whole batch sees exactly that version regardless of
      // how many updates publish while it runs.
      const hd::VersionedBank::Snapshot snap = bundle.online->snapshot();
      sims = snap->bank.similarities_all(queries, bundle.nshd.config().similarity);
    } else {
      sims = bundle.nshd.classifier().similarities_all(
          queries, bundle.nshd.config().similarity);
    }
  }

  // Class count from the scored tensor, not the static classifier: under
  // online mode add_class/remove_class change K between batches.
  const std::int64_t k = sims.shape()[1];
  if (util::fault::should_fire("serve.nan_logits") && n > 0 && k > 0) {
    sims.data()[0] = std::numeric_limits<float>::quiet_NaN();
  }

  // Post-inference numeric health: classify each row as clean, degradable
  // (clean features, faulted primary head), or rejected (poison input).  The
  // similarity scan catches class-bank faults and the nan_logits site; the
  // feature/encoding health came from symbolize_all above.
  enum class RowFate : std::uint8_t { kServe, kDegrade, kReject };
  std::vector<RowFate> fate(static_cast<std::size_t>(n), RowFate::kServe);
  std::int64_t poison_rows = 0;
  if (scan) {
    for (std::int64_t i = 0; i < n; ++i) {
      const auto idx = static_cast<std::size_t>(i);
      const bool sims_ok = tensor::all_finite(sims.data() + i * k, k);
      if (health[idx] == core::NshdModel::RowHealth::kBadFeatures) {
        fate[idx] = RowFate::kReject;
      } else if (health[idx] == core::NshdModel::RowHealth::kBadEncoding ||
                 !sims_ok) {
        fate[idx] = config_.numeric_policy == NumericPolicy::kDegrade
                        ? RowFate::kDegrade
                        : RowFate::kReject;
      }
      if (fate[idx] != RowFate::kServe) ++poison_rows;
    }
  }

  // HD-only degradation: re-encode the (clean) raw feature rows through the
  // manifold-free fallback head and score against its own class bank.  The
  // fallback is never mutated after registration, so no reload lock is
  // needed; its norm cache was warmed in register_model.
  tensor::Tensor fallback_sims;
  std::vector<std::int64_t> degrade_rows;
  if (config_.numeric_policy == NumericPolicy::kDegrade &&
      bundle.fallback != nullptr) {
    for (std::int64_t i = 0; i < n; ++i) {
      if (fate[static_cast<std::size_t>(i)] == RowFate::kDegrade)
        degrade_rows.push_back(i);
    }
    if (!degrade_rows.empty()) {
      const std::int64_t f = bundle.plan.out_features();
      std::vector<hd::Hypervector> queries;
      queries.reserve(degrade_rows.size());
      for (const std::int64_t i : degrade_rows) {
        queries.push_back(bundle.fallback->symbolize(features.values.data() + i * f));
      }
      fallback_sims = bundle.fallback->classifier().similarities_all(
          queries, bundle.fallback->config().similarity);
    }
  }
  const std::int64_t fk =
      bundle.fallback ? bundle.fallback->classifier().num_classes() : 0;

  const Clock::time_point done = Clock::now();
  const double exec_ms =
      std::chrono::duration<double, std::milli>(done - formed).count();
  const double old_ewma = entry.ewma_batch_ms.load(std::memory_order_relaxed);
  entry.ewma_batch_ms.store(
      old_ewma <= 0.0 ? exec_ms : 0.8 * old_ewma + 0.2 * exec_ms,
      std::memory_order_relaxed);

  // Count the batch *before* fulfilling any promise: a caller that wakes on
  // future.get() must already see this batch in stats() (the increments are
  // published by the promise/future synchronization).
  counters_.batches.fetch_add(1, std::memory_order_relaxed);
  switch (reason) {
    case FlushReason::kMaxBatch:
      counters_.max_batch_flushes.fetch_add(1, std::memory_order_relaxed);
      break;
    case FlushReason::kDeadline:
      counters_.deadline_flushes.fetch_add(1, std::memory_order_relaxed);
      break;
    case FlushReason::kDrain:
      counters_.drain_flushes.fetch_add(1, std::memory_order_relaxed);
      break;
  }
  if (poison_rows > 0) {
    counters_.numeric_faults.fetch_add(static_cast<std::uint64_t>(poison_rows),
                                       std::memory_order_relaxed);
    NSHD_LOG_WARN("serve: %lld of %lld rows failed the numeric-health scan",
                  static_cast<long long>(poison_rows), static_cast<long long>(n));
  }
  std::uint64_t served = 0, degraded = 0;
  for (std::int64_t i = 0; i < n; ++i) {
    const auto idx = static_cast<std::size_t>(i);
    if (fate[idx] == RowFate::kServe) {
      ++served;
    } else if (fate[idx] == RowFate::kDegrade) {
      // Served degraded only when the fallback actually produced a finite
      // row; otherwise this row falls through to kReject below.
      const auto pos = static_cast<std::int64_t>(
          std::find(degrade_rows.begin(), degrade_rows.end(), i) -
          degrade_rows.begin());
      const bool ok =
          fallback_sims.numel() > 0 &&
          tensor::all_finite(fallback_sims.data() + pos * fk, fk);
      if (ok) ++degraded; else fate[idx] = RowFate::kReject;
    }
  }
  counters_.completed.fetch_add(served + degraded, std::memory_order_relaxed);
  if (degraded > 0)
    counters_.degraded.fetch_add(degraded, std::memory_order_relaxed);

  for (std::int64_t i = 0; i < n; ++i) {
    Request& request = batch[static_cast<std::size_t>(i)];
    const auto idx = static_cast<std::size_t>(i);
    if (fate[idx] == RowFate::kReject) {
      fail_request(request, RequestStatus::kInternalError, reason);
      continue;
    }
    Response response;
    const float* row;
    if (fate[idx] == RowFate::kDegrade) {
      const auto pos = static_cast<std::int64_t>(
          std::find(degrade_rows.begin(), degrade_rows.end(), i) -
          degrade_rows.begin());
      row = fallback_sims.data() + pos * fk;
      response.scores.assign(row, row + fk);
      response.status = RequestStatus::kDegraded;
    } else {
      row = sims.data() + i * k;
      response.scores.assign(row, row + k);
      response.status = RequestStatus::kOk;
    }
    const auto classes = static_cast<std::int64_t>(response.scores.size());
    std::int64_t best = 0;
    for (std::int64_t c = 1; c < classes; ++c)
      if (row[c] > row[best]) best = c;
    response.predicted = best;
    response.flush = reason;
    response.batch_size = n;
    response.retries = attempt;
    response.queue_ms =
        std::chrono::duration<double, std::milli>(formed - request.enqueued).count();
    response.total_ms =
        std::chrono::duration<double, std::milli>(done - request.enqueued).count();
    request.promise.set_value(std::move(response));
  }
}

util::LoadStatus Engine::reload(const std::string& id, const std::string& path) {
  ModelEntry* entry = nullptr;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = registry_.find(id);
    if (it != registry_.end()) entry = it->second.get();
  }
  const auto fail = [&](util::LoadStatus status) {
    NSHD_LOG_WARN("serve: reload of '%s' from %s failed: %s — old weights keep serving",
                  id.c_str(), path.c_str(), util::to_string(status));
    counters_.reloads_failed.fetch_add(1, std::memory_order_relaxed);
    return status;
  };
  if (entry == nullptr) return fail(util::LoadStatus::kNotFound);

  // Read and fully verify the artifact *before* touching the live model;
  // every corruption mode comes back as a named status and the request
  // path never observes a half-applied swap.
  util::CheckpointLoad load = util::read_checkpoint_file(path);
  if (!load.ok()) return fail(load.status);
  if (!load.checkpoint.key.empty() && load.checkpoint.key != id)
    return fail(util::LoadStatus::kShapeMismatch);
  if (load.checkpoint.tensors.size() != 1)
    return fail(util::LoadStatus::kShapeMismatch);

  // Numeric-health gate: a checkpoint can pass every CRC and still carry
  // NaN/Inf weights (it faithfully preserves what was saved).  Serving such
  // state produces garbage that the bipolar quantization partly hides, so
  // it is rejected here, before the writer lock, as a typed kNonFinite.
  std::vector<float>& state = load.checkpoint.tensors[0].values;
  if (util::fault::should_fire("serve.reload_corrupt") && !state.empty()) {
    state[state.size() / 2] = std::numeric_limits<float>::quiet_NaN();
  }
  if (!tensor::all_finite(state.data(), static_cast<std::int64_t>(state.size())))
    return fail(util::LoadStatus::kNonFinite);

  {
    // Writer side: waits for in-flight batches to drain, blocks new ones
    // for the duration of the (cheap, in-memory) state copy.
    std::unique_lock<std::shared_mutex> guard(entry->reload_mutex);
    if (!entry->bundle->nshd.load_state(state))
      return fail(util::LoadStatus::kShapeMismatch);
    // Re-warm the norm cache serially while we still hold the writer lock.
    (void)entry->bundle->nshd.classifier().class_norms();
    // Online mode serves from the versioned bank, so a reload must reseed
    // it from the freshly loaded classifier (published as the next version;
    // the finiteness gate already passed above).
    if (entry->bundle->online != nullptr)
      (void)entry->bundle->online->reseed(entry->bundle->nshd.classifier());
  }
  NSHD_LOG_INFO("serve: reloaded '%s' from %s", id.c_str(), path.c_str());
  counters_.reloads_ok.fetch_add(1, std::memory_order_relaxed);
  return util::LoadStatus::kOk;
}

template <typename Mutate>
UpdateStatus Engine::with_online(const std::string& id, Mutate&& mutate) {
  ModelEntry* entry = nullptr;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (draining_) return UpdateStatus::kShutdown;
    const auto it = registry_.find(id);
    if (it != registry_.end()) entry = it->second.get();
  }
  if (entry == nullptr) return UpdateStatus::kUnknownModel;
  if (entry->bundle->online == nullptr) {
    counters_.updates_rejected.fetch_add(1, std::memory_order_relaxed);
    return UpdateStatus::kOnlineDisabled;
  }

  // Shared side of the reload lock: updates serialize against reload's
  // exclusive swap (which reseeds the bank) but NOT against batch
  // execution — readers never wait on a writer.  Updates among themselves
  // serialize on the bank's writer mutex.
  hd::UpdateStatus status;
  {
    std::shared_lock<std::shared_mutex> guard(entry->reload_mutex);
    status = mutate(*entry->bundle->online);
  }
  switch (status) {
    case hd::UpdateStatus::kOk:
      counters_.updates_ok.fetch_add(1, std::memory_order_relaxed);
      return UpdateStatus::kOk;
    case hd::UpdateStatus::kBadArgs:
      counters_.updates_rejected.fetch_add(1, std::memory_order_relaxed);
      return UpdateStatus::kBadArgs;
    case hd::UpdateStatus::kNonFinite:
      counters_.updates_rolled_back.fetch_add(1, std::memory_order_relaxed);
      return UpdateStatus::kNonFinite;
    case hd::UpdateStatus::kAccuracyCollapse:
      counters_.updates_rolled_back.fetch_add(1, std::memory_order_relaxed);
      return UpdateStatus::kAccuracyCollapse;
    case hd::UpdateStatus::kPublishFault:
      counters_.updates_rolled_back.fetch_add(1, std::memory_order_relaxed);
      return UpdateStatus::kPublishFault;
  }
  return UpdateStatus::kBadArgs;  // unreachable
}

UpdateStatus Engine::update_online(const std::string& id,
                                   const std::vector<hd::Hypervector>& samples,
                                   const std::vector<std::int64_t>& labels,
                                   const hd::MassConfig& config,
                                   double* train_accuracy) {
  return with_online(id, [&](hd::VersionedBank& bank) {
    return bank.mass_epoch(samples, labels, config, train_accuracy);
  });
}

UpdateStatus Engine::add_class_online(const std::string& id,
                                      const std::vector<hd::Hypervector>& samples,
                                      std::int64_t* new_class) {
  const UpdateStatus status = with_online(id, [&](hd::VersionedBank& bank) {
    return bank.add_class(samples, new_class);
  });
  if (status == UpdateStatus::kOk)
    counters_.classes_added.fetch_add(1, std::memory_order_relaxed);
  return status;
}

UpdateStatus Engine::remove_class_online(const std::string& id,
                                         std::int64_t class_index) {
  const UpdateStatus status = with_online(id, [&](hd::VersionedBank& bank) {
    return bank.remove_class(class_index);
  });
  if (status == UpdateStatus::kOk)
    counters_.classes_removed.fetch_add(1, std::memory_order_relaxed);
  return status;
}

bool Engine::save_online_snapshot(const std::string& id, const std::string& path,
                                  std::uint64_t cursor) {
  ModelEntry* entry = nullptr;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = registry_.find(id);
    if (it != registry_.end()) entry = it->second.get();
  }
  if (entry == nullptr || entry->bundle->online == nullptr) return false;
  // Reads only the published snapshot (atomic load) — no lock needed, and
  // traffic plus concurrent updates proceed undisturbed.
  if (!entry->bundle->online->save_snapshot(path, id, cursor)) return false;
  counters_.online_snapshots.fetch_add(1, std::memory_order_relaxed);
  return true;
}

hd::VersionedBank::RestoreResult Engine::restore_online(const std::string& id,
                                                        const std::string& path) {
  hd::VersionedBank::RestoreResult result;
  ModelEntry* entry = nullptr;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = registry_.find(id);
    if (it != registry_.end()) entry = it->second.get();
  }
  if (entry == nullptr || entry->bundle->online == nullptr) {
    result.status = util::LoadStatus::kNotFound;
    return result;
  }
  {
    // Exclusive, like reload(): a restore is a wholesale swap of the
    // model's learning state, so in-flight batches drain first and no
    // update interleaves with it.
    std::unique_lock<std::shared_mutex> guard(entry->reload_mutex);
    result = entry->bundle->online->load_snapshot(path, id);
  }
  if (result.status == util::LoadStatus::kOk) {
    counters_.online_restores.fetch_add(1, std::memory_order_relaxed);
    NSHD_LOG_INFO("serve: restored online bank of '%s' from %s (version %llu)",
                  id.c_str(), path.c_str(),
                  static_cast<unsigned long long>(result.version));
  }
  return result;
}

void Engine::shutdown() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (draining_ && workers_.empty()) return;
    draining_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  workers_.clear();
}

EngineStats Engine::stats() const {
  // Each counter is a single relaxed atomic: stats() is a per-counter
  // monotonic snapshot, exact at any quiescent point (all accepted futures
  // resolved), without the per-increment lock the hot path used to take.
  EngineStats s;
  const auto get = [](const std::atomic<std::uint64_t>& c) {
    return c.load(std::memory_order_relaxed);
  };
  s.submitted = get(counters_.submitted);
  s.completed = get(counters_.completed);
  s.timed_out = get(counters_.timed_out);
  s.internal_errors = get(counters_.internal_errors);
  s.degraded = get(counters_.degraded);
  s.rejected_full = get(counters_.rejected_full);
  s.rejected_shape = get(counters_.rejected_shape);
  s.rejected_shutdown = get(counters_.rejected_shutdown);
  s.rejected_unknown = get(counters_.rejected_unknown);
  s.rejected_overload = get(counters_.rejected_overload);
  s.batches = get(counters_.batches);
  s.quantized_batches = get(counters_.quantized_batches);
  s.max_batch_flushes = get(counters_.max_batch_flushes);
  s.deadline_flushes = get(counters_.deadline_flushes);
  s.drain_flushes = get(counters_.drain_flushes);
  s.batch_faults = get(counters_.batch_faults);
  s.retried = get(counters_.retried);
  s.numeric_faults = get(counters_.numeric_faults);
  s.reloads_ok = get(counters_.reloads_ok);
  s.reloads_failed = get(counters_.reloads_failed);
  s.updates_ok = get(counters_.updates_ok);
  s.updates_rolled_back = get(counters_.updates_rolled_back);
  s.updates_rejected = get(counters_.updates_rejected);
  s.classes_added = get(counters_.classes_added);
  s.classes_removed = get(counters_.classes_removed);
  s.online_snapshots = get(counters_.online_snapshots);
  s.online_restores = get(counters_.online_restores);
  return s;
}

}  // namespace nshd::serve
