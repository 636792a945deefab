// In-process inference serving engine: dynamic batching with SLOs, fault
// containment, deadline enforcement, and overload protection.
//
// The repo's compute stack answers "how fast is one batch"; serve::Engine
// answers "how much request traffic can this machine sustain".  Requests
// (single images) enter per-model bounded queues; a pool of worker threads
// forms dynamic batches — flushing on max-batch-size or on the oldest
// request's deadline, whichever comes first — and drives the whole NSHD
// pipeline batched: nn::Plan::run_batch for the cut CNN, then
// manifold + random-projection encoding, then one HdClassifier
// similarities_all pass for the batch.  Batched responses are bitwise
// identical to single-request responses (every kernel in the pipeline
// computes row i independently of the batch size).
//
// Robustness contract — an accepted request ALWAYS resolves its future with
// exactly one typed terminal status; no code path reaches std::terminate,
// loses a promise, or serves a non-finite score silently:
//
//   fault containment   a throwing batch never escapes a worker: the batch
//                       is bisected until the poison request(s) are
//                       quarantined with RequestStatus::kInternalError;
//                       innocent co-batched requests are retried (at most
//                       ceil(log2(batch)) times on the poison side).
//   deadline            per-request deadlines (EngineConfig::
//   enforcement         request_deadline_ms, or per-submit override) are
//                       checked at batch formation and before every
//                       (re-)execution; expired requests complete with
//                       kTimedOut instead of running dead work.
//   overload            when the queue backlog times the observed (EWMA)
//   protection          batch latency exceeds the request's deadline
//                       budget, submit() sheds the request with
//                       SubmitStatus::kOverloaded before it can queue.
//   numeric health      cut-CNN features, manifold outputs, and similarity
//                       rows are scanned for NaN/Inf after inference (the
//                       bipolar sign quantization would otherwise absorb
//                       them silently).  Poison rows are rejected typed, or
//                       — under NumericPolicy::kDegrade with a registered
//                       HD-only fallback head — served degraded (kDegraded).
//                       reload() additionally rejects any checkpoint whose
//                       state blob is non-finite (LoadStatus::kNonFinite)
//                       before touching the live weights.
//
// Degradation ladder (documented in DESIGN.md): healthy -> shed
// (kOverloaded/kQueueFull) -> degrade-to-HD (kDegraded) -> reject
// (kTimedOut/kInternalError).  Every rung is typed, never silent and never
// blocking.
//
// Live reload rides on the NSHDKPT1 recovery machinery: reload() verifies
// the checkpoint fully (CRC, shape, commit marker, numeric health) before
// taking the model's writer lock, so in-flight batches drain on the old
// weights and traffic resumes on the new ones with no dropped requests.
//
// Online learning rides on hd::VersionedBank: a bundle with enable_online()
// called serves every batch against the bank's latest published snapshot
// (one atomic shared-ptr load on the read path) while the update submission
// family — update_online / add_class_online / remove_class_online — mutates
// shadow copies and publishes new versions behind traffic's back.  Updates
// take the model's reload_mutex SHARED (they serialize against reload's
// exclusive swap, not against batch execution) and serialize among
// themselves on the bank's writer mutex; every rejected or rolled-back
// update is a typed UpdateStatus and an EngineStats counter, never a
// corrupted serving bank.  save_online_snapshot / restore_online persist
// the published version through NSHDKPT1 for kill-resume of a learning
// stream.
//
// Fault sites (see util/fault.hpp): serve.worker_throw, serve.batch_stall,
// serve.nan_logits, serve.reload_corrupt, plus the online trio
// online.update_nan, online.publish_crash, online.snapshot_corrupt, drive
// the chaos test matrix (`ctest -L chaos`, `ctest -L online`).
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/nshd.hpp"
#include "hd/versioned_bank.hpp"
#include "models/zoo.hpp"
#include "nn/plan.hpp"
#include "util/checkpoint.hpp"

namespace nshd::serve {

/// Typed outcome of submit(); everything except kOk means the request was
/// rejected immediately (the future is untouched).
enum class SubmitStatus {
  kOk,
  kUnknownModel,  // no model registered under that id
  kBadShape,      // image does not match the model's input C,H,W
  kQueueFull,     // bounded queue at capacity; shed load upstream
  kOverloaded,    // predicted queue wait exceeds the deadline budget
  kShutdown,      // engine is draining or stopped
};
const char* to_string(SubmitStatus status);

/// Typed terminal status of an accepted request.  Exactly one of these is
/// delivered through the future — never silence, never a broken promise.
enum class RequestStatus {
  kOk,             // healthy primary pipeline served this request
  kDegraded,       // HD-only fallback head served it (primary numeric fault)
  kTimedOut,       // request deadline expired before execution
  kInternalError,  // quarantined: execution faulted on this request, or its
                   // result was non-finite with no honest fallback
};
const char* to_string(RequestStatus status);

/// Typed outcome of the online-update submission family (update_online,
/// add_class_online, remove_class_online).  The kNonFinite /
/// kAccuracyCollapse / kPublishFault rows mirror hd::UpdateStatus: the
/// update was attempted and rolled back — the previously published bank
/// version keeps serving, and EngineStats::updates_rolled_back counts it.
enum class UpdateStatus {
  kOk,                // new bank version published; traffic now scores it
  kUnknownModel,      // no model registered under that id
  kOnlineDisabled,    // bundle was registered without enable_online()
  kBadArgs,           // size/dim/index mismatch; nothing was mutated
  kNonFinite,         // rolled back: shadow bank carried NaN/Inf
  kAccuracyCollapse,  // rolled back: guard holdout accuracy collapsed
  kPublishFault,      // rolled back: publish step faulted mid-swap
  kShutdown,          // engine is draining or stopped
};
const char* to_string(UpdateStatus status);

/// What caused the batch that carried a response to flush.
enum class FlushReason {
  kMaxBatch,  // the batch filled to max_batch
  kDeadline,  // the oldest request's batching deadline expired
  kDrain,     // shutdown flushed the queue without waiting
};
const char* to_string(FlushReason reason);

struct Response {
  RequestStatus status = RequestStatus::kOk;
  std::int64_t predicted = -1;  // -1 on kTimedOut/kInternalError
  std::vector<float> scores;    // per-class similarity; empty on failure
  FlushReason flush = FlushReason::kMaxBatch;
  std::int64_t batch_size = 0;  // size of the batch this request rode in
  std::int32_t retries = 0;     // bisection re-executions this request rode
  double queue_ms = 0.0;        // enqueue -> batch formed
  double total_ms = 0.0;        // enqueue -> response ready
};

/// How the engine treats a request whose primary-pipeline result is
/// non-finite.  Bad *input* features are always a typed reject (no honest
/// answer exists for garbage input); the policy governs faults downstream
/// of clean features — corrupt manifold weights or a corrupt class bank.
enum class NumericPolicy {
  kOff,      // no scan: fastest, but non-finite scores serve silently
  kReject,   // poison rows complete with kInternalError
  kDegrade,  // poison rows served by the bundle's HD-only fallback head
             // (kDegraded); rejected if no fallback is registered or the
             // fallback result is itself non-finite
};

struct EngineConfig {
  int workers = 2;                 // serving worker threads
  std::int64_t max_batch = 32;     // flush when a batch reaches this size
  double batch_deadline_ms = 2.0;  // ... or when the oldest request is this old
  std::size_t queue_capacity = 256;  // per-model bound; beyond it, kQueueFull
  double request_deadline_ms = 0.0;  // end-to-end budget per request; <= 0
                                     // disables timeouts + admission control
  NumericPolicy numeric_policy = NumericPolicy::kReject;
};

/// Monotonic counters, snapshot via Engine::stats().  At any quiescent
/// point (every accepted future resolved):
///   submitted == completed + timed_out + internal_errors
/// with completed counting both kOk and kDegraded responses.
struct EngineStats {
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;
  std::uint64_t timed_out = 0;         // kTimedOut terminal responses
  std::uint64_t internal_errors = 0;   // kInternalError terminal responses
  std::uint64_t degraded = 0;          // kDegraded responses (also in completed)
  std::uint64_t rejected_full = 0;
  std::uint64_t rejected_shape = 0;
  std::uint64_t rejected_shutdown = 0;
  std::uint64_t rejected_unknown = 0;
  std::uint64_t rejected_overload = 0;  // admission-control sheds
  std::uint64_t batches = 0;
  std::uint64_t quantized_batches = 0;  // batches served by the int8 plan
                                        // (also counted in batches)
  std::uint64_t max_batch_flushes = 0;
  std::uint64_t deadline_flushes = 0;
  std::uint64_t drain_flushes = 0;
  std::uint64_t batch_faults = 0;    // batch executions that threw
  std::uint64_t retried = 0;         // requests re-executed by bisection
  std::uint64_t numeric_faults = 0;  // rows failing the NaN/Inf scan
  std::uint64_t reloads_ok = 0;
  std::uint64_t reloads_failed = 0;
  std::uint64_t updates_ok = 0;           // online updates published
  std::uint64_t updates_rolled_back = 0;  // non-finite/collapse/publish-fault
  std::uint64_t updates_rejected = 0;     // kBadArgs / kOnlineDisabled
  std::uint64_t classes_added = 0;        // add_class_online publishes
  std::uint64_t classes_removed = 0;      // remove_class_online publishes
  std::uint64_t online_snapshots = 0;     // save_online_snapshot commits
  std::uint64_t online_restores = 0;      // restore_online swaps
};

/// One servable NSHD deployment: the owned extractor backbone, the NSHD
/// head over a cut, and a warm execution plan sized for the engine's batch.
/// Heap-allocate and never move (nshd and plan point into zoo).
struct ModelBundle {
  models::ZooModel zoo;
  std::size_t cut;
  core::NshdModel nshd;
  nn::Plan plan;
  /// Optional degradation head for NumericPolicy::kDegrade: a manifold-free
  /// (use_manifold = false) NshdModel over the same zoo/cut, consuming the
  /// raw cut features the plan already produced.  Train it like the primary
  /// and attach before register_model(); it is never touched by reload().
  std::unique_ptr<core::NshdModel> fallback;
  /// Online-learning head: present after enable_online().  When set, batch
  /// execution scores against its latest published snapshot instead of
  /// nshd.classifier(), and the engine's update submission paths mutate it.
  std::unique_ptr<hd::VersionedBank> online;
  /// INT8 serving plan: present, and already calibrated, after
  /// enable_quantized().  When set, batch execution runs it instead of
  /// `plan` (quantized_batches counts them).  Reload only swaps HD state
  /// (manifold FC + class bank), never CNN weights, so the quantized weights
  /// stay valid across reload().
  std::unique_ptr<nn::Plan> qplan;

  ModelBundle(models::ZooModel zoo_model, std::size_t cut_layer,
              const core::NshdConfig& config, std::int64_t max_batch);

  /// Switches the bundle to online-learning mode, seeding version 0 of the
  /// versioned bank from the (trained) primary classifier.  Call after
  /// training and BEFORE register_model — the pointer itself is not
  /// hot-swappable under traffic (published versions inside it are).
  void enable_online(hd::UpdateGuard guard = {});

  /// Switches the bundle to int8 serving: builds the quantized plan over the
  /// same cut and calibrates activation scales on `calib_images`
  /// ([N, C, H, W]).  Call after training and BEFORE register_model (the
  /// plan pointer is not hot-swappable under traffic).  Returns the
  /// calibration report; a report with calibration_fallbacks > 0 still
  /// serves (affected layers run f32, counted, never silent).
  const nn::CalibrationReport& enable_quantized(
      const tensor::TensorView& calib_images, std::int64_t calib_batch = 32);
  ModelBundle(const ModelBundle&) = delete;
  ModelBundle& operator=(const ModelBundle&) = delete;
};

/// Persists a bundle's trained state (manifold FC + class bank) as an
/// NSHDKPT1 checkpoint that Engine::reload can swap in live.  Returns false
/// on IO failure.  `key` is stored as the checkpoint identity and verified
/// on reload.
bool save_bundle_checkpoint(const core::NshdModel& model, const std::string& key,
                            const std::string& path);

class Engine {
 public:
  explicit Engine(const EngineConfig& config);
  ~Engine();  // shutdown() if still running

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Registers a bundle under `id` and warms its caches (classifier norm
  /// caches for the primary and fallback heads; the plan's workspaces fill
  /// on first traffic).  Throws std::invalid_argument — before the bundle
  /// becomes reachable by any worker — when `id` is taken (use reload() to
  /// swap weights), when the bundle's state is non-finite, or when the
  /// fallback head is not a raw-feature (manifold-free) encoder over the
  /// same cut.  All validation runs on the caller's thread: no exception
  /// ever crosses into (or out of) a worker std::thread.
  void register_model(const std::string& id, std::unique_ptr<ModelBundle> bundle);

  /// Enqueues one image ([C,H,W] or [1,C,H,W]) for classification by
  /// `id`.  On kOk, `*response` receives a future that resolves when the
  /// request's batch completes.  Never blocks: a full queue or a predicted
  /// deadline miss is a typed rejection, not backpressure-by-stall.
  /// `deadline_ms` overrides EngineConfig::request_deadline_ms for this
  /// request (<= 0 keeps the config default).
  SubmitStatus submit(const std::string& id, tensor::Tensor image,
                      std::future<Response>* response, double deadline_ms = 0.0);

  /// Atomically swaps `id`'s trained state from an NSHDKPT1 checkpoint.
  /// The file is read and fully verified first — CRCs, commit marker,
  /// identity key, tensor count, and numeric health (a NaN/Inf state blob is
  /// rejected as kNonFinite) — and only then is the model's writer lock
  /// taken (in-flight batches drain, new batches wait) and the state
  /// applied.  Any failure leaves the old weights serving and is returned
  /// as a named status (kShapeMismatch covers a checkpoint whose blob does
  /// not match this bundle's architecture or key).
  util::LoadStatus reload(const std::string& id, const std::string& path);

  /// Online update: one MASS epoch over a chunk of stream samples (already
  /// symbolized into encoder space), verify-then-swap gated by the bank's
  /// UpdateGuard.  Serialized per model against reload (shared side of
  /// reload_mutex) and against sibling updates (the bank's writer mutex);
  /// concurrent batch traffic keeps scoring the previous version until the
  /// new one publishes.  `train_accuracy` as in hd::VersionedBank.
  UpdateStatus update_online(const std::string& id,
                             const std::vector<hd::Hypervector>& samples,
                             const std::vector<std::int64_t>& labels,
                             const hd::MassConfig& config,
                             double* train_accuracy = nullptr);

  /// One-shot class growth under live traffic; responses formed after the
  /// publish carry K+1 scores.  `new_class` receives the new index on kOk.
  UpdateStatus add_class_online(const std::string& id,
                                const std::vector<hd::Hypervector>& samples,
                                std::int64_t* new_class = nullptr);

  /// Retires a class under live traffic (classes above shift down — the
  /// caller owns label remapping and guard re-arming, as in VersionedBank).
  UpdateStatus remove_class_online(const std::string& id,
                                   std::int64_t class_index);

  /// Commits the model's published bank version to an NSHDKPT1 snapshot
  /// (crash-safe atomic rename); `cursor` is the learning stream's position
  /// for kill-resume.  Returns false when the model is unknown, online mode
  /// is off, or IO fails.
  bool save_online_snapshot(const std::string& id, const std::string& path,
                            std::uint64_t cursor = 0);

  /// Restores a save_online_snapshot artifact into the model's versioned
  /// bank — fully verified before the swap, any failure leaves the live
  /// bank serving (see hd::VersionedBank::load_snapshot).  Takes the
  /// model's reload_mutex exclusively, like reload().
  hd::VersionedBank::RestoreResult restore_online(const std::string& id,
                                                  const std::string& path);

  /// Stops accepting, drains every queued request (they complete with
  /// FlushReason::kDrain, or kTimedOut if their deadline already expired),
  /// and joins the workers.  Idempotent.
  void shutdown();

  EngineStats stats() const;
  const EngineConfig& config() const { return config_; }

  /// Registered bundle (for tests and benches); nullptr when absent.
  const ModelBundle* bundle(const std::string& id) const;

 private:
  using Clock = std::chrono::steady_clock;

  struct Request {
    tensor::Tensor image;  // [C,H,W] floats, owned
    std::promise<Response> promise;
    Clock::time_point enqueued;
    Clock::time_point batch_by;  // batching deadline (flush trigger)
    Clock::time_point expires;   // request deadline; time_point::max() = none
  };

  struct ModelEntry {
    std::unique_ptr<ModelBundle> bundle;
    std::deque<Request> queue;       // guarded by Engine::mutex_
    std::shared_mutex reload_mutex;  // shared: batch execution; exclusive: reload
    /// EWMA of batch execution latency, the admission-control signal.
    /// Plain load/store: concurrent workers may drop an update, which only
    /// smooths the average further.
    std::atomic<double> ewma_batch_ms{0.0};
  };

  /// Hot-path counters: one relaxed atomic increment each, no lock.  The
  /// per-batch increments happen before any promise in the batch is
  /// fulfilled, and promise/future synchronization publishes them, so a
  /// caller returning from future.get() observes its own batch in stats().
  struct Counters {
    std::atomic<std::uint64_t> submitted{0}, completed{0}, timed_out{0},
        internal_errors{0}, degraded{0}, rejected_full{0}, rejected_shape{0},
        rejected_shutdown{0}, rejected_unknown{0}, rejected_overload{0},
        batches{0}, quantized_batches{0}, max_batch_flushes{0},
        deadline_flushes{0}, drain_flushes{0},
        batch_faults{0}, retried{0}, numeric_faults{0}, reloads_ok{0},
        reloads_failed{0}, updates_ok{0}, updates_rolled_back{0},
        updates_rejected{0}, classes_added{0}, classes_removed{0},
        online_snapshots{0}, online_restores{0};
  };

  /// Online-update spine: locates `id`, takes the reload_mutex shared, and
  /// runs `mutate` against the bundle's VersionedBank, mapping the result
  /// onto serve::UpdateStatus and the update counters.
  template <typename Mutate>
  UpdateStatus with_online(const std::string& id, Mutate&& mutate);

  void worker_loop();
  /// Containment wrapper: re-checks deadlines, executes, and on a throw
  /// bisects the batch to quarantine the poison request(s).  Never throws;
  /// every request in `batch` is terminally resolved when it returns.
  void execute_batch_guarded(ModelEntry& entry, std::vector<Request> batch,
                             FlushReason reason, std::int32_t attempt);
  /// One batch execution.  Fulfills every promise on success; on a throw the
  /// caller still owns `batch` (no promise has been touched).
  void execute_batch(ModelEntry& entry, std::vector<Request>& batch,
                     FlushReason reason, std::int32_t attempt);
  /// Resolves one request with a failure-typed terminal response.
  void fail_request(Request& request, RequestStatus status, FlushReason flush);

  EngineConfig config_;
  std::chrono::microseconds batch_deadline_;
  std::chrono::microseconds request_deadline_;  // zero when disabled

  mutable std::mutex mutex_;  // guards registry_ keys, queues, draining_
  std::condition_variable work_cv_;
  std::map<std::string, std::unique_ptr<ModelEntry>> registry_;
  bool draining_ = false;
  std::vector<std::thread> workers_;

  Counters counters_;
};

}  // namespace nshd::serve
