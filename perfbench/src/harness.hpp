// Shared machinery of the repository benchmark: options, the result report,
// thread budgets, statistics, and the span tracer.
//
// The benchmark drives the NSHD library only through its public headers.
// Spans are recorded here, around the calls the workloads make into each
// layer; nothing inside src/ is instrumented.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
inline double s_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string trace_out;  // span dump written at exit when tracing
};

/// Sorted-copy percentile with linear interpolation; q in [0, 1].
double percentile(std::vector<double> values, double q);
double median(const std::vector<double>& values);
double mean(const std::vector<double>& values);

/// Peak resident set of this process (VmHWM), in MB.
double peak_rss_mb();

/// Threads a workload may keep runnable at once.  `callers` are the
/// benchmark's own threads that drive work (a generator, a learner, the
/// main thread when it computes); a pool of N adds N - 1 helper threads
/// because its caller takes a share of every job.
struct ThreadBudget {
  int callers = 1;
  int pool = 1;
  int engine_workers = 0;
  int runnable() const { return callers + (pool - 1) + engine_workers; }
};

/// Set-up runs single-caller on a wider pool; the measured job runs on its
/// own budget.  Engines are registered, and warmed, on the job budget.
struct Budgets {
  ThreadBudget setup;
  ThreadBudget job;
};

/// Collects what the run prints: gates, operation counts, metrics and the
/// configuration stamp.
class Report {
 public:
  /// Records one operation; a failed output check is a failed operation.
  void op(bool ok) {
    ++attempted_;
    if (!ok) ++failed_;
  }
  void ops(std::int64_t attempted, std::int64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }
  /// An output gate; a failed gate marks the run incorrect.
  void gate(bool ok, const std::string& what);

  void metric(const std::string& name, double value, const std::string& unit);
  void stamp(const std::string& key, const std::string& value);

  std::int64_t attempted() const { return attempted_; }
  std::int64_t failed() const { return failed_; }
  bool correct() const { return correct_; }
  double ok_share() const {
    return attempted_ == 0 ? 0.0
                           : static_cast<double>(attempted_ - failed_) /
                                 static_cast<double>(attempted_);
  }

  /// The stamp line, then the one-line JSON result (always last).
  void print(bool trace) const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::int64_t attempted_ = 0;
  std::int64_t failed_ = 0;
  bool correct_ = true;
  std::vector<Metric> metrics_;
  std::vector<std::pair<std::string, std::string>> stamp_;
};

/// Stamps both budgets and the SIMD build.  Throws std::runtime_error when
/// either budget exceeds the host's processors.
void check_budgets(const Budgets& budgets, Report& report);

/// Sizes the global thread pool.
void use_pool(int threads);

/// In-memory span recorder.  Disabled tracers record nothing and cost one
/// branch per span.
class Tracer {
 public:
  struct Span {
    const char* name;
    std::int64_t id;       // batch, request or update id; -1 when none
    std::int32_t parent;   // index of the enclosing span, -1 at top level
    Clock::time_point start, end;
  };

  explicit Tracer(bool enabled) : enabled_(enabled), recording_(enabled) {
    if (enabled_) spans_.reserve(1 << 16);
  }
  bool enabled() const { return enabled_; }

  /// Pauses or resumes recording in a traced run, so one run can time the
  /// same work with and without spans (the tracing overhead).  Call only
  /// while no span is open and no other thread records.
  void set_recording(bool on) {
    recording_.store(enabled_ && on, std::memory_order_relaxed);
  }
  bool recording() const { return recording_.load(std::memory_order_relaxed); }

  /// Scoped span; nests under the innermost open span of the same thread.
  class Scope {
   public:
    Scope(Tracer& tracer, const char* name, std::int64_t id = -1);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    std::int32_t index_ = -1;
    std::int32_t saved_parent_ = -1;
  };

  /// Records a span whose times were measured elsewhere (for example the
  /// enqueue and completion times a serving response carries).
  void record(const char* name, std::int64_t id, Clock::time_point start,
              Clock::time_point end);

  /// Per-call durations (ms) of every closed span with this name.
  std::vector<double> durations_ms(const char* name) const;
  /// Per-call self times (ms): duration minus the union of child spans.
  std::vector<double> self_ms(const char* name) const;
  /// Sum of durations (s) of every span with this name.
  double total_s(const char* name) const;

  /// Writes every span as JSON lines to `path`; no-op when disabled.
  void write(const std::string& path) const;

 private:
  bool enabled_;
  std::atomic<bool> recording_;
  mutable std::mutex mutex_;  // guards spans_
  std::vector<Span> spans_;
};

}  // namespace perfbench
