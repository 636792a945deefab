// The four benchmark workloads.  Each runs in its own process, sets its own
// thread budget, does a fixed amount of work derived from --seconds, gates
// its outputs, and reports metrics into the Report.
#pragma once

#include <memory>
#include <type_traits>
#include <vector>

#include "harness.hpp"

namespace perfbench {

void run_bulk(const Options& options, Report& report, Tracer& tracer);
void run_serve(const Options& options, Report& report, Tracer& tracer);
void run_online(const Options& options, Report& report, Tracer& tracer);
void run_train(const Options& options, Report& report, Tracer& tracer);

/// Wall time of each set-up phase, in seconds.
struct SetupPhases {
  double data = 0.0, model = 0.0, extract = 0.0, train = 0.0, calibrate = 0.0,
         register_ = 0.0;
};

/// Times `phase` into `slot` and returns its result.
template <typename Fn>
auto timed(double& slot, Fn&& phase) {
  const Clock::time_point start = Clock::now();
  if constexpr (std::is_void_v<decltype(phase())>) {
    phase();
    slot += s_between(start, Clock::now());
  } else {
    auto result = phase();
    slot += s_between(start, Clock::now());
    return result;
  }
}

/// Checks the budgets, then runs set-up `reps` times, each from scratch on
/// the set-up pool, dropping the previous state first so peak memory
/// reflects one set-up.  Reports the median total as setup_s and the
/// per-phase medians as setup.*_s; returns the last state with the pool on
/// the job budget.
template <typename State, typename Make>
std::unique_ptr<State> repeated_setup(int reps, const Budgets& budgets, Report& report,
                                      Make&& make) {
  check_budgets(budgets, report);
  std::unique_ptr<State> state;
  std::vector<double> total, data, model, extract, train, calibrate, register_;
  for (int r = 0; r < reps; ++r) {
    state.reset();
    use_pool(budgets.setup.pool);
    SetupPhases phases;
    const Clock::time_point start = Clock::now();
    state = make(phases);
    total.push_back(s_between(start, Clock::now()));
    data.push_back(phases.data);
    model.push_back(phases.model);
    extract.push_back(phases.extract);
    train.push_back(phases.train);
    calibrate.push_back(phases.calibrate);
    register_.push_back(phases.register_);
  }
  use_pool(budgets.job.pool);
  report.metric("setup_s", median(total), "s");
  report.metric("setup.data_s", median(data), "s");
  report.metric("setup.model_s", median(model), "s");
  report.metric("setup.extract_s", median(extract), "s");
  report.metric("setup.train_s", median(train), "s");
  report.metric("setup.calibrate_s", median(calibrate), "s");
  report.metric("setup.register_s", median(register_), "s");
  return state;
}

/// Set-ups per run; setup_s is their median.
inline constexpr int kSetupReps = 3;

/// Set-up budget shared by every workload: the main thread on a pool of 4.
inline constexpr ThreadBudget kSetupBudget{/*callers=*/1, /*pool=*/4, /*engine_workers=*/0};

}  // namespace perfbench
