// Request traffic against serve::Engine: open-loop Poisson arrivals timed
// from each request's due time, and a closed loop with a fixed number of
// requests in flight.  Every kOk response is checked bitwise against the
// direct-path scores of its image.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "harness.hpp"
#include "serve/engine.hpp"
#include "tensor/tensor.hpp"

namespace perfbench {

/// Arrival offsets (ms from phase start) of `count` Poisson arrivals at
/// `rate_per_s`, drawn from `seed`.
std::vector<double> poisson_offsets_ms(std::uint64_t seed, double rate_per_s,
                                       std::int64_t count);

/// Image index of each request, uniform over `pool` images, from `seed`.
std::vector<std::int64_t> request_images(std::uint64_t seed, std::int64_t pool,
                                         std::int64_t count);

struct Outcome {
  std::int64_t image = 0;
  nshd::serve::SubmitStatus submit = nshd::serve::SubmitStatus::kOk;
  nshd::serve::Response response;
  double late_ms = 0.0;     // generator lateness: submit time - due time
  double latency_ms = 0.0;  // due time -> response ready
  Clock::time_point done;   // response ready
  bool ok = false;          // kOk and bitwise equal to the direct path
};

struct Phase {
  std::vector<Outcome> outcomes;
  nshd::serve::EngineStats before, after;

  std::int64_t failed() const;
  /// Latencies (ms, from due time) of the kOk responses.
  std::vector<double> latencies_ms() const;
  std::vector<double> queue_ms() const;
  std::vector<double> exec_ms() const;
  std::vector<double> late_ms() const;
  /// Completed requests per executed batch, from the engine counters.
  double batch_mean() const;
  double deadline_flush_share() const;
  /// Share of attempts that finished kOk within `limit_ms` of their due time.
  double slo_share(double limit_ms) const;
  /// Steady-state rate: kOk completions per second between the 10th and
  /// 90th percentile completion times, leaving out the ramp-up and drain.
  double steady_rate() const;
  /// Images served per second of engine worker busy time: kOk responses
  /// over the summed execution time of the batches that carried them.
  double busy_rate() const;
};

/// What a phase needs to drive and check traffic.
struct Target {
  nshd::serve::Engine* engine = nullptr;
  std::string model;
  const nshd::tensor::Tensor* images = nullptr;  // [N, C, H, W] request pool
  /// [N, K] direct-path scores; when null (the served bank changes under
  /// traffic) a response is checked for kOk, K scores and a consistent argmax.
  const nshd::tensor::Tensor* direct = nullptr;
  std::int64_t classes = 0;
};

/// Sends one request per offset, at its due time, from the calling thread.
Phase open_loop(const Target& target, const std::vector<double>& offsets_ms,
                const std::vector<std::int64_t>& images, Tracer& tracer,
                const char* span);

/// Keeps `in_flight` requests outstanding until `images.size()` complete.
Phase closed_loop(const Target& target, const std::vector<std::int64_t>& images,
                  int in_flight, Tracer& tracer, const char* span);

}  // namespace perfbench
