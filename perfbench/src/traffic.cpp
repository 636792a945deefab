#include "traffic.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <deque>
#include <future>
#include <thread>

#include "common.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

using nshd::serve::RequestStatus;
using nshd::serve::Response;
using nshd::serve::SubmitStatus;
using nshd::tensor::Shape;
using nshd::tensor::Tensor;

Tensor request_image(const Tensor& images, std::int64_t index) {
  const Shape& s = images.shape();
  const std::int64_t numel = s[1] * s[2] * s[3];
  Tensor out(Shape{s[1], s[2], s[3]});
  std::memcpy(out.data(), images.data() + index * numel,
              static_cast<std::size_t>(numel) * sizeof(float));
  return out;
}

/// kOk, K scores whose argmax is the prediction, and — when the target has
/// direct-path scores — bitwise equal to them for the same image.
bool response_ok(const Target& target, const Response& response, std::int64_t image) {
  const std::int64_t k = target.classes;
  if (response.status != RequestStatus::kOk ||
      static_cast<std::int64_t>(response.scores.size()) != k) {
    return false;
  }
  const float* scores = response.scores.data();
  if (response.predicted != std::max_element(scores, scores + k) - scores) return false;
  return target.direct == nullptr ||
         std::memcmp(scores, target.direct->data() + image * k,
                     static_cast<std::size_t>(k) * sizeof(float)) == 0;
}

void finish(const Target& target, Outcome& outcome, std::future<Response>& future,
            Clock::time_point due, Tracer& tracer, std::int64_t id) {
  outcome.response = future.get();
  outcome.latency_ms = outcome.late_ms + outcome.response.total_ms;
  outcome.ok = response_ok(target, outcome.response, outcome.image);
  outcome.done = due + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double, std::milli>(outcome.latency_ms));
  tracer.record("serve.request", id, due, outcome.done);
}

}  // namespace

std::vector<double> poisson_offsets_ms(std::uint64_t seed, double rate_per_s,
                                       std::int64_t count) {
  nshd::util::Rng rng(seed);
  std::vector<double> out;
  out.reserve(static_cast<std::size_t>(count));
  double t = 0.0;
  for (std::int64_t i = 0; i < count; ++i) {
    t += -std::log(1.0 - rng.next_double()) * 1e3 / rate_per_s;
    out.push_back(t);
  }
  return out;
}

std::vector<std::int64_t> request_images(std::uint64_t seed, std::int64_t pool,
                                         std::int64_t count) {
  nshd::util::Rng rng(seed);
  std::vector<std::int64_t> out;
  out.reserve(static_cast<std::size_t>(count));
  for (std::int64_t i = 0; i < count; ++i) {
    out.push_back(static_cast<std::int64_t>(rng.next_u64() % static_cast<std::uint64_t>(pool)));
  }
  return out;
}

std::int64_t Phase::failed() const {
  std::int64_t failed = 0;
  for (const Outcome& o : outcomes) failed += o.ok ? 0 : 1;
  return failed;
}

std::vector<double> Phase::latencies_ms() const {
  std::vector<double> out;
  for (const Outcome& o : outcomes) {
    if (o.ok) out.push_back(o.latency_ms);
  }
  return out;
}

std::vector<double> Phase::queue_ms() const {
  std::vector<double> out;
  for (const Outcome& o : outcomes) {
    if (o.ok) out.push_back(o.response.queue_ms);
  }
  return out;
}

std::vector<double> Phase::exec_ms() const {
  std::vector<double> out;
  for (const Outcome& o : outcomes) {
    if (o.ok) out.push_back(o.response.total_ms - o.response.queue_ms);
  }
  return out;
}

std::vector<double> Phase::late_ms() const {
  std::vector<double> out;
  for (const Outcome& o : outcomes) out.push_back(o.late_ms);
  return out;
}

double Phase::batch_mean() const {
  const double batches = static_cast<double>(after.batches - before.batches);
  return batches > 0.0 ? static_cast<double>(after.completed - before.completed) / batches
                       : 0.0;
}

double Phase::deadline_flush_share() const {
  const double batches = static_cast<double>(after.batches - before.batches);
  return batches > 0.0
             ? static_cast<double>(after.deadline_flushes - before.deadline_flushes) / batches
             : 0.0;
}

double Phase::slo_share(double limit_ms) const {
  if (outcomes.empty()) return 0.0;
  std::int64_t met = 0;
  for (const Outcome& o : outcomes) met += o.ok && o.latency_ms <= limit_ms ? 1 : 0;
  return static_cast<double>(met) / static_cast<double>(outcomes.size());
}

double Phase::steady_rate() const {
  std::vector<Clock::time_point> done;
  for (const Outcome& o : outcomes) {
    if (o.ok) done.push_back(o.done);
  }
  if (done.size() < 10) return 0.0;
  std::sort(done.begin(), done.end());
  const std::size_t lo = done.size() / 10;
  const std::size_t hi = done.size() - 1 - done.size() / 10;
  return static_cast<double>(hi - lo) / s_between(done[lo], done[hi]);
}

double Phase::busy_rate() const {
  double images = 0.0, busy_ms = 0.0;
  for (const Outcome& o : outcomes) {
    if (!o.ok) continue;
    images += 1.0;
    // Each response carries its whole batch's execution time.
    busy_ms += (o.response.total_ms - o.response.queue_ms) /
               static_cast<double>(o.response.batch_size);
  }
  return busy_ms > 0.0 ? images / (busy_ms / 1e3) : 0.0;
}

Phase open_loop(const Target& target, const std::vector<double>& offsets_ms,
                const std::vector<std::int64_t>& images, Tracer& tracer,
                const char* span) {
  Tracer::Scope phase_span(tracer, span);
  Phase phase;
  phase.before = target.engine->stats();
  const std::size_t count = offsets_ms.size();
  phase.outcomes.resize(count);
  std::vector<std::future<Response>> futures(count);
  std::vector<Clock::time_point> due(count);
  const Clock::time_point start = Clock::now();
  for (std::size_t i = 0; i < count; ++i) {
    due[i] = start + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double, std::milli>(offsets_ms[i]));
    std::this_thread::sleep_until(due[i]);
    Outcome& outcome = phase.outcomes[i];
    outcome.image = images[i];
    Tensor image = request_image(*target.images, outcome.image);
    outcome.late_ms = ms_between(due[i], Clock::now());
    outcome.submit = target.engine->submit(target.model, std::move(image), &futures[i]);
  }
  for (std::size_t i = 0; i < count; ++i) {
    Outcome& outcome = phase.outcomes[i];
    if (outcome.submit != SubmitStatus::kOk) continue;
    finish(target, outcome, futures[i], due[i], tracer, static_cast<std::int64_t>(i));
  }
  phase.after = target.engine->stats();
  return phase;
}

Phase closed_loop(const Target& target, const std::vector<std::int64_t>& images,
                  int in_flight, Tracer& tracer, const char* span) {
  Tracer::Scope phase_span(tracer, span);
  Phase phase;
  phase.before = target.engine->stats();
  const std::size_t count = images.size();
  phase.outcomes.resize(count);
  std::deque<std::pair<std::size_t, std::future<Response>>> pending;
  std::vector<Clock::time_point> due(count);
  std::size_t next = 0;
  const auto send = [&] {
    Outcome& outcome = phase.outcomes[next];
    outcome.image = images[next];
    due[next] = Clock::now();
    std::future<Response> future;
    outcome.submit = target.engine->submit(target.model,
                                           request_image(*target.images, outcome.image),
                                           &future);
    if (outcome.submit == SubmitStatus::kOk) pending.emplace_back(next, std::move(future));
    ++next;
  };
  while (next < count && pending.size() < static_cast<std::size_t>(in_flight)) send();
  while (!pending.empty()) {
    auto [index, future] = std::move(pending.front());
    pending.pop_front();
    finish(target, phase.outcomes[index], future, due[index], tracer,
           static_cast<std::int64_t>(index));
    while (next < count && pending.size() < static_cast<std::size_t>(in_flight)) send();
  }
  phase.after = target.engine->stats();
  return phase;
}

}  // namespace perfbench
