#include "harness.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>

#include <unistd.h>

#include "tensor/simd.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {

namespace {

thread_local std::int32_t t_open_span = -1;

std::string json_escape(const std::string& text) {
  std::string out;
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

/// Full-precision number, so run-to-run comparisons see every measured digit.
std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

}  // namespace

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double median(const std::vector<double>& values) { return percentile(values, 0.5); }

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MB
    }
  }
  return 0.0;
}

void Report::gate(bool ok, const std::string& what) {
  if (!ok) {
    correct_ = false;
    std::fprintf(stderr, "GATE FAILED: %s\n", what.c_str());
  }
}

void Report::metric(const std::string& name, double value, const std::string& unit) {
  for (Metric& m : metrics_) {
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  }
  metrics_.push_back({name, value, unit});
}

void Report::stamp(const std::string& key, const std::string& value) {
  stamp_.emplace_back(key, value);
}

void Report::print(bool trace) const {
  std::string stamp = "{\"stamp\": {";
  for (std::size_t i = 0; i < stamp_.size(); ++i) {
    stamp += (i ? ", \"" : "\"") + json_escape(stamp_[i].first) + "\": \"" +
             json_escape(stamp_[i].second) + "\"";
  }
  stamp += "}, \"trace\": " + std::string(trace ? "1" : "0") + "}";
  std::printf("%s\n", stamp.c_str());

  std::string out = "{\"correct\": ";
  out += correct_ ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted_);
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    out += (i ? ", \"" : "\"") + json_escape(m.name) + "\": {\"value\": " +
           json_number(m.value) + ", \"unit\": \"" + json_escape(m.unit) + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

void check_budgets(const Budgets& budgets, Report& report) {
  const long online = sysconf(_SC_NPROCESSORS_ONLN);
  const int nproc = online > 0 ? static_cast<int>(online) : 1;
  report.stamp("nproc", std::to_string(nproc));
  for (const auto& [phase, budget] : {std::pair{"setup", budgets.setup},
                                      std::pair{"job", budgets.job}}) {
    const std::string prefix = std::string(phase) + ".";
    report.stamp(prefix + "caller_threads", std::to_string(budget.callers));
    report.stamp(prefix + "pool_threads", std::to_string(budget.pool));
    report.stamp(prefix + "engine_workers", std::to_string(budget.engine_workers));
    report.stamp(prefix + "runnable_threads", std::to_string(budget.runnable()));
    if (budget.runnable() > nproc) {
      throw std::runtime_error(std::string(phase) + " thread budget of " +
                               std::to_string(budget.runnable()) +
                               " runnable threads exceeds nproc " + std::to_string(nproc));
    }
  }
  report.stamp("simd_isa", nshd::tensor::simd::kIsaName);
  report.stamp("simd_width", std::to_string(nshd::tensor::simd::kWidth));
}

void use_pool(int threads) { nshd::util::ThreadPool::instance().resize(threads); }

Tracer::Scope::Scope(Tracer& tracer, const char* name, std::int64_t id)
    : tracer_(&tracer) {
  if (!tracer.recording()) return;
  const Clock::time_point now = Clock::now();
  std::lock_guard<std::mutex> lock(tracer.mutex_);
  index_ = static_cast<std::int32_t>(tracer.spans_.size());
  tracer.spans_.push_back({name, id, t_open_span, now, now});
  saved_parent_ = t_open_span;
  t_open_span = index_;
}

Tracer::Scope::~Scope() {
  if (index_ < 0) return;
  const Clock::time_point now = Clock::now();
  std::lock_guard<std::mutex> lock(tracer_->mutex_);
  tracer_->spans_[static_cast<std::size_t>(index_)].end = now;
  t_open_span = saved_parent_;
}

void Tracer::record(const char* name, std::int64_t id, Clock::time_point start,
                    Clock::time_point end) {
  if (!recording()) return;
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back({name, id, t_open_span, start, end});
}

std::vector<double> Tracer::durations_ms(const char* name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (std::string_view(s.name) == name) out.push_back(ms_between(s.start, s.end));
  }
  return out;
}

std::vector<double> Tracer::self_ms(const char* name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::vector<std::int32_t>> children(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].parent >= 0) {
      children[static_cast<std::size_t>(spans_[i].parent)].push_back(
          static_cast<std::int32_t>(i));
    }
  }
  std::vector<double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (std::string_view(s.name) != name) continue;
    // Union of the child intervals, clipped to the parent.
    std::vector<std::pair<Clock::time_point, Clock::time_point>> cover;
    for (const std::int32_t c : children[i]) {
      const Span& child = spans_[static_cast<std::size_t>(c)];
      cover.emplace_back(std::max(child.start, s.start), std::min(child.end, s.end));
    }
    std::sort(cover.begin(), cover.end());
    double covered = 0.0;
    Clock::time_point reach = s.start;
    for (const auto& [b, e] : cover) {
      const Clock::time_point from = std::max(b, reach);
      if (e > from) {
        covered += ms_between(from, e);
        reach = e;
      }
    }
    out.push_back(ms_between(s.start, s.end) - covered);
  }
  return out;
}

double Tracer::total_s(const char* name) const {
  double total = 0.0;
  for (const double ms : durations_ms(name)) total += ms;
  return total / 1e3;
}

void Tracer::write(const std::string& path) const {
  if (!enabled_ || path.empty()) return;
  std::lock_guard<std::mutex> lock(mutex_);
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "warning: cannot write trace to %s\n", path.c_str());
    return;
  }
  const Clock::time_point origin = spans_.empty() ? Clock::now() : spans_.front().start;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(out,
                 "{\"i\": %zu, \"name\": \"%s\", \"id\": %lld, \"parent\": %d, "
                 "\"start_us\": %.3f, \"end_us\": %.3f}\n",
                 i, s.name, static_cast<long long>(s.id), s.parent,
                 ms_between(origin, s.start) * 1e3, ms_between(origin, s.end) * 1e3);
  }
  std::fclose(out);
}

}  // namespace perfbench
