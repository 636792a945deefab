// Repository benchmark binary: runs one workload and prints a stamp line and
// a one-line JSON result.  perfbench/run.py builds and drives it; see
// perfbench/README.md for the workloads and metrics.
//
//   nshd_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                  [--trace-out <path>] [--commit <id>]
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <string>

#include "harness.hpp"
#include "workloads.hpp"

#ifndef PERFBENCH_CXX_FLAGS
#define PERFBENCH_CXX_FLAGS "unknown"
#endif

namespace {

using perfbench::Options;

int usage(const char* why) {
  std::fprintf(stderr,
               "error: %s\nusage: nshd_perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--trace-out <path>] [--commit <id>]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  std::string commit = "unknown";
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      options.workload = value;
    } else if (key == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      options.seconds = std::atoi(value.c_str());
    } else if (key == "--trace") {
      options.trace = value == "1";
    } else if (key == "--trace-out") {
      options.trace_out = value;
    } else if (key == "--commit") {
      commit = value;
    } else {
      return usage(("unknown option " + key).c_str());
    }
  }
  if (argc % 2 == 0) return usage("options come in --key value pairs");
  if (options.seconds < 1) return usage("--seconds must be a positive integer");

  using Runner = void (*)(const Options&, perfbench::Report&, perfbench::Tracer&);
  const std::map<std::string, Runner> workloads = {
      {"bulk_vgg16_int8_d10k", perfbench::run_bulk},
      {"serve_mobilenet_open", perfbench::run_serve},
      {"online_b0_d10k", perfbench::run_online},
      {"train_mobilenet_kd", perfbench::run_train},
  };
  const auto found = workloads.find(options.workload);
  if (found == workloads.end()) return usage("unknown --workload");

  perfbench::Report report;
  report.stamp("workload", options.workload);
  report.stamp("seed", std::to_string(options.seed));
  report.stamp("seconds", std::to_string(options.seconds));
  report.stamp("commit", commit);
  report.stamp("compiler", __VERSION__);
  report.stamp("cxx_flags", PERFBENCH_CXX_FLAGS);
  perfbench::Tracer tracer(options.trace);
  try {
    found->second(options, report, tracer);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    return 1;
  }
  report.metric("ok_share", report.ok_share(), "share");
  report.metric("peak_rss_mb", perfbench::peak_rss_mb(), "MB");
  tracer.write(options.trace_out);
  report.print(options.trace);
  return report.correct() && report.failed() == 0 ? 0 : 1;
}
