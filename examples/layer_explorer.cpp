// Layer explorer: sweep feature-extraction cut points of one backbone and
// report the accuracy/efficiency tradeoff NSHD navigates (Sec. IV-A: "it is
// easy to empirically search for this layer").
//
// For each cut the tool trains NSHD (with and without KD) and BaselineHD,
// then prints accuracy next to MACs and energy — the practical recipe for
// choosing a deployment point.  VanillaHD (raw-pixel nonlinear encoding) is
// shown as the floor.
//
// Run: ./layer_explorer [--model=efficientnet_b0s] [--dim=3000] [--cuts=2,5,7,8]
#include <cstdio>
#include <sstream>

#include "core/experiment.hpp"
#include "hw/census.hpp"
#include "hw/energy.hpp"
#include "util/cli.hpp"
#include "util/log.hpp"
#include "util/table.hpp"

namespace {
std::vector<std::size_t> parse_cuts(const std::string& csv) {
  std::vector<std::size_t> cuts;
  std::stringstream ss(csv);
  std::string token;
  while (std::getline(ss, token, ',')) {
    if (!token.empty()) cuts.push_back(static_cast<std::size_t>(std::stoul(token)));
  }
  return cuts;
}
}  // namespace

int main(int argc, char** argv) {
  using namespace nshd;
  util::set_log_level(util::LogLevel::kInfo);
  const util::CliArgs args(argc, argv);

  const std::string model_name = args.get("model", "efficientnet_b0s");
  const std::int64_t dim = args.get_int("dim", 3000);

  core::ExperimentContext context(core::ExperimentConfig::standard(10));
  models::ZooModel& m = context.model(model_name);

  std::vector<std::size_t> cuts = m.paper_cut_layers;
  if (args.has("cuts")) cuts = parse_cuts(args.get("cuts", ""));

  const double cnn_acc = context.cnn_test_accuracy(model_name);
  const hw::CnnCensus cnn_cost = hw::cnn_census(m);
  const auto coeffs = hw::EnergyCoefficients::xavier_like();

  std::printf("== %s on SynthCIFAR-10: CNN accuracy %.4f, %s MACs ==\n",
              models::display_name(model_name).c_str(), cnn_acc,
              util::format_count(static_cast<double>(cnn_cost.macs)).c_str());

  util::Table table({"cut", "NSHD acc", "NSHD (no KD)", "BaselineHD", "MACs",
                     "energy vs CNN"});
  for (std::size_t cut : cuts) {
    core::NshdConfig with_kd;
    with_kd.dim = dim;
    core::NshdConfig without_kd = with_kd;
    without_kd.use_kd = false;

    const auto kd_run = context.run_nshd(model_name, cut, with_kd);
    const auto plain_run = context.run_nshd(model_name, cut, without_kd);
    const auto baseline_run =
        context.run_nshd(model_name, cut, core::baseline_hd_config(dim));

    const hw::NshdCensus census =
        hw::nshd_census(m, cut, dim, with_kd.manifold_features, 10);
    const double improvement = hw::energy_improvement(
        hw::cnn_energy(cnn_cost, coeffs), hw::nshd_energy(census, coeffs));

    table.add_row({util::cell(static_cast<int>(cut)),
                   util::cell(kd_run.test_accuracy, 4),
                   util::cell(plain_run.test_accuracy, 4),
                   util::cell(baseline_run.test_accuracy, 4),
                   util::format_count(static_cast<double>(census.total_macs())),
                   util::cell(improvement * 100.0, 1) + "%"});
  }
  std::printf("%s", table.to_string().c_str());

  const double vanilla = context.vanilla_hd_accuracy(dim);
  std::printf("VanillaHD (nonlinear encoding on raw pixels): %.4f\n", vanilla);
  return 0;
}
