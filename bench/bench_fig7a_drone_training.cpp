// Fig. 7a: faults injected during the drone policy's online fine-tuning
// (last two layers, transfer learning): MSF vs (BER, injection step) for
// transient faults plus stuck-at rows — the registry's `drone-training`
// scenario.

#include <cstdio>

#include "bench_common.h"

int main() {
  using namespace ftnav;
  using namespace ftnav::benchharness;
  const BenchConfig config = bench_config_from_env();
  print_banner("Figure 7a",
               "drone online fine-tuning under faults: Mean Safe Flight "
               "(m) after training",
               config);

  JsonArtifact artifact(config, "fig7a");
  artifact.add(
      "fig7a",
      run_scenario(
          "drone-training", config,
          {{"bers",
            param_join(std::vector<double>{1e-4, 1e-3, 1e-2, 1e-1})},
           {"injection-points",
            param_join(std::vector<double>{0.0, 0.33, 0.66})},
           {"fine-tune-episodes",
            std::to_string(config.full_scale ? 4 : 2)},
           {"eval-repeats", std::to_string(config.resolve_repeats(3, 10))},
           {"imitation-episodes",
            std::to_string(config.full_scale ? 12 : 8)},
           {"ddqn-episodes", std::to_string(config.full_scale ? 3 : 1)},
           {"seed", std::to_string(config.seed)}}));

  print_shape_note(
      "flight quality degrades with higher BER and later injection "
      "(less time to heal); stuck-at-1 severely hurts MSF while "
      "stuck-at-0's impact stays moderate");
  return 0;
}
