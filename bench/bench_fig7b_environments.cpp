// Fig. 7b: drone inference resilience across environments -- MSF vs BER
// for transient weight faults in indoor-long and indoor-vanleer — the
// registry's `drone-environments` scenario.

#include <cstdio>

#include "bench_common.h"

int main() {
  using namespace ftnav;
  using namespace ftnav::benchharness;
  const BenchConfig config = bench_config_from_env();
  print_banner("Figure 7b",
               "MSF vs BER under transient weight faults, per environment",
               config);

  JsonArtifact artifact(config, "fig7b");
  artifact.add(
      "fig7b",
      run_scenario(
          "drone-environments", config,
          {{"bers", param_join(drone_bers(config.full_scale))},
           {"repeats", std::to_string(config.resolve_repeats(15, 100))},
           {"seed", std::to_string(config.seed)}}));

  print_shape_note(
      "both environments show the same trend: flight quality degrades "
      "monotonically as weight-fault BER rises, with little difference "
      "between the two maps");
  return 0;
}
