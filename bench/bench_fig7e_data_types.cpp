// Fig. 7e: fixed-point data-type sensitivity -- MSF vs BER for
// Q(1,4,11), Q(1,7,8) and Q(1,10,5) weight encodings — the registry's
// `drone-data-types` scenario.

#include <cstdio>

#include "bench_common.h"

int main() {
  using namespace ftnav;
  using namespace ftnav::benchharness;
  const BenchConfig config = bench_config_from_env();
  print_banner("Figure 7e",
               "MSF vs BER by fixed-point format (weight faults, "
               "indoor-long)",
               config);

  JsonArtifact artifact(config, "fig7e");
  artifact.add(
      "fig7e",
      run_scenario(
          "drone-data-types", config,
          {{"bers", param_join(drone_bers(config.full_scale))},
           {"repeats", std::to_string(config.resolve_repeats(15, 100))},
           {"seed", std::to_string(config.seed)}}));

  print_shape_note(
      "Q(1,4,11) -- the narrowest range that still captures the weights "
      "-- is consistently the most resilient; Q(1,10,5)'s wide range "
      "means a high-bit flip lands far from zero and wrecks the flight "
      "(match the value range, don't chase dynamic range)");
  return 0;
}
