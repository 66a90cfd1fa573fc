// Fig. 7c: fault-location sensitivity of drone inference -- MSF vs BER
// with faults in the input buffer, weight buffer (transient), and
// activation buffer (transient and permanent) — the registry's
// `drone-fault-locations` scenario.

#include <cstdio>

#include "bench_common.h"

int main() {
  using namespace ftnav;
  using namespace ftnav::benchharness;
  const BenchConfig config = bench_config_from_env();
  print_banner("Figure 7c",
               "MSF vs BER by fault location (indoor-long)", config);

  JsonArtifact artifact(config, "fig7c");
  artifact.add(
      "fig7c",
      run_scenario(
          "drone-fault-locations", config,
          {{"bers", param_join(drone_bers(config.full_scale))},
           {"repeats", std::to_string(config.resolve_repeats(15, 100))},
           {"seed", std::to_string(config.seed)}}));

  print_shape_note(
      "input-buffer faults are the most benign (single-frame, redundant "
      "pixels); transient activation faults cost more; weight faults "
      "cost more still (filter reuse multiplies one fault across the "
      "whole feature map); permanent activation faults are the most "
      "destructive, corrupting every step of the flight");
  return 0;
}
