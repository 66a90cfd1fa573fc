// Fig. 7d: per-layer weight-fault sensitivity of the C3F2 policy --
// MSF vs BER with bit-flips confined to one layer at a time — the
// registry's `drone-layers` scenario.

#include <cstdio>

#include "bench_common.h"

int main() {
  using namespace ftnav;
  using namespace ftnav::benchharness;
  const BenchConfig config = bench_config_from_env();
  print_banner("Figure 7d",
               "MSF vs BER by targeted layer (Conv1..FC2, indoor-long)",
               config);

  JsonArtifact artifact(config, "fig7d");
  artifact.add(
      "fig7d",
      run_scenario(
          "drone-layers", config,
          {{"bers", param_join(drone_bers(config.full_scale))},
           {"repeats", std::to_string(config.resolve_repeats(15, 100))},
           {"seed", std::to_string(config.seed)}}));

  print_shape_note(
      "early conv layers (followed by pooling/ReLU masking) tolerate "
      "faults best; later layers are more vulnerable, and FC2 -- the "
      "layer that directly dictates actions, with no masking after it "
      "-- is the most sensitive");
  return 0;
}
