// Fig. 10: effectiveness of range-based anomaly detection (§5.2) on
// inference -- Grid World success rate and drone flight distance, with
// and without the mitigation, under transient weight faults — the
// registry's `grid-inference-mitigation` and `drone-mitigation`
// scenarios.

#include <cstdio>

#include "bench_common.h"

int main() {
  using namespace ftnav;
  using namespace ftnav::benchharness;
  const BenchConfig config = bench_config_from_env();
  print_banner("Figure 10",
               "range-based anomaly detection at inference: baseline vs "
               "mitigated",
               config);

  JsonArtifact artifact(config, "fig10");

  std::printf("--- Fig. 10a: Grid World success rate (%%), %d draws per "
              "point ---\n",
              config.resolve_repeats(60, 1000));
  artifact.add(
      "fig10a",
      run_scenario(
          "grid-inference-mitigation", config,
          {{"train-episodes",
            std::to_string(config.full_scale ? 1500 : 1000)},
           {"repeats", std::to_string(config.resolve_repeats(60, 1000))},
           {"seed", std::to_string(config.seed)}}));

  std::printf("--- Fig. 10b: drone flight distance (m), %d draws per "
              "point ---\n",
              config.resolve_repeats(15, 100));
  artifact.add(
      "fig10b",
      run_scenario(
          "drone-mitigation", config,
          {{"bers", param_join(drone_bers(config.full_scale))},
           {"repeats", std::to_string(config.resolve_repeats(15, 100))},
           {"seed", std::to_string(config.seed)}}));

  print_shape_note(
      "range checking on sign+integer bits catches the destructive "
      "high-magnitude outliers: mitigated success roughly doubles in "
      "Grid World at high BER and drone flight quality improves "
      "substantially, at value-check cost only (see "
      "bench_overhead_micro for the <3% runtime claim)");
  return 0;
}
