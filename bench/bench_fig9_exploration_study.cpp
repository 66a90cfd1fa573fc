// Fig. 9: the correlation between bit error rate, the controller's
// adjusted exploration ratio, episodes to steady exploitation, and
// transient recovery speed — the registry's `grid-exploration-study`
// scenario per policy kind.

#include <cstdio>

#include "bench_common.h"

int main() {
  using namespace ftnav;
  using namespace ftnav::benchharness;
  const BenchConfig config = bench_config_from_env();
  print_banner("Figure 9",
               "exploration-rate adaptation telemetry vs BER and fault "
               "type",
               config);

  const int episodes = 1000;  // paper scale; NN needs the full budget
  const std::string bers = param_join(grid_training_bers(config.full_scale));

  JsonArtifact artifact(config, "fig9");
  for (const bool tabular : {true, false}) {
    const int repeats = config.resolve_repeats(tabular ? 8 : 2, 30);
    std::printf("--- Fig. 9%c: %s-based approach (%d repeats) ---\n",
                tabular ? 'a' : 'b', tabular ? "tabular" : "NN", repeats);
    artifact.add(tabular ? "fig9a" : "fig9b",
                 run_scenario("grid-exploration-study", config,
                              {{"policy", tabular ? "tabular" : "nn"},
                               {"bers", bers},
                               {"episodes", std::to_string(episodes)},
                               {"repeats", std::to_string(repeats)},
                               {"seed", std::to_string(config.seed)}}));
  }

  print_shape_note(
      "higher transient BER -> larger adjusted exploration ratio and "
      "longer time back to steady exploitation (Fig. 9c's trade-off: "
      "more exploration recovers more reliably but more slowly); "
      "permanent faults -- especially stuck-at-1 on the NN -- drive the "
      "controller to slow its decay and explore much more");
  return 0;
}
