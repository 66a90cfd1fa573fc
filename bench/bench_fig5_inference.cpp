// Fig. 5: the impact of transient and permanent faults on Grid World
// inference for tabular and NN policies — the registry's
// `grid-inference` scenario run once per policy kind.

#include <cstdio>

#include "bench_common.h"

int main() {
  using namespace ftnav;
  using namespace ftnav::benchharness;
  const BenchConfig config = bench_config_from_env();
  print_banner("Figure 5",
               "faults injected into the frozen policy store at inference "
               "time: success rate vs BER per fault mode",
               config);

  const std::vector<double> bers = {0.0,   0.002, 0.004,
                                    0.006, 0.008, 0.010};

  JsonArtifact artifact(config, "fig5");
  for (const bool tabular : {true, false}) {
    const int repeats = config.resolve_repeats(tabular ? 200 : 60, 1000);
    std::printf("--- Fig. 5%c: %s-based inference (%d fault draws per "
                "point) ---\n",
                tabular ? 'a' : 'b', tabular ? "tabular" : "NN", repeats);
    const ScenarioResult result = run_scenario(
        "grid-inference", config,
        {{"policy", tabular ? "tabular" : "nn"},
         {"train-episodes",
          std::to_string(config.full_scale ? 1500 : 1000)},
         {"bers", param_join(bers)},
         {"repeats", std::to_string(repeats)},
         {"seed", std::to_string(config.seed)}});
    artifact.add(tabular ? "fig5a" : "fig5b", result);
  }

  print_shape_note(
      "Transient-1 (single-step register upset) is nearly harmless -- a "
      "wrong step gets remedied later; Transient-M and permanent faults "
      "degrade success with BER; stuck-at-1 hits the NN policy much "
      "harder than stuck-at-0, while the tabular policy treats them "
      "similarly");
  return 0;
}
