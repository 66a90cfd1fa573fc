// Fig. 2: the impact of transient and permanent faults on Grid World
// training (tabular and NN policies), plus the trained-value histograms
// and 0/1-bit statistics of Fig. 2b/2d — the registry's
// `grid-training-transient`, `grid-training-permanent`, and
// `grid-value-histogram` scenarios per policy kind.

#include <cstdio>

#include "bench_common.h"

int main() {
  using namespace ftnav;
  using namespace ftnav::benchharness;
  const BenchConfig config = bench_config_from_env();
  print_banner("Figure 2",
               "faults during Grid World training: success-rate heatmaps "
               "(transient), permanent-fault sweeps, value histograms",
               config);

  const int episodes = 1000;  // paper scale; NN needs the full budget

  JsonArtifact artifact(config, "fig2");
  for (const bool tabular : {true, false}) {
    const char* policy = tabular ? "tabular" : "nn";
    const int repeats =
        config.resolve_repeats(tabular ? 10 : 3, tabular ? 100 : 20);
    // The permanent sweep faults from episode 0: no injection axis.
    const std::vector<std::pair<std::string, std::string>> sweep_overrides = {
        {"policy", policy},
        {"episodes", std::to_string(episodes)},
        {"bers", param_join(grid_training_bers(config.full_scale))},
        {"repeats", std::to_string(repeats)},
        {"seed", std::to_string(config.seed)}};
    auto heatmap_overrides = sweep_overrides;
    heatmap_overrides.emplace_back(
        "injection-episodes",
        param_join(grid_injection_episodes(episodes, config.full_scale)));

    std::printf("--- Fig. 2%c (%s): transient faults, success rate (%%) by "
                "(BER, injection episode), %d repeats/cell ---\n",
                tabular ? 'a' : 'c', policy, repeats);
    artifact.add(tabular ? "fig2a" : "fig2c",
                 run_scenario("grid-training-transient", config,
                              heatmap_overrides));

    std::printf("--- Fig. 2%c (%s): permanent faults from episode 0, "
                "success rate (%%) by BER ---\n",
                tabular ? 'a' : 'c', policy);
    artifact.add(tabular ? "fig2a_perm" : "fig2c_perm",
                 run_scenario("grid-training-permanent", config,
                              sweep_overrides));

    std::printf("--- Fig. 2%c (%s): trained value histogram & bit stats "
                "---\n",
                tabular ? 'b' : 'd', policy);
    (void)run_scenario("grid-value-histogram", config,
                       {{"policy", policy},
                        {"episodes", std::to_string(episodes)},
                        {"seed", std::to_string(config.seed)}});
  }

  print_shape_note(
      "success degrades with higher BER and later injection; NN training "
      "is more resilient to transient faults than tabular; stuck-at-1 "
      "hurts the NN far more than stuck-at-0 (weights are sparse: many "
      "more 0 bits than 1 bits, with a larger 0:1 ratio than the tabular "
      "values show)");
  return 0;
}
