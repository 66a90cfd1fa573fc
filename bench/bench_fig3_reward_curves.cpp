// Fig. 3: example cumulative-return traces during Grid World training
// under transient and permanent faults, for both policy kinds — the
// registry's `grid-reward-curves` scenario per policy kind.

#include <cstdio>

#include "bench_common.h"

int main() {
  using namespace ftnav;
  using namespace ftnav::benchharness;
  const BenchConfig config = bench_config_from_env();
  print_banner("Figure 3",
               "cumulative return during training under example fault "
               "scenarios ('#'=return near +1, '_'=near -1)",
               config);

  const int episodes = 1000;  // paper scale; NN needs the full budget
  JsonArtifact artifact(config, "fig3");
  for (const bool tabular : {true, false}) {
    std::printf("--- Fig. 3%c: %s-based approach (%d episodes) ---\n",
                tabular ? 'a' : 'b', tabular ? "tabular" : "NN", episodes);
    artifact.add(tabular ? "fig3a" : "fig3b",
                 run_scenario("grid-reward-curves", config,
                              {{"policy", tabular ? "tabular" : "nn"},
                               {"episodes", std::to_string(episodes)},
                               {"seed", std::to_string(config.seed)}}));
  }

  print_shape_note(
      "transient upsets produce a sharp return drop followed by recovery "
      "(faster for the NN policy); stuck-at faults slow convergence, and "
      "stuck-at-1 on the NN can prevent it entirely");
  return 0;
}
