// Fig. 4: (a)(c) episodes needed to re-converge after a transient fault
// late in training; (b)(d) success after extra training under permanent
// faults injected at two different points — the registry's
// `grid-convergence-transient` and `grid-convergence-permanent`
// scenarios per policy kind.

#include <cstdio>

#include "bench_common.h"

int main() {
  using namespace ftnav;
  using namespace ftnav::benchharness;
  const BenchConfig config = bench_config_from_env();
  print_banner("Figure 4",
               "post-fault convergence: transient recovery time and "
               "permanent-fault training saturation",
               config);

  const bool full = config.full_scale;
  const std::string bers = param_join(grid_training_bers(full));

  JsonArtifact artifact(config, "fig4");
  for (const bool tabular : {true, false}) {
    const char* policy = tabular ? "tabular" : "nn";
    const int repeats = config.resolve_repeats(tabular ? 10 : 2, 50);
    // The paper injects at episode 900 of a ~1000-episode learning
    // phase; we inject at ~90% of each policy's nominal convergence
    // time and report the paper's metric: TOTAL episodes until the
    // policy is (re-)converged.
    const int fault_episode = tabular ? 220 : 600;

    std::printf("--- Fig. 4%c (%s): total episodes to converge with a "
                "transient fault at episode %d (%d repeats) ---\n",
                tabular ? 'a' : 'c', policy, fault_episode, repeats);
    artifact.add(
        tabular ? "fig4a" : "fig4c",
        run_scenario("grid-convergence-transient", config,
                     {{"policy", policy},
                      {"bers", bers},
                      {"fault-episode", std::to_string(fault_episode)},
                      {"max-extra-episodes",
                       std::to_string(full ? 2000 : 1000)},
                      {"repeats", std::to_string(repeats)},
                      {"seed", std::to_string(config.seed)}}));

    const int early = full ? 1000 : 400;
    const int late = full ? 2000 : 800;
    const int extra = full ? 1000 : 500;
    std::printf("--- Fig. 4%c (%s): success%% after +%d episodes under "
                "permanent faults injected at EI=%d / EI=%d ---\n",
                tabular ? 'b' : 'd', policy, extra, early, late);
    artifact.add(
        tabular ? "fig4b" : "fig4d",
        run_scenario("grid-convergence-permanent", config,
                     {{"policy", policy},
                      {"bers", bers},
                      {"early-episode", std::to_string(early)},
                      {"late-episode", std::to_string(late)},
                      {"extra-episodes", std::to_string(extra)},
                      {"repeats", std::to_string(repeats)},
                      {"seed", std::to_string(config.seed)}}));
  }

  print_shape_note(
      "episodes-to-converge grows with BER for both policies; under "
      "permanent faults, extra training stops helping once BER passes a "
      "threshold (especially stuck-at-1 on the NN). Note: the paper's "
      "tabular learner converges slower than its NN; our exact-Bellman "
      "tabular learner on the deterministic grid converges (and heals) "
      "faster, so the tabular-vs-NN ordering differs -- see \"Known "
      "deviations from the paper\" in README.md");
  return 0;
}
