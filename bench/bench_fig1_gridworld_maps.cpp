// Fig. 1: Grid World problems with various obstacle densities, plus the
// route the trained agent mostly follows (the paper's light-blue path).

#include <cstdio>

#include "bench_common.h"
#include "experiments/grid_training.h"

int main() {
  using namespace ftnav;
  using namespace ftnav::benchharness;
  const BenchConfig config = bench_config_from_env();
  print_banner("Figure 1", "Grid World maps (low/middle/high density) and "
               "the trained agent's route", config);

  const int episodes = config.full_scale ? 2500 : 1500;
  const struct { ObstacleDensity density; const char* name; } cases[] = {
      {ObstacleDensity::kLow, "(a) low obstacle density"},
      {ObstacleDensity::kMiddle, "(b) middle obstacle density"},
      {ObstacleDensity::kHigh, "(c) high obstacle density"},
  };
  JsonArtifact artifact(config, "fig1");
  Table table({"map", "obstacles", "trained_success"});
  for (const auto& c : cases) {
    const GridWorld world = GridWorld::preset(c.density);
    Rng rng(config.seed);
    GridAgentHandle agent(GridPolicyKind::kTabular, world, rng);
    agent.train_fault_free(episodes, rng);
    // The greedy rollout marks the route it walks with '*'.
    std::string art = world.render();
    const int row_width = world.size() + 1;  // includes '\n'
    const bool success =
        world.rollout(
            [&](int state) {
              char& cell = art[static_cast<std::size_t>(
                  world.row_of(state) * row_width + world.col_of(state))];
              if (cell == '.') cell = '*';
              return agent.greedy_action(state);
            },
            100) > 0.0;
    std::printf("%s — %d obstacles, trained success=%s\n", c.name,
                world.obstacle_count(), success ? "yes" : "no");
    std::printf("%s\n", art.c_str());
    table.add_row({c.name, std::to_string(world.obstacle_count()),
                   success ? "yes" : "no"});
  }
  artifact.add("fig1", table);
  print_shape_note(
      "all three maps train to a successful policy; the marked route "
      "(*) threads between obstacles from S to G, as in the paper's "
      "light-blue paths");
  return 0;
}
