// Tests for tabular Q-learning on the quantized table, including fault
// semantics during training.

#include <gtest/gtest.h>

#include "rl/tabular_q.h"

namespace ftnav {
namespace {

GridWorld simple_world() {
  return GridWorld({
      "S...",
      ".X..",
      "....",
      "...G",
  });
}

/// True when the agent's greedy rollout from the source reaches the goal.
bool reaches_goal(const TabularQAgent& agent) {
  return agent.env().rollout(
             [&](int state) { return agent.greedy_action(state); },
             agent.config().max_steps) > 0.0;
}

/// Trains with a decaying epsilon; returns the agent.
TabularQAgent train_agent(const GridWorld& world, int episodes,
                          std::uint64_t seed) {
  TabularQAgent agent(world);
  Rng rng(seed);
  for (int episode = 0; episode < episodes; ++episode) {
    const double epsilon =
        std::max(0.05, 1.0 - static_cast<double>(episode) / (episodes * 0.6));
    agent.run_training_episode(epsilon, rng);
  }
  return agent;
}

TEST(TabularQ, RejectsBadConfig) {
  const GridWorld world = simple_world();
  TabularQConfig config;
  config.learning_rate = 0.0;
  EXPECT_THROW(TabularQAgent(world, config), std::invalid_argument);
  config = TabularQConfig{};
  config.gamma = 1.5;
  EXPECT_THROW(TabularQAgent(world, config), std::invalid_argument);
  config = TabularQConfig{};
  config.max_steps = 0;
  EXPECT_THROW(TabularQAgent(world, config), std::invalid_argument);
}

TEST(TabularQ, TableStartsZeroed) {
  const GridWorld world = simple_world();
  TabularQAgent agent(world);
  for (int s = 0; s < world.state_count(); ++s)
    for (int a = 0; a < GridWorld::action_count(); ++a)
      EXPECT_EQ(agent.q(s, a), 0.0);
}

TEST(TabularQ, QValuesAreQuantized) {
  const GridWorld world = simple_world();
  TabularQAgent agent(world);
  agent.set_q(0, 0, 0.3);  // not representable in Q(1,3,4)
  EXPECT_DOUBLE_EQ(agent.q(0, 0), 0.3125);
}

TEST(TabularQ, LearnsSimpleWorld) {
  const GridWorld world = simple_world();
  TabularQAgent agent = train_agent(world, 300, 7);
  EXPECT_TRUE(reaches_goal(agent));
}

TEST(TabularQ, LearnsMiddleDensityPreset) {
  // Value propagation across the 10x10 grid takes on the order of the
  // paper's 1000-2000 episodes (Fig. 4a).
  const GridWorld world = GridWorld::preset(ObstacleDensity::kMiddle);
  TabularQAgent agent = train_agent(world, 2000, 11);
  EXPECT_TRUE(reaches_goal(agent));
}

TEST(TabularQ, TrainedValuesFillPaperRange) {
  // Fig. 2b: trained tabular values spread across the Q(1,3,4) range
  // with max near the reward scale (8).
  const GridWorld world = simple_world();
  TabularQAgent agent = train_agent(world, 400, 13);
  double max_q = -100.0;
  for (int s = 0; s < world.state_count(); ++s)
    for (int a = 0; a < GridWorld::action_count(); ++a)
      max_q = std::max(max_q, agent.q(s, a));
  EXPECT_GT(max_q, 4.0);
  EXPECT_LE(max_q, 7.9375);
}

TEST(TabularQ, StuckMaskSurvivesTraining) {
  const GridWorld world = simple_world();
  TabularQAgent agent(world);
  // Stick the sign bit of entry 0 to 1: value forced negative forever.
  const int sign_bit = agent.table().format().sign_bit();
  const StuckAtMask mask = StuckAtMask::compile(FaultMap(
      FaultType::kStuckAt1,
      {FaultSite{0, static_cast<std::uint8_t>(sign_bit)}}));
  agent.set_stuck(mask);
  Rng rng(17);
  for (int episode = 0; episode < 50; ++episode)
    agent.run_training_episode(0.5, rng);
  EXPECT_LT(agent.q(0, 0), 0.0);
}

TEST(TabularQ, TransientInjectionPerturbsTable) {
  const GridWorld world = simple_world();
  TabularQAgent agent = train_agent(world, 200, 19);
  const auto before = agent.table().decode_all();
  Rng rng(21);
  const FaultMap map = FaultMap::sample(
      FaultType::kTransientFlip, 0.05, agent.table().size(),
      agent.table().format().total_bits(), rng);
  agent.inject_transient(map);
  const auto after = agent.table().decode_all();
  int changed = 0;
  for (std::size_t i = 0; i < before.size(); ++i)
    if (before[i] != after[i]) ++changed;
  EXPECT_GT(changed, 0);
}

TEST(TabularQ, TransientRejectsPermanentMap) {
  const GridWorld world = simple_world();
  TabularQAgent agent(world);
  FaultMap map(FaultType::kStuckAt0, {FaultSite{0, 0}});
  EXPECT_THROW(agent.inject_transient(map), std::invalid_argument);
}

TEST(TabularQ, RecoversFromLowBerTransient) {
  // Paper §4.1.1: with low BER the agent re-learns after the upset.
  const GridWorld world = simple_world();
  TabularQAgent agent = train_agent(world, 300, 23);
  Rng rng(29);
  const FaultMap map = FaultMap::sample(
      FaultType::kTransientFlip, 0.02, agent.table().size(),
      agent.table().format().total_bits(), rng);
  agent.inject_transient(map);
  for (int episode = 0; episode < 200; ++episode)
    agent.run_training_episode(0.2, rng);
  EXPECT_TRUE(reaches_goal(agent));
}

TEST(TabularQ, GreedyActionPicksMaxQ) {
  const GridWorld world = simple_world();
  TabularQAgent agent(world);
  agent.set_q(3, 0, 0.5);
  agent.set_q(3, 1, 2.0);
  agent.set_q(3, 2, -1.0);
  agent.set_q(3, 3, 1.5);
  EXPECT_EQ(agent.greedy_action(3), 1);
}

TEST(TabularQ, EvaluateFailsWithUntrainedTable) {
  // All-zero table walks greedily by tie-break and cannot reliably find
  // the goal in the high-density preset.
  const GridWorld world = GridWorld::preset(ObstacleDensity::kHigh);
  TabularQAgent agent(world);
  EXPECT_FALSE(reaches_goal(agent));
}

TEST(TabularQ, ClearStuckStopsEnforcement) {
  const GridWorld world = simple_world();
  TabularQAgent agent(world);
  const StuckAtMask mask = StuckAtMask::compile(
      FaultMap(FaultType::kStuckAt1, {FaultSite{0, 7}}));
  agent.set_stuck(mask);
  EXPECT_LT(agent.q(0, 0), 0.0);
  agent.clear_stuck();
  agent.set_q(0, 0, 1.0);
  EXPECT_DOUBLE_EQ(agent.q(0, 0), 1.0);
}

}  // namespace
}  // namespace ftnav
