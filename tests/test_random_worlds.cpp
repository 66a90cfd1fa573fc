// Property tests over randomly generated worlds: the invariants that
// must hold for any seed, plus agent generalization smoke tests.

#include <gtest/gtest.h>

#include "envs/drone_env.h"
#include "envs/expert_policy.h"
#include "envs/gridworld.h"
#include "rl/tabular_q.h"

namespace ftnav {
namespace {

// ------------------------------------------------------ Grid World

/// True when the agent's greedy rollout from the source reaches the goal.
bool reaches_goal(const TabularQAgent& agent) {
  return agent.env().rollout(
             [&](int state) { return agent.greedy_action(state); },
             agent.config().max_steps) > 0.0;
}

class RandomGridSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomGridSweep, GeneratedWorldIsWellFormed) {
  const GridWorld world = GridWorld::random(10, 0.15, GetParam());
  EXPECT_EQ(world.size(), 10);
  EXPECT_TRUE(world.solvable());
  EXPECT_NE(world.source_state(), world.goal_state());
  // Obstacle count is close to the requested fraction.
  EXPECT_NEAR(world.obstacle_count(), 15, 1.0);
}

TEST_P(RandomGridSweep, TabularAgentLearnsGeneratedWorld) {
  const GridWorld world = GridWorld::random(8, 0.12, GetParam());
  TabularQAgent agent(world);
  Rng rng(GetParam() ^ 0x1234);
  for (int episode = 0; episode < 1500; ++episode) {
    const double epsilon = std::max(0.05, 1.0 - episode / 100.0);
    agent.run_training_episode(epsilon, rng);
  }
  EXPECT_TRUE(reaches_goal(agent));
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomGridSweep,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u));

TEST(RandomGrid, DeterministicPerSeed) {
  const GridWorld a = GridWorld::random(10, 0.2, 77);
  const GridWorld b = GridWorld::random(10, 0.2, 77);
  EXPECT_EQ(a.render(), b.render());
}

TEST(RandomGrid, DifferentSeedsDiffer) {
  const GridWorld a = GridWorld::random(10, 0.2, 1);
  const GridWorld b = GridWorld::random(10, 0.2, 2);
  EXPECT_NE(a.render(), b.render());
}

TEST(RandomGrid, RejectsBadArguments) {
  EXPECT_THROW(GridWorld::random(2, 0.1, 1), std::invalid_argument);
  EXPECT_THROW(GridWorld::random(10, 0.9, 1), std::invalid_argument);
  EXPECT_THROW(GridWorld::random(10, -0.1, 1), std::invalid_argument);
}

TEST(RandomGrid, SolvableDetectsBlockedWorld) {
  const GridWorld blocked({
      "S.X..",
      "..X..",
      "XXX..",
      ".....",
      "....G",
  });
  EXPECT_FALSE(blocked.solvable());
  EXPECT_TRUE(GridWorld::preset(ObstacleDensity::kHigh).solvable());
}

// ------------------------------------------------------ Drone world

class RandomClutterSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomClutterSweep, GeneratedWorldInvariants) {
  const DroneWorld world =
      DroneWorld::random_clutter(30.0, 20.0, 8, GetParam());
  // Start is clear with generous margin.
  EXPECT_FALSE(world.collides(world.start_pose().x, world.start_pose().y,
                              0.8));
  // Every pillar lies inside the domain with the 2 m wall band.
  for (const Box& box : world.obstacles()) {
    EXPECT_GE(box.x_min, 2.0);
    EXPECT_GE(box.y_min, 2.0);
    EXPECT_LE(box.x_max, 28.0);
    EXPECT_LE(box.y_max, 18.0);
  }
  // Pillars are pairwise separated by at least ~2 m.
  for (std::size_t i = 0; i < world.obstacles().size(); ++i) {
    for (std::size_t j = i + 1; j < world.obstacles().size(); ++j) {
      const Box a = world.obstacles()[i].inflated(0.99);
      const Box& b = world.obstacles()[j].inflated(0.99);
      const bool overlap = a.x_min < b.x_max && a.x_max > b.x_min &&
                           a.y_min < b.y_max && a.y_max > b.y_min;
      EXPECT_FALSE(overlap) << "pillars " << i << " and " << j;
    }
  }
}

TEST_P(RandomClutterSweep, ExpertFliesGeneratedWorld) {
  const DroneWorld world =
      DroneWorld::random_clutter(30.0, 20.0, 6, GetParam());
  DroneEnvConfig config;
  config.camera.image_hw = 15;
  config.max_steps = 150;
  config.max_distance = 50.0;
  DroneEnv env(world, config);
  Rng rng(GetParam());
  (void)env.reset(rng);
  const ExpertPolicy expert(env);
  while (!env.done()) (void)env.step(expert.act());
  EXPECT_GT(env.flight_distance(), 10.0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomClutterSweep,
                         ::testing::Values(10u, 11u, 12u, 13u));

TEST(RandomClutter, RejectsBadArguments) {
  EXPECT_THROW(DroneWorld::random_clutter(5.0, 20.0, 4, 1),
               std::invalid_argument);
  EXPECT_THROW(DroneWorld::random_clutter(30.0, 20.0, -1, 1),
               std::invalid_argument);
}

TEST(RandomClutter, DeterministicPerSeed) {
  const DroneWorld a = DroneWorld::random_clutter(25.0, 15.0, 5, 9);
  const DroneWorld b = DroneWorld::random_clutter(25.0, 15.0, 5, 9);
  ASSERT_EQ(a.obstacles().size(), b.obstacles().size());
  for (std::size_t i = 0; i < a.obstacles().size(); ++i)
    EXPECT_DOUBLE_EQ(a.obstacles()[i].x_min, b.obstacles()[i].x_min);
}

}  // namespace
}  // namespace ftnav
