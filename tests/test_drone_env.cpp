// Tests for the drone environment and the raycast expert policy.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "envs/drone_env.h"
#include "envs/expert_policy.h"

namespace ftnav {
namespace {

DroneEnvConfig fast_config() {
  DroneEnvConfig config;
  config.camera.image_hw = 15;
  config.max_steps = 60;
  config.start_jitter = 0.0;
  return config;
}

TEST(DroneEnvConfig, ActionSpaceIs25) {
  EXPECT_EQ(DroneEnvConfig::action_count(), 25);
  EXPECT_EQ(DroneEnvConfig::yaw_options_deg().size(), 5u);
  EXPECT_EQ(DroneEnvConfig::extent_options_m().size(), 5u);
}

TEST(DroneEnvConfig, DecodeActionRoundTrip) {
  for (int a = 0; a < 25; ++a) {
    const auto [yaw, extent] = DroneEnvConfig::decode_action(a);
    EXPECT_GE(yaw, 0);
    EXPECT_LT(yaw, 5);
    EXPECT_GE(extent, 0);
    EXPECT_LT(extent, 5);
    EXPECT_EQ(extent * 5 + yaw, a);
  }
  EXPECT_THROW(DroneEnvConfig::decode_action(-1), std::invalid_argument);
  EXPECT_THROW(DroneEnvConfig::decode_action(25), std::invalid_argument);
}

TEST(DroneEnv, ResetReturnsObservation) {
  const DroneWorld world = DroneWorld::indoor_long();
  DroneEnv env(world, fast_config());
  Rng rng(1);
  const Tensor obs = env.reset(rng);
  EXPECT_EQ(obs.shape(), (Shape{3, 15, 15}));
  EXPECT_FALSE(env.done());
  EXPECT_EQ(env.flight_distance(), 0.0);
}

TEST(DroneEnv, StraightFlightAccumulatesDistance) {
  const DroneWorld world = DroneWorld::indoor_long();
  DroneEnv env(world, fast_config());
  Rng rng(2);
  (void)env.reset(rng);
  // Action 12 = yaw index 2 (straight), extent index 2 (0.9 m).
  const auto result = env.step(12);
  EXPECT_FALSE(result.crashed);
  EXPECT_NEAR(env.flight_distance(), 0.9, 1e-9);
}

TEST(DroneEnv, FlyingIntoWallCrashes) {
  DroneWorld world(6.0, 6.0, {}, Pose2D{3.0, 3.0, 0.0}, "small");
  DroneEnvConfig config = fast_config();
  DroneEnv env(world, config);
  Rng rng(3);
  (void)env.reset(rng);
  DroneEnv::StepResult last{};
  for (int i = 0; i < 10 && !env.done(); ++i) last = env.step(22);  // long stride
  EXPECT_TRUE(last.crashed);
  EXPECT_LT(last.reward, 0.0);
  EXPECT_TRUE(env.done());
  // Distance stops at the crash point, short of the wall.
  EXPECT_LT(env.flight_distance(), 3.0);
}

TEST(DroneEnv, SteppingFinishedEpisodeThrows) {
  DroneWorld world(6.0, 6.0, {}, Pose2D{3.0, 3.0, 0.0}, "small");
  DroneEnv env(world, fast_config());
  Rng rng(4);
  (void)env.reset(rng);
  while (!env.done()) (void)env.step(22);
  EXPECT_THROW(env.step(12), std::logic_error);
}

TEST(DroneEnv, EpisodeEndsAtStepCap) {
  const DroneWorld world = DroneWorld::indoor_vanleer();
  DroneEnvConfig config = fast_config();
  config.max_steps = 5;
  DroneEnv env(world, config);
  Rng rng(5);
  (void)env.reset(rng);
  int steps = 0;
  while (!env.done()) {
    (void)env.step(2);  // shortest straight stride
    ++steps;
  }
  EXPECT_EQ(steps, 5);
  EXPECT_FALSE(env.crashed());
}

TEST(DroneEnv, DistanceCapEndsEpisodeWithoutCrash) {
  DroneWorld world(50.0, 10.0, {}, Pose2D{2.0, 5.0, 0.0}, "corridor");
  DroneEnvConfig config = fast_config();
  config.max_distance = 3.0;
  config.max_steps = 1000;
  DroneEnv env(world, config);
  Rng rng(6);
  (void)env.reset(rng);
  while (!env.done()) (void)env.step(12);
  EXPECT_FALSE(env.crashed());
  EXPECT_GE(env.flight_distance(), 3.0);
}

TEST(DroneEnv, YawActionsTurnTheDrone) {
  const DroneWorld world = DroneWorld::indoor_vanleer();
  DroneEnv env(world, fast_config());
  Rng rng(7);
  (void)env.reset(rng);
  const double before = env.pose().heading;
  (void)env.step(0);  // yaw -40 deg, shortest stride
  EXPECT_LT(env.pose().heading, before);
}

TEST(DroneEnv, RewardPrefersClearHeadings) {
  // Reward after moving toward open space beats reward near a wall.
  DroneWorld world(30.0, 10.0, {}, Pose2D{2.0, 5.0, 0.0}, "open");
  DroneEnv env(world, fast_config());
  Rng rng(8);
  (void)env.reset(rng);
  const auto open_result = env.step(12);

  DroneWorld walled(30.0, 10.0, {Box{5.0, 0.0, 6.0, 10.0}},
                    Pose2D{2.0, 5.0, 0.0}, "walled");
  DroneEnv env2(walled, fast_config());
  (void)env2.reset(rng);
  const auto walled_result = env2.step(12);
  EXPECT_GT(open_result.reward, walled_result.reward);
}

TEST(DroneEnv, InvalidActionThrows) {
  const DroneWorld world = DroneWorld::indoor_long();
  DroneEnv env(world, fast_config());
  Rng rng(9);
  (void)env.reset(rng);
  EXPECT_THROW(env.step(99), std::invalid_argument);
}


TEST(DroneEnv, CirclingPolicyIsStalledNotRewarded) {
  // A degenerate constant-yaw policy spins in a tight circle; the
  // circling detector must end the episode instead of letting "safe
  // flight" distance accrue to the cap.
  DroneWorld world(30.0, 30.0, {}, Pose2D{15.0, 15.0, 0.0}, "open");
  DroneEnvConfig config = fast_config();
  config.max_steps = 500;
  config.max_distance = 200.0;
  DroneEnv env(world, config);
  Rng rng(21);
  (void)env.reset(rng);
  while (!env.done()) (void)env.step(4);  // yaw +40 deg every step
  EXPECT_TRUE(env.stalled());
  EXPECT_FALSE(env.crashed());
  EXPECT_LT(env.flight_distance(), 40.0);
}

TEST(DroneEnv, StallDetectorCanBeDisabled) {
  DroneWorld world(30.0, 30.0, {}, Pose2D{15.0, 15.0, 0.0}, "open");
  DroneEnvConfig config = fast_config();
  config.max_steps = 120;
  config.max_distance = 200.0;
  config.stall_window = 0;
  DroneEnv env(world, config);
  Rng rng(22);
  (void)env.reset(rng);
  while (!env.done()) (void)env.step(4);
  EXPECT_FALSE(env.stalled());
  EXPECT_EQ(env.steps(), 120);
}

TEST(DroneEnv, UTurnDoesNotTriggerStall) {
  // Ten consecutive max-yaw steps = a 400-degree turn; legitimate
  // maneuvering stays far below the two-revolution threshold.
  DroneWorld world(40.0, 40.0, {}, Pose2D{20.0, 20.0, 0.0}, "open");
  DroneEnvConfig config = fast_config();
  config.max_steps = 60;
  DroneEnv env(world, config);
  Rng rng(23);
  (void)env.reset(rng);
  for (int i = 0; i < 10 && !env.done(); ++i) (void)env.step(4);
  for (int i = 0; i < 20 && !env.done(); ++i) (void)env.step(12);
  EXPECT_FALSE(env.stalled());
}

// ----------------------------------------------------------- expert

TEST(Expert, TargetsHaveActionLayout) {
  const DroneWorld world = DroneWorld::indoor_long();
  DroneEnv env(world, fast_config());
  Rng rng(10);
  (void)env.reset(rng);
  const ExpertPolicy expert(env);
  const Tensor targets = expert.action_targets();
  EXPECT_EQ(targets.size(), 25u);
}

TEST(Expert, PenalizesOverlongStridesTowardWalls) {
  DroneWorld world(30.0, 10.0, {Box{4.0, 0.0, 5.0, 10.0}},
                   Pose2D{2.0, 5.0, 0.0}, "wall-ahead");
  DroneEnv env(world, fast_config());
  Rng rng(11);
  (void)env.reset(rng);
  const ExpertPolicy expert(env);
  const Tensor targets = expert.action_targets();
  // Straight-ahead clearance is ~2 m: the 1.5 m stride (action 22) must
  // score worse than the 0.3 m stride (action 2).
  EXPECT_LT(targets[22], targets[2]);
}

TEST(Expert, ActIsBestActionOfTheTargets) {
  // Imitation grades against action_targets() and then steers with
  // best_action() of those same targets instead of act(), which would
  // run the raycast sweep again at the unchanged pose. The two must
  // agree at every pose a random flight reaches, in both worlds.
  for (const DroneWorld& world :
       {DroneWorld::indoor_long(), DroneWorld::indoor_vanleer()}) {
    DroneEnvConfig config = fast_config();
    config.start_jitter = 0.5;
    DroneEnv env(world, config);
    const ExpertPolicy expert(env);
    Rng rng(14);
    std::vector<bool> chosen(DroneEnvConfig::action_count(), false);
    for (int episode = 0; episode < 8; ++episode) {
      (void)env.reset(rng);
      while (!env.done()) {
        const int action = expert.act();
        ASSERT_EQ(action, ExpertPolicy::best_action(expert.action_targets()))
            << world.name() << " episode " << episode << " step "
            << env.steps();
        chosen[static_cast<std::size_t>(action)] = true;
        (void)env.step(static_cast<int>(
            rng.below(DroneEnvConfig::action_count())));
      }
    }
    // The poses vary enough for the expert to pick several actions.
    EXPECT_GT(std::count(chosen.begin(), chosen.end(), true), 3)
        << world.name();
  }
}

TEST(Expert, SurvivesLongFlightInCorridor) {
  const DroneWorld world = DroneWorld::indoor_long();
  DroneEnvConfig config = fast_config();
  config.max_steps = 300;
  config.max_distance = 80.0;
  DroneEnv env(world, config);
  Rng rng(12);
  (void)env.reset(rng);
  const ExpertPolicy expert(env);
  while (!env.done()) (void)env.step(expert.act());
  // MSF semantics: an eventual crash is normal; distance is the metric.
  EXPECT_GT(env.flight_distance(), 30.0);
}

TEST(Expert, SurvivesInVanleerRooms) {
  const DroneWorld world = DroneWorld::indoor_vanleer();
  DroneEnvConfig config = fast_config();
  config.max_steps = 300;
  config.max_distance = 60.0;
  DroneEnv env(world, config);
  Rng rng(13);
  (void)env.reset(rng);
  const ExpertPolicy expert(env);
  while (!env.done()) (void)env.step(expert.act());
  EXPECT_GT(env.flight_distance(), 20.0);
}

}  // namespace
}  // namespace ftnav
