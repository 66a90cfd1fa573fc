// Tests for the adaptive exploration-rate controller (paper §5.1).

#include <gtest/gtest.h>

#include "core/exploration.h"
#include "util/rng.h"

namespace ftnav {
namespace {

ExplorationConfig small_config() {
  ExplorationConfig config;
  config.initial_rate = 1.0;
  config.steady_rate = 0.05;
  config.episodes_to_steady = 100;
  config.alpha = 0.8;
  config.drop_threshold = 0.25;
  config.drop_window = 50;
  config.detection_cooldown = 10;
  return config;
}

TEST(Exploration, RejectsBadConfig) {
  ExplorationConfig config = small_config();
  config.initial_rate = 0.01;  // below steady
  EXPECT_THROW((AdaptiveExplorationController{config}), std::invalid_argument);
  config = small_config();
  config.episodes_to_steady = 0;
  EXPECT_THROW((AdaptiveExplorationController{config}), std::invalid_argument);
  config = small_config();
  config.drop_window = 0;
  EXPECT_THROW((AdaptiveExplorationController{config}), std::invalid_argument);
}

TEST(Exploration, BaselineDecaysLinearlyToSteady) {
  AdaptiveExplorationController controller(small_config(), false);
  EXPECT_DOUBLE_EQ(controller.rate(), 1.0);
  for (int episode = 0; episode < 100; ++episode)
    controller.end_episode(1.0);
  EXPECT_NEAR(controller.rate(), 0.05, 1e-9);
  EXPECT_TRUE(controller.in_steady_exploitation());
  EXPECT_EQ(controller.steady_reached_episode(), 100);
}

TEST(Exploration, DisabledControllerNeverDetects) {
  // A disabled controller's schedule never reads the reward, so the
  // fault-free trainer may feed it training returns: a second controller
  // fed a different stream keeps the same rate at every episode.
  AdaptiveExplorationController controller(small_config(), false);
  AdaptiveExplorationController other(small_config(), false);
  Rng rng(3);
  for (int episode = 0; episode < 210; ++episode) {
    controller.end_episode(episode < 150 ? 1.0 : -1.0);
    other.end_episode(static_cast<double>(rng.below(3)) - 1.0);
    ASSERT_EQ(controller.rate(), other.rate()) << "episode " << episode;
    ASSERT_EQ(controller.steady_reached_episode(),
              other.steady_reached_episode())
        << "episode " << episode;
  }
  EXPECT_EQ(controller.transient_detections(), 0);
  EXPECT_EQ(controller.permanent_detections(), 0);
  EXPECT_EQ(other.transient_detections(), 0);
  EXPECT_EQ(other.permanent_detections(), 0);
  EXPECT_TRUE(controller.in_steady_exploitation());
}

TEST(Exploration, TransientDropBoostsRate) {
  AdaptiveExplorationController controller(small_config());
  for (int episode = 0; episode < 120; ++episode) controller.end_episode(1.0);
  ASSERT_TRUE(controller.in_steady_exploitation());
  const double before = controller.rate();
  controller.end_episode(0.1);  // 90% drop within the window
  EXPECT_EQ(controller.transient_detections(), 1);
  EXPECT_GT(controller.rate(), before);
  EXPECT_GT(controller.peak_adjusted_rate(), before);
}

TEST(Exploration, BoostFollowsEquationSix) {
  // After steady state at episode ~120, f(t) = t/T > 1 so the boost is
  // alpha * f(r).
  AdaptiveExplorationController controller(small_config());
  for (int episode = 0; episode < 120; ++episode) controller.end_episode(1.0);
  const double before = controller.rate();
  controller.end_episode(0.5);  // f(r) = 0.5
  const double boost = controller.rate() - before;
  // One decay step is also applied in end_episode.
  EXPECT_NEAR(boost, 0.8 * 0.5, 0.02);
}

TEST(Exploration, EarlyFaultGetsSmallerBoost) {
  // f(t) = t/T scales the boost down for early faults.
  AdaptiveExplorationController early(small_config());
  AdaptiveExplorationController late(small_config());
  for (int episode = 0; episode < 10; ++episode) early.end_episode(1.0);
  for (int episode = 0; episode < 120; ++episode) late.end_episode(1.0);
  const double early_before = early.rate();
  const double late_before = late.rate();
  early.end_episode(0.1);
  late.end_episode(0.1);
  const double early_boost = (early.rate() - early_before);
  const double late_boost = (late.rate() - late_before);
  EXPECT_LT(early_boost + 1e-9, late_boost);
}

TEST(Exploration, SmallDropIsIgnored) {
  AdaptiveExplorationController controller(small_config());
  for (int episode = 0; episode < 120; ++episode) controller.end_episode(1.0);
  controller.end_episode(0.9);  // 10% < x = 25%
  EXPECT_EQ(controller.transient_detections(), 0);
}

TEST(Exploration, CooldownPreventsRetriggering) {
  AdaptiveExplorationController controller(small_config());
  for (int episode = 0; episode < 120; ++episode) controller.end_episode(1.0);
  controller.end_episode(0.1);
  const int after_first = controller.transient_detections();
  for (int episode = 0; episode < 5; ++episode) controller.end_episode(0.1);
  EXPECT_EQ(controller.transient_detections(), after_first);
}

TEST(Exploration, PermanentFaultRevertsRateAndSlowsDecay) {
  AdaptiveExplorationController controller(small_config());
  for (int episode = 0; episode < 120; ++episode) controller.end_episode(1.0);
  const double base_decay = controller.decay_per_episode();
  // Sustained low reward in steady exploitation -> permanent detection.
  // (First the drop triggers a transient boost; keep rewards low until
  // the controller re-enters steady state and classifies it permanent.)
  int guard = 0;
  while (controller.permanent_detections() == 0 && guard++ < 2000)
    controller.end_episode(0.05);
  ASSERT_GE(controller.permanent_detections(), 1);
  EXPECT_LT(controller.decay_per_episode(), base_decay);
  EXPECT_NEAR(controller.decay_per_episode(), base_decay / 2.0,
              base_decay * 0.01);
}

TEST(Exploration, RepeatedPermanentDetectionsSlowDecayGeometrically) {
  AdaptiveExplorationController controller(small_config());
  for (int episode = 0; episode < 120; ++episode) controller.end_episode(1.0);
  const double base_decay = controller.decay_per_episode();
  int guard = 0;
  while (controller.permanent_detections() < 2 && guard++ < 10000)
    controller.end_episode(0.05);
  ASSERT_GE(controller.permanent_detections(), 2);
  EXPECT_NEAR(controller.decay_per_episode(), base_decay / 4.0,
              base_decay * 0.01);
}

TEST(Exploration, RateNeverExceedsInitialOrDropsBelowSteady) {
  AdaptiveExplorationController controller(small_config());
  Rng rng(5);
  for (int episode = 0; episode < 1000; ++episode) {
    controller.end_episode(rng.uniform(-1.0, 1.0));
    EXPECT_LE(controller.rate(), 1.0 + 1e-12);
    EXPECT_GE(controller.rate(), 0.05 - 1e-12);
  }
}

TEST(Exploration, SteadyEpisodeResetsAfterBoost) {
  AdaptiveExplorationController controller(small_config());
  for (int episode = 0; episode < 120; ++episode) controller.end_episode(1.0);
  EXPECT_GE(controller.steady_reached_episode(), 0);
  controller.end_episode(0.0);  // transient boost
  EXPECT_EQ(controller.steady_reached_episode(), -1);
}

}  // namespace
}  // namespace ftnav
