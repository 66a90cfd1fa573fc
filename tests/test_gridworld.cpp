// Tests for the Grid World environment (Fig. 1).

#include <gtest/gtest.h>

#include <vector>

#include "envs/gridworld.h"

namespace ftnav {
namespace {

GridWorld tiny() {
  return GridWorld({
      "S..",
      ".X.",
      "..G",
  });
}

TEST(GridWorld, ParsesMap) {
  const GridWorld world = tiny();
  EXPECT_EQ(world.size(), 3);
  EXPECT_EQ(world.state_count(), 9);
  EXPECT_EQ(world.source_state(), 0);
  EXPECT_EQ(world.goal_state(), 8);
  EXPECT_EQ(world.cell(4), Cell::kHell);
  EXPECT_EQ(world.obstacle_count(), 1);
}

TEST(GridWorld, RejectsMalformedMaps) {
  EXPECT_THROW(GridWorld({"S"}), std::invalid_argument);           // too small
  EXPECT_THROW(GridWorld({"SG.", ".."}), std::invalid_argument);   // ragged
  EXPECT_THROW(GridWorld({"S..", "...", "..."}), std::invalid_argument);  // no G
  EXPECT_THROW(GridWorld({"G..", "...", "..."}), std::invalid_argument);  // no S
  EXPECT_THROW(GridWorld({"SS.", "...", "..G"}), std::invalid_argument);
  EXPECT_THROW(GridWorld({"SG.", "..G", "..."}), std::invalid_argument);
  EXPECT_THROW(GridWorld({"S?.", "...", "..G"}), std::invalid_argument);
}

TEST(GridWorld, StepMovesInAllDirections) {
  const GridWorld world = tiny();
  const int center = world.state_of(1, 0);
  EXPECT_EQ(world.step(center, static_cast<int>(GridAction::kUp)).next_state,
            world.state_of(0, 0));
  EXPECT_EQ(world.step(center, static_cast<int>(GridAction::kDown)).next_state,
            world.state_of(2, 0));
  EXPECT_EQ(world
                .step(world.state_of(0, 1), static_cast<int>(GridAction::kLeft))
                .next_state,
            world.state_of(0, 0));
  EXPECT_EQ(world
                .step(world.state_of(0, 1),
                      static_cast<int>(GridAction::kRight))
                .next_state,
            world.state_of(0, 2));
}

TEST(GridWorld, WallBumpKeepsPosition) {
  const GridWorld world = tiny();
  const auto result =
      world.step(world.source_state(), static_cast<int>(GridAction::kUp));
  EXPECT_EQ(result.next_state, world.source_state());
  EXPECT_EQ(result.reward, 0.0);
  EXPECT_FALSE(result.done);
}

TEST(GridWorld, GoalRewardsAndTerminates) {
  const GridWorld world = tiny();
  const auto result =
      world.step(world.state_of(2, 1), static_cast<int>(GridAction::kRight));
  EXPECT_EQ(result.next_state, world.goal_state());
  EXPECT_EQ(result.reward, 1.0);
  EXPECT_TRUE(result.done);
}

TEST(GridWorld, HellPunishesAndTerminates) {
  const GridWorld world = tiny();
  const auto result =
      world.step(world.state_of(0, 1), static_cast<int>(GridAction::kDown));
  EXPECT_EQ(result.reward, -1.0);
  EXPECT_TRUE(result.done);
}

TEST(GridWorld, FreeMoveIsNeutral) {
  const GridWorld world = tiny();
  const auto result =
      world.step(world.source_state(), static_cast<int>(GridAction::kRight));
  EXPECT_EQ(result.reward, 0.0);
  EXPECT_FALSE(result.done);
}

TEST(GridWorld, StepValidatesArguments) {
  const GridWorld world = tiny();
  EXPECT_THROW(world.step(-1, 0), std::invalid_argument);
  EXPECT_THROW(world.step(99, 0), std::invalid_argument);
  EXPECT_THROW(world.step(0, 4), std::invalid_argument);
}

TEST(GridWorld, RolloutReturnsTheEpisodeReturn) {
  const GridWorld world = tiny();
  const int up = static_cast<int>(GridAction::kUp);
  const int down = static_cast<int>(GridAction::kDown);
  const int right = static_cast<int>(GridAction::kRight);
  // Along the top row, then down the right column: 0, 1, 2, 5, G.
  const auto to_goal = [&](int state) {
    return world.col_of(state) < 2 ? right : down;
  };
  EXPECT_EQ(world.rollout(to_goal, 100), 1.0);
  // Right once, then down into the hell cell at 4.
  EXPECT_EQ(world.rollout([&](int state) { return state == 0 ? right : down; },
                          100),
            -1.0);
  // Bumping the top wall runs into the step cap; so does the goal
  // route when the cap is shorter than its four steps.
  EXPECT_EQ(world.rollout([&](int) { return up; }, 100), 0.0);
  EXPECT_EQ(world.rollout(to_goal, 3), 0.0);
  // The policy is asked once per step, in step order, from the source.
  std::vector<int> asked;
  (void)world.rollout(
      [&](int state) {
        asked.push_back(state);
        return to_goal(state);
      },
      100);
  EXPECT_EQ(asked, (std::vector<int>{0, 1, 2, 5}));
}

TEST(GridWorld, RenderShowsAgent) {
  const GridWorld world = tiny();
  const std::string art = world.render(world.state_of(1, 0));
  EXPECT_NE(art.find('A'), std::string::npos);
  EXPECT_NE(art.find('G'), std::string::npos);
  EXPECT_NE(art.find('X'), std::string::npos);
}

// ---- preset layouts (Fig. 1) ------------------------------------------

class PresetSweep : public ::testing::TestWithParam<ObstacleDensity> {};

TEST_P(PresetSweep, PresetIsWellFormed10x10) {
  const GridWorld world = GridWorld::preset(GetParam());
  EXPECT_EQ(world.size(), 10);
  EXPECT_GE(world.source_state(), 0);
  EXPECT_GE(world.goal_state(), 0);
  EXPECT_NE(world.source_state(), world.goal_state());
}

TEST_P(PresetSweep, GoalReachableByBfs) {
  const GridWorld world = GridWorld::preset(GetParam());
  std::vector<bool> visited(static_cast<std::size_t>(world.state_count()));
  std::vector<int> frontier = {world.source_state()};
  visited[static_cast<std::size_t>(world.source_state())] = true;
  bool reached = false;
  while (!frontier.empty() && !reached) {
    std::vector<int> next;
    for (int state : frontier) {
      for (int action = 0; action < GridWorld::action_count(); ++action) {
        const auto result = world.step(state, action);
        if (result.next_state == world.goal_state()) reached = true;
        if (!result.done &&
            !visited[static_cast<std::size_t>(result.next_state)]) {
          visited[static_cast<std::size_t>(result.next_state)] = true;
          next.push_back(result.next_state);
        }
      }
    }
    frontier = std::move(next);
  }
  EXPECT_TRUE(reached);
}

INSTANTIATE_TEST_SUITE_P(Densities, PresetSweep,
                         ::testing::Values(ObstacleDensity::kLow,
                                           ObstacleDensity::kMiddle,
                                           ObstacleDensity::kHigh));

TEST(GridWorld, DensityOrderingHolds) {
  EXPECT_LT(GridWorld::preset(ObstacleDensity::kLow).obstacle_count(),
            GridWorld::preset(ObstacleDensity::kMiddle).obstacle_count());
  EXPECT_LT(GridWorld::preset(ObstacleDensity::kMiddle).obstacle_count(),
            GridWorld::preset(ObstacleDensity::kHigh).obstacle_count());
}

}  // namespace
}  // namespace ftnav
