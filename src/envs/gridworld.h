#pragma once
// Grid World navigation environment (paper §4.1, Fig. 1).
//
// An n x n grid where every cell is one of {source, goal, hell, free}.
// The agent starts at the source and must reach the goal while avoiding
// hell cells. Actions: move-up / move-down / move-left / move-right.
// Rewards: +1 on reaching the goal, -1 on entering hell, 0 otherwise.
// Moving off the edge leaves the agent in place. Entering goal or hell
// terminates the episode.
//
// Three preset layouts reproduce Fig. 1's low / middle / high obstacle
// densities; custom maps can be built from ASCII art for tests.

#include <cstdint>

#include "util/rng.h"
#include <string>
#include <vector>

namespace ftnav {

enum class Cell : std::uint8_t { kFree, kHell, kGoal, kSource };

enum class GridAction : int {
  kUp = 0,
  kDown = 1,
  kLeft = 2,
  kRight = 3,
};

/// Obstacle densities of Fig. 1 (a)-(c).
enum class ObstacleDensity { kLow, kMiddle, kHigh };

class GridWorld {
 public:
  /// Builds a world from ASCII rows: '.' free, 'X' hell, 'G' goal,
  /// 'S' source. Throws std::invalid_argument on malformed maps
  /// (non-square, missing/duplicate source or goal, unknown chars).
  explicit GridWorld(const std::vector<std::string>& rows);

  /// The Fig. 1 preset layouts (10x10).
  static GridWorld preset(ObstacleDensity density);

  /// Random solvable world: n x n with ~`obstacle_fraction` of cells as
  /// hell, source and goal placed in opposite corners' quadrants, and a
  /// BFS solvability check (re-sampled up to 64 times; throws
  /// std::runtime_error if no solvable layout is found).
  static GridWorld random(int n, double obstacle_fraction,
                          std::uint64_t seed);

  /// True when a BFS from the source can reach the goal.
  bool solvable() const;

  int size() const noexcept { return n_; }
  int state_count() const noexcept { return n_ * n_; }
  static constexpr int action_count() noexcept { return 4; }

  int source_state() const noexcept { return source_; }
  int goal_state() const noexcept { return goal_; }
  Cell cell(int state) const;
  int obstacle_count() const noexcept;

  /// State id for (row, col).
  int state_of(int row, int col) const;
  int row_of(int state) const noexcept { return state / n_; }
  int col_of(int state) const noexcept { return state % n_; }

  struct StepResult {
    int next_state = 0;
    double reward = 0.0;
    bool done = false;
  };

  /// Transition function; the environment itself is stateless so it can
  /// be shared across thousands of concurrent rollouts. Throws
  /// std::invalid_argument for invalid state/action ids.
  StepResult step(int state, int action) const;

  /// The one greedy rollout every Grid World evaluation runs: follows
  /// `policy` (state -> action, asked once per step, in step order)
  /// from the source for at most `max_steps` steps. Returns the episode
  /// return: +1 at the goal, -1 in hell, 0 at the step cap, so the
  /// policy succeeded when it is positive.
  template <typename Policy>
  double rollout(Policy&& policy, int max_steps) const {
    int state = source_;
    for (int t = 0; t < max_steps; ++t) {
      const StepResult result = step(state, policy(state));
      if (result.done) return result.reward;
      state = result.next_state;
    }
    return 0.0;
  }

  /// ASCII rendering (Fig. 1-style) with an optional agent position.
  std::string render(int agent_state = -1) const;

 private:
  int n_ = 0;
  std::vector<Cell> cells_;
  int source_ = -1;
  int goal_ = -1;
};

}  // namespace ftnav
