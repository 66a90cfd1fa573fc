#pragma once
// Raycast expert for the drone task.
//
// A geometric controller that reads true clearances from the world and
// picks the (yaw, extent) action with the best safety margin. It serves
// two roles:
//   * bootstrap teacher: imitation targets that give Double DQN a
//     competent starting policy within a bench run (DESIGN.md §2);
//   * sanity baseline: an upper-comparison policy for MSF experiments.

#include "envs/drone_env.h"
#include "nn/tensor.h"

namespace ftnav {

class ExpertPolicy {
 public:
  explicit ExpertPolicy(const DroneEnv& env) : env_(&env) {}
  /// The policy keeps a pointer to the env; forbid binding a temporary.
  explicit ExpertPolicy(DroneEnv&&) = delete;

  /// Q-like target per action: normalized post-move clearance margin,
  /// negative when the stride would outrun the available clearance.
  /// Layout matches DroneEnvConfig action ids (yaw fastest).
  Tensor action_targets() const;

  /// Greedy expert action: best_action(action_targets()).
  int act() const;

  /// The expert's choice among `targets` (action_targets() at some
  /// pose): a safe score earns a bonus for longer, straighter strides,
  /// and the first best action wins. Lets a caller that already holds
  /// the targets skip the second raycast sweep act() would run.
  static int best_action(const Tensor& targets);

 private:
  const DroneEnv* env_;
};

}  // namespace ftnav
