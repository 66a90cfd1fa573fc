#pragma once
// Double DQN trainer and imitation bootstrap for the drone policy.
//
// Offline phase (paper §4.2.1): the C3F2 network is trained with
// Double DQN + experience replay. The Double-DQN target decouples
// action selection (online net) from evaluation (target net):
//     y = r + gamma * Q_target(s', argmax_a Q_online(s', a)).
//
// Because the authors' offline phase runs for thousands of Unreal
// episodes, benches bootstrap the policy with a short imitation phase
// against the raycast expert before DDQN refinement (see "Known
// deviations from the paper" in README.md) --
// the fault experiments only require *a* competent converged policy.

#include "envs/drone_env.h"
#include "envs/expert_policy.h"
#include "nn/network.h"
#include "rl/replay.h"
#include "util/rng.h"

namespace ftnav {

struct DqnConfig {
  double gamma = 0.95;
  double learning_rate = 1e-3;
  int batch_size = 8;
  int target_sync_interval = 128;  ///< gradient steps between target syncs
  std::size_t replay_capacity = 1024;
  int warmup_transitions = 64;  ///< replay fill before learning starts
};

class DoubleDqnTrainer {
 public:
  /// `network` becomes the online network and a copy of it the target.
  /// Moving a network in hands its layers' buffers to the online
  /// network instead of allocating a second set.
  DoubleDqnTrainer(Network network, DqnConfig config);

  const Network& online() const noexcept { return online_; }
  Network& online() noexcept { return online_; }
  const DqnConfig& config() const noexcept { return config_; }
  std::size_t replay_size() const noexcept { return replay_.size(); }
  int gradient_steps() const noexcept { return gradient_steps_; }

  /// Epsilon-greedy action from the online network.
  int act(const Tensor& observation, double epsilon, Rng& rng);

  /// Stores a transition and, once warmed up, runs one mini-batch
  /// Double-DQN gradient step.
  void observe(Experience experience, Rng& rng);

  /// Runs one environment episode (collecting and learning); returns
  /// the flight distance achieved.
  double run_episode(DroneEnv& env, double epsilon, Rng& rng);

  /// Copies online parameters into the target network.
  void sync_target();

 private:
  void train_batch(Rng& rng);

  Network online_;
  Network target_;
  DqnConfig config_;
  ReplayBuffer replay_;
  int gradient_steps_ = 0;
};

/// Imitation bootstrap: regresses the network's Q-head onto the raycast
/// expert's action targets while following a mostly-expert trajectory.
/// Returns the mean per-step MSE loss over the final episode.
///
/// The trajectory (resets, camera, expert targets, exploration draws,
/// env steps) runs on one helper thread the call owns, a few steps
/// ahead of the learner. It never reads the network and is the only
/// user of `env` and `rng` while the call runs, so the parameters, the
/// loss and the state `env` and `rng` are left in match the serial
/// loop's. An exception from either side is rethrown here after the
/// helper is joined; the network, env and rng are then unspecified.
double pretrain_imitation(Network& network, DroneEnv& env, int episodes,
                          double learning_rate, double exploration,
                          Rng& rng);

}  // namespace ftnav
