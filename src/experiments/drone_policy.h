#pragma once
// Drone policy production and MSF evaluation (paper §4.2 substrate).
//
// `train_drone_policy` produces the "offline-trained" C3F2 policy the
// inference and fine-tuning experiments start from: an imitation
// bootstrap against the raycast expert followed by a short Double-DQN
// refinement (README.md's "Known deviations from the paper" documents
// this substitution for the paper's long PEDRA training).
// `mean_safe_flight` measures the paper's MSF metric: average distance
// flown before collision across repeats (DroneEnv::fly).

#include "envs/drone_env.h"
#include "nn/c3f2.h"
#include "nn/quantized_engine.h"
#include "rl/fine_tune.h"

namespace ftnav {

struct DronePolicySpec {
  C3F2Preset preset = C3F2Preset::kFast;
  int imitation_episodes = 8;
  int ddqn_episodes = 2;
  double imitation_lr = 0.02;
  std::uint64_t seed = 42;
  /// Optional environment-budget overrides (0 = preset default); they
  /// propagate into the bundle's env_config, shrinking both training
  /// and every downstream campaign (used by tests and quick demos).
  int env_max_steps = 0;
  double env_max_distance = 0.0;
};

struct DronePolicyBundle {
  C3F2Config c3f2;
  Network network;
  DroneEnvConfig env_config;
};

/// Environment configuration matched to a C3F2 preset (camera size ==
/// network input size; paper-style MSF caps).
DroneEnvConfig drone_env_config_for(const C3F2Config& c3f2);

/// Trains the offline policy on `world`.
DronePolicyBundle train_drone_policy(const DroneWorld& world,
                                     const DronePolicySpec& spec);

/// Mean Safe Flight of the (possibly faulty/hardened) engine policy.
double mean_safe_flight(QuantizedInferenceEngine& engine,
                        const DroneWorld& world,
                        const DroneEnvConfig& env_config, int repeats,
                        Rng& rng);

/// Mean Safe Flight of a float network policy (no quantization) --
/// used as the training-quality reference.
double mean_safe_flight(Network& network, const DroneWorld& world,
                        const DroneEnvConfig& env_config, int repeats,
                        Rng& rng);

}  // namespace ftnav
