#include "experiments/drone_policy.h"

#include <utility>

#include "rl/dqn.h"
#include "util/stats.h"

namespace ftnav {

DroneEnvConfig drone_env_config_for(const C3F2Config& c3f2) {
  DroneEnvConfig config;
  config.camera.image_hw = c3f2.input_hw;
  config.max_steps = 400;
  config.max_distance = 150.0;  // paper MSF tops out near ~133 m
  return config;
}

DronePolicyBundle train_drone_policy(const DroneWorld& world,
                                     const DronePolicySpec& spec) {
  Rng rng(spec.seed);
  DronePolicyBundle bundle{C3F2Config::preset(spec.preset), Network{},
                           DroneEnvConfig{}};
  bundle.network = make_c3f2(bundle.c3f2, rng);
  bundle.env_config = drone_env_config_for(bundle.c3f2);
  if (spec.env_max_steps > 0) bundle.env_config.max_steps = spec.env_max_steps;
  if (spec.env_max_distance > 0.0)
    bundle.env_config.max_distance = spec.env_max_distance;

  DroneEnv env(world, bundle.env_config);
  if (spec.imitation_episodes > 0) {
    pretrain_imitation(bundle.network, env, spec.imitation_episodes,
                       spec.imitation_lr, /*exploration=*/0.1, rng);
  }
  if (spec.ddqn_episodes > 0) {
    DqnConfig dqn;
    dqn.learning_rate = 2e-4;  // refine, don't wreck the bootstrap
    // The trainer takes the imitation network, buffers and all; the
    // bundle gets the refined copy back below.
    DoubleDqnTrainer trainer(std::move(bundle.network), dqn);
    for (int episode = 0; episode < spec.ddqn_episodes; ++episode)
      (void)trainer.run_episode(env, 0.1, rng);
    bundle.network = trainer.online();
  }
  return bundle;
}

namespace {

/// MSF over `repeats` flights of `policy` (observation -> action) on
/// one env.
template <typename Policy>
double mean_of_flights(const DroneWorld& world,
                       const DroneEnvConfig& env_config, int repeats,
                       Rng& rng, Policy&& policy) {
  RunningStats distances;
  DroneEnv env(world, env_config);
  for (int repeat = 0; repeat < repeats; ++repeat)
    distances.add(env.fly(policy, rng));
  return distances.mean();
}

}  // namespace

double mean_safe_flight(QuantizedInferenceEngine& engine,
                        const DroneWorld& world,
                        const DroneEnvConfig& env_config, int repeats,
                        Rng& rng) {
  return mean_of_flights(
      world, env_config, repeats, rng, [&](const Tensor& observation) {
        return static_cast<int>(engine.act(observation, rng));
      });
}

double mean_safe_flight(Network& network, const DroneWorld& world,
                        const DroneEnvConfig& env_config, int repeats,
                        Rng& rng) {
  return mean_of_flights(
      world, env_config, repeats, rng, [&](const Tensor& observation) {
        return static_cast<int>(network.infer(observation).argmax());
      });
}

}  // namespace ftnav
