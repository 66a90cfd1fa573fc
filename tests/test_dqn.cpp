// Tests for the replay buffer, Double DQN trainer, and imitation
// bootstrap.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstring>
#include <set>

#include "experiments/drone_policy.h"
#include "nn/c3f2.h"
#include "rl/dqn.h"

namespace ftnav {
namespace {

C3F2Config tiny_c3f2() {
  // Smallest consistent C3F2 geometry for tests:
  // 15 -> conv1 3x3/2 -> 7 -> pool2 -> 3 -> conv2 3x3 -> 1 ->
  // conv3 1x1 -> 1 -> fc1 -> fc2(25).
  C3F2Config config;
  config.input_hw = 15;
  config.conv1_filters = 4;
  config.conv1_kernel = 3;
  config.conv1_stride = 2;
  config.conv2_filters = 8;
  config.conv2_kernel = 3;
  config.conv2_stride = 1;
  config.conv3_filters = 8;
  config.conv3_kernel = 1;
  config.fc1_units = 16;
  return config;
}

DroneEnvConfig tiny_env_config() {
  DroneEnvConfig config;
  config.camera.image_hw = 15;
  config.max_steps = 40;
  config.max_distance = 30.0;
  return config;
}

/// pretrain_imitation as one serial loop, the trajectory and the
/// learner interleaved step by step: the oracle for the call, which flies
/// the trajectory on a helper thread.
double serial_imitation(Network& network, DroneEnv& env, int episodes,
                        double learning_rate, double exploration, Rng& rng) {
  const ExpertPolicy expert(env);
  double last_episode_loss = 0.0;
  for (int episode = 0; episode < episodes; ++episode) {
    (void)env.reset(rng);
    double loss_sum = 0.0;
    int steps = 0;
    while (!env.done()) {
      const Tensor observation = env.observe();
      const Tensor targets = expert.action_targets();
      const Tensor& q = network.forward(observation);
      Tensor grad(q.shape());
      double loss = 0.0;
      for (std::size_t i = 0; i < q.size(); ++i) {
        const float diff = q[i] - targets[i];
        grad[i] = diff / static_cast<float>(q.size());
        loss += 0.5 * diff * diff;
      }
      network.backward(grad);
      network.apply_gradients(static_cast<float>(learning_rate));
      loss_sum += loss / static_cast<double>(q.size());
      ++steps;
      const int action = rng.bernoulli(exploration)
                             ? static_cast<int>(rng.below(
                                   DroneEnvConfig::action_count()))
                             : ExpertPolicy::best_action(targets);
      (void)env.step(action);
    }
    last_episode_loss = steps > 0 ? loss_sum / steps : 0.0;
  }
  return last_episode_loss;
}

Experience make_experience(int action, float reward, bool done, Rng& rng) {
  Tensor s(Shape{1, 2, 2});
  Tensor s2(Shape{1, 2, 2});
  for (std::size_t i = 0; i < s.size(); ++i) {
    s[i] = static_cast<float>(rng.uniform());
    s2[i] = static_cast<float>(rng.uniform());
  }
  return Experience{std::move(s), action, reward, std::move(s2), done};
}

TEST(ReplayBuffer, RejectsZeroCapacity) {
  EXPECT_THROW(ReplayBuffer(0), std::invalid_argument);
}

TEST(ReplayBuffer, FillsThenWrapsAround) {
  ReplayBuffer buffer(3);
  Rng rng(1);
  for (int i = 0; i < 3; ++i)
    buffer.push(make_experience(i, 0.0f, false, rng));
  EXPECT_EQ(buffer.size(), 3u);
  buffer.push(make_experience(99, 0.0f, false, rng));
  EXPECT_EQ(buffer.size(), 3u);
  // Oldest entry (action 0) was evicted.
  bool found_99 = false, found_0 = false;
  for (std::size_t i = 0; i < buffer.size(); ++i) {
    found_99 |= buffer.at(i).action == 99;
    found_0 |= buffer.at(i).action == 0;
  }
  EXPECT_TRUE(found_99);
  EXPECT_FALSE(found_0);
}

TEST(ReplayBuffer, SampleFromEmptyThrows) {
  ReplayBuffer buffer(2);
  Rng rng(2);
  EXPECT_THROW(buffer.sample(rng), std::logic_error);
}

TEST(ReplayBuffer, SampleCoversContents) {
  ReplayBuffer buffer(4);
  Rng rng(3);
  for (int i = 0; i < 4; ++i)
    buffer.push(make_experience(i, 0.0f, false, rng));
  std::set<int> seen;
  for (int i = 0; i < 200; ++i) seen.insert(buffer.sample(rng).action);
  EXPECT_EQ(seen.size(), 4u);
}

TEST(ReplayBuffer, ClearEmpties) {
  ReplayBuffer buffer(2);
  Rng rng(4);
  buffer.push(make_experience(0, 0.0f, false, rng));
  buffer.clear();
  EXPECT_TRUE(buffer.empty());
}

TEST(DoubleDqn, RejectsBadConfig) {
  Rng rng(5);
  Network net = make_c3f2(tiny_c3f2(), rng);
  DqnConfig config;
  config.batch_size = 0;
  EXPECT_THROW(DoubleDqnTrainer(net, config), std::invalid_argument);
  config = DqnConfig{};
  config.gamma = 1.0;
  EXPECT_THROW(DoubleDqnTrainer(net, config), std::invalid_argument);
}

TEST(DoubleDqn, ActIsEpsilonGreedy) {
  Rng rng(6);
  Network net = make_c3f2(tiny_c3f2(), rng);
  DoubleDqnTrainer trainer(net, DqnConfig{});
  Tensor obs(tiny_c3f2().input_shape());
  obs.fill(0.3f);
  // epsilon = 0: deterministic argmax.
  Rng a(7), b(7);
  EXPECT_EQ(trainer.act(obs, 0.0, a), trainer.act(obs, 0.0, b));
  // epsilon = 1: all actions eventually sampled.
  std::set<int> seen;
  Rng c(8);
  for (int i = 0; i < 500; ++i) seen.insert(trainer.act(obs, 1.0, c));
  EXPECT_GT(seen.size(), 15u);
}

TEST(DoubleDqn, LearningStartsAfterWarmup) {
  Rng rng(9);
  Network net = make_c3f2(tiny_c3f2(), rng);
  DqnConfig config;
  config.warmup_transitions = 8;
  config.batch_size = 4;
  DoubleDqnTrainer trainer(net, config);
  Tensor obs(tiny_c3f2().input_shape());
  for (int i = 0; i < 7; ++i)
    trainer.observe(Experience{obs, 0, 0.0f, obs, false}, rng);
  EXPECT_EQ(trainer.gradient_steps(), 0);
  trainer.observe(Experience{obs, 0, 0.0f, obs, false}, rng);
  EXPECT_EQ(trainer.gradient_steps(), 1);
}

TEST(DoubleDqn, GradientStepChangesOnlineNet) {
  Rng rng(10);
  Network net = make_c3f2(tiny_c3f2(), rng);
  DqnConfig config;
  config.warmup_transitions = 1;
  config.batch_size = 2;
  config.learning_rate = 0.05;
  DoubleDqnTrainer trainer(net, config);
  const auto before = trainer.online().snapshot_parameters();
  Tensor obs(tiny_c3f2().input_shape());
  obs.fill(0.5f);
  trainer.observe(Experience{obs, 3, 1.0f, obs, true}, rng);
  const auto after = trainer.online().snapshot_parameters();
  EXPECT_NE(before, after);
}

TEST(DoubleDqn, RunEpisodeReturnsDistance) {
  Rng rng(11);
  Network net = make_c3f2(tiny_c3f2(), rng);
  DqnConfig config;
  config.replay_capacity = 64;
  config.warmup_transitions = 1000000;  // no learning: just rollout
  DoubleDqnTrainer trainer(net, config);
  const DroneWorld world = DroneWorld::indoor_long();
  DroneEnv env(world, tiny_env_config());
  const double distance = trainer.run_episode(env, 0.5, rng);
  EXPECT_GE(distance, 0.0);
  EXPECT_TRUE(env.done());
}

TEST(Imitation, RejectsNonPositiveEpisodes) {
  Rng rng(12);
  Network net = make_c3f2(tiny_c3f2(), rng);
  const DroneWorld world = DroneWorld::indoor_long();
  DroneEnv env(world, tiny_env_config());
  EXPECT_THROW(pretrain_imitation(net, env, 0, 0.01, 0.1, rng),
               std::invalid_argument);
}

TEST(Imitation, LossDecreasesAcrossEpisodes) {
  Rng rng(13);
  Network net = make_c3f2(tiny_c3f2(), rng);
  const DroneWorld world = DroneWorld::indoor_long();
  DroneEnv env(world, tiny_env_config());
  const double early = pretrain_imitation(net, env, 1, 0.02, 0.1, rng);
  const double late = pretrain_imitation(net, env, 6, 0.02, 0.1, rng);
  EXPECT_LT(late, early);
}

TEST(Imitation, ProducesCompetentPolicy) {
  Rng rng(14);
  Network net = make_c3f2(tiny_c3f2(), rng);
  const DroneWorld world = DroneWorld::indoor_long();
  DroneEnvConfig env_config = tiny_env_config();
  env_config.max_steps = 150;
  env_config.max_distance = 60.0;
  DroneEnv env(world, env_config);
  pretrain_imitation(net, env, 8, 0.02, 0.1, rng);
  // Greedy rollout with the trained policy flies a reasonable distance.
  Tensor obs = env.reset(rng);
  while (!env.done()) {
    const int action = static_cast<int>(net.forward(obs).argmax());
    (void)env.step(action);
    obs = env.observe();
  }
  EXPECT_GT(env.flight_distance(), 10.0);
}

TEST(Imitation, PipelineMatchesSerialReference) {
  const DroneWorld world = DroneWorld::indoor_long();
  struct Case {
    C3F2Config net;
    DroneEnvConfig env;
  };
  C3F2Config fast = C3F2Config::preset(C3F2Preset::kFast);
  DroneEnvConfig fast_env = drone_env_config_for(fast);
  fast_env.max_steps = 60;
  for (const Case& c : {Case{tiny_c3f2(), tiny_env_config()},
                        Case{fast, fast_env}}) {
    for (const std::uint64_t seed : {31u, 32u, 33u}) {
      for (const int episodes : {1, 2, 8}) {
        SCOPED_TRACE(testing::Message()
                     << "input " << c.net.input_hw << " seed " << seed
                     << " episodes " << episodes);
        Rng init(seed);
        const Network initial = make_c3f2(c.net, init);
        Network serial_net = initial;
        Network piped_net = initial;
        DroneEnv serial_env(world, c.env);
        DroneEnv piped_env(world, c.env);
        Rng serial_rng(seed + 100);
        Rng piped_rng(seed + 100);
        // A high exploration rate so most steps draw from the generator.
        const double serial_loss = serial_imitation(
            serial_net, serial_env, episodes, 0.02, 0.3, serial_rng);
        const double piped_loss = pretrain_imitation(
            piped_net, piped_env, episodes, 0.02, 0.3, piped_rng);
        EXPECT_EQ(std::bit_cast<std::uint64_t>(serial_loss),
                  std::bit_cast<std::uint64_t>(piped_loss));
        const std::vector<float> serial_params =
            serial_net.snapshot_parameters();
        const std::vector<float> piped_params =
            piped_net.snapshot_parameters();
        ASSERT_EQ(serial_params.size(), piped_params.size());
        EXPECT_EQ(std::memcmp(serial_params.data(), piped_params.data(),
                              serial_params.size() * sizeof(float)),
                  0);
        EXPECT_EQ(serial_rng(), piped_rng());
        EXPECT_EQ(serial_env.steps(), piped_env.steps());
        EXPECT_EQ(serial_env.flight_distance(), piped_env.flight_distance());
      }
    }
  }
}

TEST(Imitation, LearnerFailureJoinsAndRethrows) {
  // A one-channel network against the three-channel camera: the
  // learner's first forward throws while the helper fills the ring (and
  // then waits on it), so the call must stop and join the helper before
  // rethrowing. Repeated to meet the helper at different points.
  C3F2Config config = tiny_c3f2();
  config.input_channels = 1;
  const DroneWorld world = DroneWorld::indoor_long();
  for (int attempt = 0; attempt < 20; ++attempt) {
    Rng rng(16 + attempt);
    Network net = make_c3f2(config, rng);
    DroneEnv env(world, tiny_env_config());
    EXPECT_THROW(pretrain_imitation(net, env, 8, 0.02, 0.1, rng),
                 std::invalid_argument);
  }
}

}  // namespace
}  // namespace ftnav
