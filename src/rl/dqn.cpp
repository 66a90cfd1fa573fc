#include "rl/dqn.h"

#include <stdexcept>
#include <utility>

namespace ftnav {

DoubleDqnTrainer::DoubleDqnTrainer(Network network, DqnConfig config)
    : online_(std::move(network)),
      target_(online_),
      config_(config),
      replay_(config.replay_capacity) {
  if (config.batch_size <= 0)
    throw std::invalid_argument("DqnConfig: batch_size must be positive");
  if (config.gamma <= 0.0 || config.gamma >= 1.0)
    throw std::invalid_argument("DqnConfig: gamma outside (0,1)");
}

int DoubleDqnTrainer::act(const Tensor& observation, double epsilon,
                          Rng& rng) {
  if (rng.bernoulli(epsilon))
    return static_cast<int>(rng.below(DroneEnvConfig::action_count()));
  return static_cast<int>(online_.infer(observation).argmax());
}

void DoubleDqnTrainer::observe(Experience experience, Rng& rng) {
  replay_.push(std::move(experience));
  if (replay_.size() >= static_cast<std::size_t>(config_.warmup_transitions))
    train_batch(rng);
}

void DoubleDqnTrainer::train_batch(Rng& rng) {
  online_.zero_gradients();
  const float scale = 1.0f / static_cast<float>(config_.batch_size);
  for (int b = 0; b < config_.batch_size; ++b) {
    const Experience& e = replay_.sample(rng);
    double target = e.reward;
    if (!e.done) {
      // Double DQN: online net selects, target net evaluates. Neither
      // is graded, so both run cache-free; the forward of e.state below
      // fills the caches backward reads.
      const std::size_t best = online_.infer(e.next_state).argmax();
      target += config_.gamma *
                static_cast<double>(target_.infer(e.next_state)[best]);
    }
    const Tensor& q = online_.forward(e.state);
    Tensor grad(q.shape());
    grad[static_cast<std::size_t>(e.action)] =
        scale * (q[static_cast<std::size_t>(e.action)] -
                 static_cast<float>(target));
    online_.backward(grad);
  }
  online_.apply_gradients(static_cast<float>(config_.learning_rate));
  ++gradient_steps_;
  if (gradient_steps_ % config_.target_sync_interval == 0) sync_target();
}

double DoubleDqnTrainer::run_episode(DroneEnv& env, double epsilon,
                                     Rng& rng) {
  Tensor observation = env.reset(rng);
  while (!env.done()) {
    const int action = act(observation, epsilon, rng);
    const DroneEnv::StepResult result = env.step(action);
    Tensor next = env.observe();
    observe(Experience{observation, action,
                       static_cast<float>(result.reward), next,
                       result.done},
            rng);
    observation = std::move(next);
  }
  return env.flight_distance();
}

void DoubleDqnTrainer::sync_target() {
  const std::vector<float> params = online_.snapshot_parameters();
  target_.restore_parameters(params);
}

double pretrain_imitation(Network& network, DroneEnv& env, int episodes,
                          double learning_rate, double exploration,
                          Rng& rng) {
  if (episodes <= 0)
    throw std::invalid_argument("pretrain_imitation: episodes must be > 0");
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
      // Mostly expert trajectory with occasional random deviation so the
      // learner also sees recovery states. The env has not moved since
      // `targets`, so they are what expert.act() would compute again.
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

}  // namespace ftnav
