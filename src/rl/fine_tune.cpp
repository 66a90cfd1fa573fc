#include "rl/fine_tune.h"

#include <stdexcept>

namespace ftnav {

OnlineFineTuner::OnlineFineTuner(const Network& pretrained,
                                 FineTuneConfig config)
    : config_(config), net_(pretrained) {
  master_ = net_.snapshot_parameters();
  weights_ = QVector(config.format, std::span<const float>(master_));
  for (std::size_t i = 0; i < net_.layer_count(); ++i)
    if (net_.layer(i).kind() == LayerKind::kDense) dense_layers_.push_back(i);
  if (dense_layers_.empty())
    throw std::invalid_argument("OnlineFineTuner: network has no FC layers");
  // Flat parameter offsets of the trainable (Dense) layers.
  std::size_t offset = 0;
  for (std::size_t i = 0; i < net_.layer_count(); ++i) {
    const std::size_t count = net_.layer(i).parameters().size();
    if (net_.layer(i).kind() == LayerKind::kDense)
      dense_ranges_.emplace_back(offset, offset + count);
    offset += count;
  }
  commit();
}

void OnlineFineTuner::commit() {
  weights_.encode_from(std::span<const float>(master_));
  stuck_.apply(weights_);
  scratch_.resize(weights_.size());
  weights_.decode_into(scratch_);
  net_.restore_parameters(scratch_);
}

int OnlineFineTuner::act(const Tensor& observation, double epsilon,
                         Rng& rng) {
  if (rng.bernoulli(epsilon))
    return static_cast<int>(rng.below(DroneEnvConfig::action_count()));
  return static_cast<int>(net_.infer(observation).argmax());
}

void OnlineFineTuner::td_update(const Tensor& observation, int action,
                                double reward,
                                const Tensor& next_observation, bool done) {
  double target = reward * config_.reward_scale;
  if (!done) {
    // Not graded: cache-free, so the forward below fills the caches.
    target += config_.gamma *
              static_cast<double>(net_.infer(next_observation).max_value());
  }
  const Tensor& q = net_.forward(observation);
  Tensor grad(q.shape());
  grad[static_cast<std::size_t>(action)] =
      q[static_cast<std::size_t>(action)] - static_cast<float>(target);
  net_.backward(grad);
  // Transfer learning: only the FC layers' master weights move; the
  // frozen conv features keep whatever (possibly faulty) values the
  // buffer holds.
  grad_scratch_.resize(master_.size());
  net_.copy_gradients_into(grad_scratch_);
  for (const auto& [begin, end] : dense_ranges_) {
    for (std::size_t i = begin; i < end; ++i)
      master_[i] -= static_cast<float>(config_.learning_rate) *
                    grad_scratch_[i];
  }
  net_.zero_gradients();
  commit();
}

double OnlineFineTuner::run_training_episode(DroneEnv& env, double epsilon,
                                             Rng& rng) {
  Tensor observation = env.reset(rng);
  while (!env.done()) {
    const int action = act(observation, epsilon, rng);
    const DroneEnv::StepResult result = env.step(action);
    Tensor next = env.observe();
    td_update(observation, action, result.reward, next, result.done);
    observation = std::move(next);
  }
  return env.flight_distance();
}

double OnlineFineTuner::evaluate_episode(DroneEnv& env, Rng& rng) {
  Tensor observation = env.reset(rng);
  while (!env.done()) {
    const int action = act(observation, 0.0, rng);
    (void)env.step(action);
    observation = env.observe();
  }
  return env.flight_distance();
}

void OnlineFineTuner::set_stuck(const StuckAtMask& mask) {
  stuck_ = mask;
  commit();
}

void OnlineFineTuner::inject_transient(const FaultMap& map) {
  if (map.type() != FaultType::kTransientFlip)
    throw std::invalid_argument(
        "OnlineFineTuner::inject_transient: map is not transient");
  map.apply_once(weights_.words());
  stuck_.apply(weights_);
  // Corrupt the master copy at the hit words so learning continues from
  // (and may heal) the damage.
  for (const FaultSite& site : map.sites()) {
    if (site.word_index < weights_.size())
      master_[site.word_index] =
          static_cast<float>(weights_.get(site.word_index));
  }
  scratch_.resize(weights_.size());
  weights_.decode_into(scratch_);
  net_.restore_parameters(scratch_);
}

}  // namespace ftnav
