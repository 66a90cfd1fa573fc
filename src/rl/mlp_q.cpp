#include "rl/mlp_q.h"

#include <bit>
#include <cstdint>
#include <numeric>
#include <stdexcept>

namespace ftnav {

MlpQAgent::MlpQAgent(const GridWorld& env, MlpQConfig config, Rng& rng)
    : env_(&env), config_(config) {
  if (config.hidden_units <= 0)
    throw std::invalid_argument("MlpQConfig: hidden_units must be positive");
  if (config.learning_rate <= 0.0)
    throw std::invalid_argument("MlpQConfig: bad learning rate");
  auto fc1 =
      std::make_unique<Dense>(env.state_count(), config.hidden_units, rng);
  fc1_ = fc1.get();
  net_.add(std::move(fc1)).set_label("FC1");
  net_.add(std::make_unique<ReLU>());
  net_.add(std::make_unique<Dense>(config.hidden_units,
                                   GridWorld::action_count(), rng))
      .set_label("FC2");
  std::size_t offset = 0;
  for (const std::size_t index : net_.parametered_layers()) {
    Layer& layer = net_.layer(index);
    slices_.push_back({offset, layer.parameters(), layer.gradients(), {}});
    offset += layer.parameters().size();
  }
  master_ = net_.snapshot_parameters();
  weights_ = QVector(config.format, master_.size());
  grad_ = Tensor(static_cast<std::size_t>(GridWorld::action_count()));
  // Sizes every queue to its slice, so update_masters never grows one.
  queue_all();
  commit();
}

Tensor MlpQAgent::encode_state(int state) const {
  if (state < 0 || state >= env_->state_count())
    throw std::invalid_argument("MlpQAgent::encode_state: bad state");
  Tensor one_hot(static_cast<std::size_t>(env_->state_count()));
  one_hot[static_cast<std::size_t>(state)] = 1.0f;
  return one_hot;
}

void MlpQAgent::commit() {
  const QFormat& format = weights_.format();
  const std::span<Word> words = weights_.words();
  for (const ParamSlice& slice : slices_)
    for (const std::size_t i : slice.queued)
      words[slice.offset + i] = format.encode(master_[slice.offset + i]);
  stuck_.apply(weights_);
  for (ParamSlice& slice : slices_) {
    for (const std::size_t i : slice.queued)
      slice.params[i] =
          static_cast<float>(format.decode(words[slice.offset + i]));
    slice.queued.clear();
  }
}

void MlpQAgent::queue_all() {
  for (ParamSlice& slice : slices_) {
    slice.queued.resize(slice.params.size());
    std::iota(slice.queued.begin(), slice.queued.end(), std::size_t{0});
  }
}

int MlpQAgent::td_step(int state, double epsilon, Rng& rng,
                       GridWorld::StepResult& result, double& out_reward) {
  // The probe forward of `state` fills the caches backward grades; the
  // bootstrap target runs cache-free, so they still hold the probe.
  const Tensor& q = evaluate(state, /*train=*/true);
  const int action =
      rng.bernoulli(epsilon)
          ? static_cast<int>(rng.below(GridWorld::action_count()))
          : static_cast<int>(q.argmax());
  // `q` is FC2's output buffer, which the bootstrap overwrites.
  const float q_action = q[static_cast<std::size_t>(action)];
  result = env_->step(state, action);
  out_reward = result.reward;

  double target = result.reward * config_.reward_scale;
  if (!result.done)
    target += config_.gamma *
              static_cast<double>(q_values(result.next_state).max_value());
  grad_[static_cast<std::size_t>(action)] =
      static_cast<float>(static_cast<double>(q_action) - target);
  // FC2 and ReLU run their generic backward; FC1's input is one-hot,
  // so it grades one weight column and its biases, and nothing reads
  // its input gradient.
  const Tensor* grad = &grad_;
  for (std::size_t i = net_.layer_count() - 1; i > 0; --i)
    grad = &net_.layer(i).backward(*grad);
  fc1_->backward_one_hot(*grad, static_cast<std::size_t>(state));
  grad_[static_cast<std::size_t>(action)] = 0.0f;
  // Straight-through update: gradients w.r.t. quantized weights are
  // applied to the float master, then re-quantized into the buffer.
  update_masters(state, action);
  commit();
  return action;
}

void MlpQAgent::update_masters(int state, int action) {
  const auto lr = static_cast<float>(config_.learning_rate);
  const auto update = [&](ParamSlice& slice, std::size_t i) {
    float& g = slice.gradients[i];
    // A +0.0 gradient (the cleared state) leaves m - lr * g equal to m
    // bit for bit, so skipping it matches updating every word.
    if (std::bit_cast<std::uint32_t>(g) == 0) return;
    float& m = master_[slice.offset + i];
    const float updated = m - lr * g;
    if (std::bit_cast<std::uint32_t>(updated) !=
        std::bit_cast<std::uint32_t>(m))
      slice.queued.push_back(i);
    m = updated;
    g = 0.0f;
  };
  const auto hidden = static_cast<std::size_t>(config_.hidden_units);
  const auto states = static_cast<std::size_t>(env_->state_count());
  const auto actions = static_cast<std::size_t>(GridWorld::action_count());
  // FC1 ([hidden][states] weights, then biases): column `state`, then
  // every bias.
  ParamSlice& fc1 = slices_[0];
  for (std::size_t o = 0; o < hidden; ++o)
    update(fc1, o * states + static_cast<std::size_t>(state));
  for (std::size_t o = 0; o < hidden; ++o) update(fc1, hidden * states + o);
  // FC2 ([actions][hidden] weights, then biases): row `action`, then
  // its bias.
  ParamSlice& fc2 = slices_[1];
  const auto row = static_cast<std::size_t>(action);
  for (std::size_t i = 0; i < hidden; ++i) update(fc2, row * hidden + i);
  update(fc2, actions * hidden + row);
}

const Tensor& MlpQAgent::evaluate(int state, bool train) {
  const Tensor* x = &fc1_->forward_one_hot(static_cast<std::size_t>(state));
  for (std::size_t i = 1; i < net_.layer_count(); ++i)
    x = train ? &net_.layer(i).forward(*x) : &net_.layer(i).infer(*x);
  return *x;
}

const Tensor& MlpQAgent::q_values(int state) {
  return evaluate(state, /*train=*/false);
}

int MlpQAgent::greedy_action(int state) {
  return static_cast<int>(q_values(state).argmax());
}

double MlpQAgent::run_training_episode(double epsilon, Rng& rng) {
  int state = env_->source_state();
  if (config_.exploring_starts) {
    for (int attempt = 0; attempt < 64; ++attempt) {
      const int candidate =
          static_cast<int>(rng.below(env_->state_count()));
      const Cell cell = env_->cell(candidate);
      if (cell == Cell::kFree || cell == Cell::kSource) {
        state = candidate;
        break;
      }
    }
  }
  double cumulative = 0.0;
  for (int step = 0; step < config_.max_steps; ++step) {
    GridWorld::StepResult result;
    double reward = 0.0;
    (void)td_step(state, epsilon, rng, result, reward);
    ++training_steps_;
    cumulative += reward;
    if (result.done) break;
    state = result.next_state;
  }
  return cumulative;
}

bool MlpQAgent::evaluate_success() {
  int state = env_->source_state();
  for (int step = 0; step < config_.max_steps; ++step) {
    const GridWorld::StepResult result =
        env_->step(state, greedy_action(state));
    if (result.done) return result.reward > 0.0;
    state = result.next_state;
  }
  return false;
}

double MlpQAgent::evaluate_return() {
  int state = env_->source_state();
  double cumulative = 0.0;
  for (int step = 0; step < config_.max_steps; ++step) {
    const GridWorld::StepResult result =
        env_->step(state, greedy_action(state));
    cumulative += result.reward;
    if (result.done) break;
    state = result.next_state;
  }
  return cumulative;
}

void MlpQAgent::set_stuck(const StuckAtMask& mask) {
  stuck_ = mask;
  queue_all();
  commit();
}

void MlpQAgent::clear_stuck() {
  stuck_ = StuckAtMask();
  queue_all();
}

void MlpQAgent::inject_transient(const FaultMap& map) {
  if (map.type() != FaultType::kTransientFlip)
    throw std::invalid_argument(
        "MlpQAgent::inject_transient: map is not transient");
  map.apply_once(weights_.words());
  stuck_.apply(weights_);
  // The upset corrupted the stored weights: propagate the faulty values
  // into the float master and the network so training continues from
  // the damage (and can heal it), exactly like retraining on faulty
  // silicon. A hit word need not round-trip (a sign flip on zero
  // stores 0x80, which decodes to 0 and encodes back to 0x00), so it
  // is queued for the next commit to re-encode, as a full commit would.
  for (const FaultSite& site : map.sites()) {
    if (site.word_index >= weights_.size()) continue;
    const auto value = static_cast<float>(weights_.get(site.word_index));
    master_[site.word_index] = value;
    for (ParamSlice& slice : slices_) {
      if (site.word_index < slice.offset ||
          site.word_index >= slice.offset + slice.params.size())
        continue;
      const std::size_t i = site.word_index - slice.offset;
      slice.params[i] = value;
      slice.queued.push_back(i);
    }
  }
}

}  // namespace ftnav
