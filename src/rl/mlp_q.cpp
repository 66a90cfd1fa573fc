#include "rl/mlp_q.h"

#include <algorithm>
#include <stdexcept>

#include "nn/kernels/kernels.h"

namespace ftnav {

namespace {

/// Entry `i` of `run`, as a run of one.
kernels::CommitRun entry_of(kernels::CommitRun run, std::size_t i) noexcept {
  run.master += i;
  run.words += i * run.word_stride;
  if (run.and_mask != nullptr) {
    run.and_mask += i * run.word_stride;
    run.or_mask += i * run.word_stride;
  }
  if (run.param != nullptr) run.param += i * run.param_stride;
  run.copy += i * run.copy_stride;
  run.n = 1;
  return run;
}

}  // namespace

MlpQAgent::MlpQAgent(const GridWorld& env, MlpQConfig config, Rng& rng)
    : env_(&env), config_(config), ops_(&kernels::active()) {
  if (config.hidden_units <= 0)
    throw std::invalid_argument("MlpQConfig: hidden_units must be positive");
  if (config.learning_rate <= 0.0)
    throw std::invalid_argument("MlpQConfig: bad learning rate");
  states_ = static_cast<std::size_t>(env.state_count());
  hidden_units_ = static_cast<std::size_t>(config.hidden_units);
  const auto actions = static_cast<std::size_t>(GridWorld::action_count());
  net_.add(std::make_unique<Dense>(env.state_count(), config.hidden_units,
                                   rng))
      .set_label("FC1");
  net_.add(std::make_unique<ReLU>());
  net_.add(std::make_unique<Dense>(config.hidden_units,
                                   GridWorld::action_count(), rng))
      .set_label("FC2");
  fc1_ = net_.layer(0).parameters();
  fc2_ = net_.layer(2).parameters();
  fc2_offset_ = fc1_.size();
  // The masters start as the initial parameters, FC1's weights
  // transposed to [states][hidden].
  master_ = net_.snapshot_parameters();
  kernels::transpose(fc1_.data(), master_.data(),
                     static_cast<int>(hidden_units_),
                     static_cast<int>(states_));
  fc1_rows_.resize((states_ + 1) * hidden_units_);
  fc2_columns_.resize((hidden_units_ + 1) * actions);
  weights_ = QVector(config.format, master_.size());
  hidden_.resize(hidden_units_);
  eval_hidden_.resize(hidden_units_);
  fc1_grad_.resize(hidden_units_);
  fc2_grad_.resize(hidden_units_);
  zeros_.assign(std::max(hidden_units_, actions), 0.0f);
  q_ = Tensor(actions);
  commit_all();
}

Tensor MlpQAgent::encode_state(int state) const {
  if (state < 0 || state >= env_->state_count())
    throw std::invalid_argument("MlpQAgent::encode_state: bad state");
  Tensor one_hot(static_cast<std::size_t>(env_->state_count()));
  one_hot[static_cast<std::size_t>(state)] = 1.0f;
  return one_hot;
}

const Network& MlpQAgent::network() const noexcept {
  if (fc1_stale_) {
    const std::size_t weights = states_ * hidden_units_;
    kernels::transpose(fc1_rows_.data(), fc1_.data(),
                       static_cast<int>(states_),
                       static_cast<int>(hidden_units_));
    std::copy_n(fc1_rows_.data() + weights, hidden_units_,
                fc1_.data() + weights);
    fc1_stale_ = false;
  }
  return net_;
}

std::span<const float> MlpQAgent::master() const {
  natural_master_ = master_;
  kernels::transpose(master_.data(), natural_master_.data(),
                     static_cast<int>(states_),
                     static_cast<int>(hidden_units_));
  return natural_master_;
}

kernels::CommitRun MlpQAgent::run_at(std::size_t word,
                                     std::size_t word_stride, float* master,
                                     float* param, std::size_t param_stride,
                                     float* copy, std::size_t copy_stride,
                                     std::size_t n) noexcept {
  kernels::CommitRun run;
  run.master = master;
  run.words = weights_.words().data() + word;
  if (!stuck_and_.empty()) {
    run.and_mask = stuck_and_.data() + word;
    run.or_mask = stuck_or_.data() + word;
  }
  run.word_stride = word_stride;
  run.param = param;
  run.param_stride = param_stride;
  run.copy = copy;
  run.copy_stride = copy_stride;
  run.n = n;
  return run;
}

kernels::CommitRun MlpQAgent::fc1_run(std::size_t state) noexcept {
  const std::size_t row = state * hidden_units_;
  float* master = master_.data() + row;
  float* copy = fc1_rows_.data() + row;
  if (state == states_)  // the biases: contiguous in every buffer
    return run_at(row, 1, master, nullptr, 1, copy, 1, hidden_units_);
  return run_at(state, states_, master, nullptr, 1, copy, 1, hidden_units_);
}

kernels::CommitRun MlpQAgent::fc2_run(std::size_t action) noexcept {
  const auto actions = static_cast<std::size_t>(GridWorld::action_count());
  const std::size_t row = action * hidden_units_;
  float* master = master_.data() + fc2_offset_ + row;
  if (action == actions)  // the biases: the copy's last row
    return run_at(fc2_offset_ + row, 1, master, fc2_.data() + row, 1,
                  fc2_columns_.data() + row, 1, actions);
  return run_at(fc2_offset_ + row, 1, master, fc2_.data() + row, 1,
                fc2_columns_.data() + action, actions, hidden_units_);
}

kernels::CommitRun MlpQAgent::word_entry(std::size_t word) noexcept {
  const auto actions = static_cast<std::size_t>(GridWorld::action_count());
  const std::size_t fc1_weights = states_ * hidden_units_;
  if (word < fc1_weights)  // natural [hidden][states]
    return entry_of(fc1_run(word % states_), word / states_);
  if (word < fc2_offset_) return entry_of(fc1_run(states_), word - fc1_weights);
  const std::size_t k = word - fc2_offset_;
  if (k < actions * hidden_units_)
    return entry_of(fc2_run(k / hidden_units_), k % hidden_units_);
  return entry_of(fc2_run(actions), k - actions * hidden_units_);
}

void MlpQAgent::commit(kernels::CommitRun run, const float* grad) noexcept {
  if (run.param == nullptr) fc1_stale_ = true;
  run.grad = grad;
  ops_->sgd_commit(run, static_cast<float>(config_.learning_rate),
                   weights_.format());
}

void MlpQAgent::commit_all() noexcept {
  const auto actions = static_cast<std::size_t>(GridWorld::action_count());
  for (std::size_t state = 0; state <= states_; ++state)
    commit(fc1_run(state), zeros_.data());
  for (std::size_t action = 0; action <= actions; ++action)
    commit(fc2_run(action), zeros_.data());
  queued_.clear();
  recommit_all_ = false;
}

const Tensor& MlpQAgent::forward(int state, float* hidden) noexcept {
  // FC1 on a one-hot input: the generic chain bias + sum w * x adds
  // +-0 for every cold input, which leaves a finite, non-(-0.0) sum
  // as it is, so bias + w is that chain's result.
  const float* column =
      fc1_rows_.data() + static_cast<std::size_t>(state) * hidden_units_;
  const float* bias = fc1_rows_.data() + states_ * hidden_units_;
  for (std::size_t o = 0; o < hidden_units_; ++o) {
    const float x = bias[o] + column[o];
    hidden[o] = x > 0.0f ? x : 0.0f;
  }
  const auto actions = static_cast<int>(q_.size());
  ops_->dense(fc2_.data(),
              ops_->dense_wants_transposed ? fc2_columns_.data() : nullptr,
              fc2_columns_.data() + hidden_units_ * q_.size(), hidden,
              q_.data(), static_cast<int>(hidden_units_), actions);
  return q_;
}

const Tensor& MlpQAgent::q_values(int state) {
  if (state < 0 || static_cast<std::size_t>(state) >= states_)
    throw std::invalid_argument("MlpQAgent::q_values: bad state");
  return forward(state, eval_hidden_.data());
}

int MlpQAgent::greedy_action(int state) {
  return static_cast<int>(q_values(state).argmax());
}

int MlpQAgent::td_step(int state, double epsilon, Rng& rng,
                       GridWorld::StepResult& result, double& out_reward) {
  const Tensor& q = forward(state, hidden_.data());
  const int action =
      rng.bernoulli(epsilon)
          ? static_cast<int>(rng.below(GridWorld::action_count()))
          : static_cast<int>(q.argmax());
  // `q` is the agent's Q buffer, which the bootstrap overwrites.
  const float q_action = q[static_cast<std::size_t>(action)];
  result = env_->step(state, action);
  out_reward = result.reward;

  double target = result.reward * config_.reward_scale;
  if (!result.done)
    target += config_.gamma *
              static_cast<double>(q_values(result.next_state).max_value());
  const auto g = static_cast<float>(static_cast<double>(q_action) - target);
  // The backward's one term per graded entry: g times the FC2 input
  // for FC2's row, and for FC1's column and biases the ReLU-masked
  // input gradient, 0.0f + g * W2[action][o] (the generic backward adds
  // it onto a +0.0 buffer). A zero g makes every term +-0, which the
  // commit's 0.0f + turns into the +0.0 gradient the backward leaves.
  const auto a = static_cast<std::size_t>(action);
  const float* fc2_row = fc2_.data() + a * hidden_units_;
  for (std::size_t o = 0; o < hidden_units_; ++o) {
    fc2_grad_[o] = g * hidden_[o];
    fc1_grad_[o] = hidden_[o] > 0.0f ? 0.0f + g * fc2_row[o] : 0.0f;
  }
  // Straight-through update: the gradients w.r.t. the quantized weights
  // update the float masters, which are re-quantized into the buffer.
  commit(fc1_run(static_cast<std::size_t>(state)), fc1_grad_.data());
  commit(fc1_run(states_), fc1_grad_.data());
  commit(fc2_run(a), fc2_grad_.data());
  commit(entry_of(fc2_run(q_.size()), a), &g);
  if (recommit_all_) {
    commit_all();
  } else if (!queued_.empty()) {
    for (const std::uint32_t word : queued_)
      commit(word_entry(word), zeros_.data());
    queued_.clear();
  }
  return action;
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
  if (mask.empty()) {
    stuck_and_.clear();
    stuck_or_.clear();
  } else {
    stuck_and_.assign(weights_.size(), ~Word{0});
    stuck_or_.assign(weights_.size(), Word{0});
    mask.scatter(stuck_and_, stuck_or_);
  }
  commit_all();
}

void MlpQAgent::clear_stuck() {
  stuck_and_.clear();
  stuck_or_.clear();
  recommit_all_ = true;
}

void MlpQAgent::inject_transient(const FaultMap& map) {
  if (map.type() != FaultType::kTransientFlip)
    throw std::invalid_argument(
        "MlpQAgent::inject_transient: map is not transient");
  const std::span<Word> words = weights_.words();
  map.apply_once(words);
  // The upset corrupted the stored weights: propagate the faulty values
  // into the float master and the decoded copies (FC1's network
  // parameters follow at the next network() call) so training
  // continues from the damage (and can heal it), exactly like
  // retraining on faulty silicon. Every other word already holds its
  // stuck bits. A hit word need not round-trip (a sign flip on zero
  // stores 0x80, which decodes to 0 and encodes back to 0x00), so it is
  // queued for the next commit to re-encode, as a full commit would.
  for (const FaultSite& site : map.sites()) {
    const std::size_t k = site.word_index;
    if (k >= words.size()) continue;
    if (!stuck_and_.empty()) words[k] = (words[k] & stuck_and_[k]) | stuck_or_[k];
    const auto value = static_cast<float>(weights_.format().decode(words[k]));
    const kernels::CommitRun entry = word_entry(k);
    *entry.master = value;
    if (entry.param != nullptr)
      *entry.param = value;
    else
      fc1_stale_ = true;
    *entry.copy = value;
    queued_.push_back(site.word_index);
  }
}

}  // namespace ftnav
