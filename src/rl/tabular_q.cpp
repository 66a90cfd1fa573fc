#include "rl/tabular_q.h"

#include <stdexcept>

#include "core/anomaly_detector.h"

namespace ftnav {

int greedy_action(const QVector& table, int state,
                  RangeAnomalyDetector* detector) {
  const std::size_t row = static_cast<std::size_t>(state) *
                          static_cast<std::size_t>(GridWorld::action_count());
  int best = 0;
  double best_value = 0.0;
  for (int a = 0; a < GridWorld::action_count(); ++a) {
    double value = table.get(row + static_cast<std::size_t>(a));
    if (detector != nullptr)
      value = detector->filter(0, static_cast<float>(value));
    if (a == 0 || value > best_value) {
      best_value = value;
      best = a;
    }
  }
  return best;
}

TabularQAgent::TabularQAgent(const GridWorld& env, TabularQConfig config)
    : env_(&env),
      config_(config),
      table_(config.format,
             static_cast<std::size_t>(env.state_count()) *
                 static_cast<std::size_t>(GridWorld::action_count())) {
  if (config.learning_rate <= 0.0 || config.learning_rate > 1.0)
    throw std::invalid_argument("TabularQConfig: bad learning rate");
  if (config.gamma <= 0.0 || config.gamma >= 1.0)
    throw std::invalid_argument("TabularQConfig: gamma outside (0,1)");
  if (config.max_steps <= 0)
    throw std::invalid_argument("TabularQConfig: max_steps must be positive");
}

double TabularQAgent::q(int state, int action) const {
  return table_.get(index(state, action));
}

void TabularQAgent::set_q(int state, int action, double value) {
  table_.set(index(state, action), value);
  stuck_.apply(table_);
}

double TabularQAgent::max_q(int state) const {
  double best = q(state, 0);
  for (int a = 1; a < GridWorld::action_count(); ++a)
    best = std::max(best, q(state, a));
  return best;
}

int TabularQAgent::greedy_action(int state) const {
  return ftnav::greedy_action(table_, state);
}

double TabularQAgent::run_training_episode(double epsilon, Rng& rng) {
  int state = env_->source_state();
  if (config_.exploring_starts) {
    // Draw a random non-terminal cell as the episode start.
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
    // Greedy with random tie-breaking: in regions the value function
    // has not reached yet all actions tie at zero, and a deterministic
    // tie-break would pin the agent against a wall instead of walking.
    int greedy = 0;
    {
      double best_value = q(state, 0);
      int ties = 1;
      for (int a = 1; a < GridWorld::action_count(); ++a) {
        const double value = q(state, a);
        if (value > best_value) {
          best_value = value;
          greedy = a;
          ties = 1;
        } else if (value == best_value) {
          ++ties;
          if (rng.below(static_cast<std::uint64_t>(ties)) == 0) greedy = a;
        }
      }
    }
    const int action =
        rng.bernoulli(epsilon)
            ? static_cast<int>(rng.below(GridWorld::action_count()))
            : greedy;
    const GridWorld::StepResult result = env_->step(state, action);
    cumulative += result.reward;
    // Bellman backup (Eq. 4), written through the quantized table.
    const double target =
        result.reward * config_.reward_scale +
        (result.done ? 0.0 : config_.gamma * max_q(result.next_state));
    const double updated =
        q(state, action) +
        config_.learning_rate * (target - q(state, action));
    set_q(state, action, updated);
    if (result.done) break;
    state = result.next_state;
  }
  return cumulative;
}

void TabularQAgent::set_stuck(const StuckAtMask& mask) {
  stuck_ = mask;
  stuck_.apply(table_);
}

void TabularQAgent::inject_transient(const FaultMap& map) {
  if (map.type() != FaultType::kTransientFlip)
    throw std::invalid_argument(
        "TabularQAgent::inject_transient: map is not transient");
  map.apply_once(table_.words());
  // Stuck cells dominate whatever the upset wrote into them.
  stuck_.apply(table_);
}

}  // namespace ftnav
