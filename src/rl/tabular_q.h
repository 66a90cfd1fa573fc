#pragma once
// Tabular Q-learning on a quantized Q-table (paper §3.1 / §4.1).
//
// The Q-function lives in a QVector of |S| x |A| fixed-point words --
// the "data buffer storing tabular values" of the paper's fault model.
// Training performs the Bellman backup (Eq. 4) with epsilon-greedy
// exploration; inference follows the greedy policy (Eq. 5). Faults are
// bit operations on the table: transient flips are injected once, and a
// StuckAtMask is re-enforced after every table write so permanent
// faults survive training updates.

#include "core/fault_model.h"
#include "core/injector.h"
#include "envs/gridworld.h"
#include "fixed/qvector.h"
#include "util/rng.h"

namespace ftnav {

class RangeAnomalyDetector;

/// Greedy action of a Q-table stored [state][action]: the first action
/// of the largest value. With a detector, each read passes through its
/// filter first (paper §5.2: an out-of-range value reads as zero).
int greedy_action(const QVector& table, int state,
                  RangeAnomalyDetector* detector = nullptr);

struct TabularQConfig {
  /// alpha = 1 is the exact Bellman replacement -- optimal for this
  /// deterministic MDP -- and doubly necessary on an 8-bit table:
  /// blended updates of magnitude alpha*|TD error| below half a
  /// resolution step round to nothing, freezing shallow value plateaus
  /// (and corrupted phantom values) mid-propagation.
  double learning_rate = 1.0;
  double gamma = 0.9;
  int max_steps = 100;  ///< per-episode step cap
  /// Scales env rewards (+-1) into Q-targets so trained table values
  /// fill the 8-bit Q(1,3,4) range shown in the paper's Fig. 2b.
  double reward_scale = 8.0;
  /// Exploring starts: training episodes begin at a uniformly random
  /// free cell so the sparse goal reward is discoverable and the whole
  /// table receives value estimates. Evaluation always starts at the
  /// source.
  bool exploring_starts = true;
  QFormat format = QFormat::grid_world_8bit();
};

class TabularQAgent {
 public:
  TabularQAgent(const GridWorld& env, TabularQConfig config = {});
  /// The agent keeps a pointer to the env; forbid binding a temporary.
  TabularQAgent(GridWorld&&, TabularQConfig = {}) = delete;

  const GridWorld& env() const noexcept { return *env_; }
  const TabularQConfig& config() const noexcept { return config_; }

  double q(int state, int action) const;
  void set_q(int state, int action, double value);
  int greedy_action(int state) const;

  /// One epsilon-greedy training episode; returns the cumulative reward.
  double run_training_episode(double epsilon, Rng& rng);

  // ---- fault hooks ---------------------------------------------------
  QVector& table() noexcept { return table_; }
  const QVector& table() const noexcept { return table_; }
  /// Installs (replacing) the permanent-fault overlay and enforces it.
  void set_stuck(const StuckAtMask& mask);
  /// Flips the map's bits in the table once (transient upset).
  void inject_transient(const FaultMap& map);
  /// Drops the permanent overlay (the table keeps its current values).
  void clear_stuck() { stuck_ = StuckAtMask(); }

 private:
  std::size_t index(int state, int action) const noexcept {
    return static_cast<std::size_t>(state) *
               static_cast<std::size_t>(GridWorld::action_count()) +
           static_cast<std::size_t>(action);
  }
  double max_q(int state) const;

  const GridWorld* env_;
  TabularQConfig config_;
  QVector table_;
  StuckAtMask stuck_;
};

}  // namespace ftnav
