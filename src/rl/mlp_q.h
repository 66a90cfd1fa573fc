#pragma once
// Neural-network Q-function for Grid World (paper §3.1, "NN-based
// function approximation"), quantization-aware.
//
// The policy is a small MLP (one-hot state -> hidden -> 4 Q-values).
// Inference always reads the quantized weight buffer -- the accelerator
// store that faults are injected into -- while gradient updates
// accumulate in a float master copy (straight-through quantization-
// aware training, standard practice for 8-bit training). Consequences
// that match the paper's fault semantics:
//   * transient flips corrupt the stored weights (buffer and master),
//     and training can subsequently "heal" them through new updates;
//   * stuck-at bits are re-enforced on the buffer after every write, so
//     the learner can only route around them, never overwrite them.

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/fault_model.h"
#include "core/injector.h"
#include "envs/gridworld.h"
#include "fixed/qvector.h"
#include "nn/network.h"
#include "util/rng.h"

namespace ftnav {

struct MlpQConfig {
  int hidden_units = 48;
  double learning_rate = 0.05;
  double gamma = 0.9;
  int max_steps = 100;
  /// Scales env rewards (+-1) into Q-targets so trained weights and
  /// Q-values fill the 8-bit weight format's range -- the paper's
  /// Fig. 2d histogram shows NN values spanning about [-3.75, 4.06],
  /// matching Q(1,2,5).
  double reward_scale = 3.6;
  /// Exploring starts (see TabularQConfig::exploring_starts).
  bool exploring_starts = true;
  /// Q(1,3,4) sign-magnitude: near-zero weights encode with mostly '0'
  /// bits, reproducing Fig. 2d's bit statistics (see fixed/qformat.h).
  QFormat format = QFormat::grid_world_weights();
};

class MlpQAgent {
 public:
  MlpQAgent(const GridWorld& env, MlpQConfig config, Rng& rng);
  /// The agent keeps a pointer to the env; forbid binding a temporary.
  MlpQAgent(GridWorld&&, MlpQConfig, Rng&) = delete;
  /// The agent keeps views into its network's layers. The layers are
  /// heap-owned, so a move keeps the views valid; a copy would not.
  MlpQAgent(const MlpQAgent&) = delete;
  MlpQAgent& operator=(const MlpQAgent&) = delete;
  MlpQAgent(MlpQAgent&&) = default;
  MlpQAgent& operator=(MlpQAgent&&) = default;

  const GridWorld& env() const noexcept { return *env_; }
  const MlpQConfig& config() const noexcept { return config_; }

  /// One-hot encoding of a grid state.
  Tensor encode_state(int state) const;

  /// Q-values for a state, computed from the (possibly faulty)
  /// quantized weight buffer. FC1 runs as Dense::forward_one_hot: the
  /// network only ever holds decoded words (finite, never -0.0), so
  /// this equals network().forward(encode_state(state)) bit for bit.
  /// It builds no one-hot tensor and caches nothing (the later layers
  /// run infer()). The result is FC2's output buffer, valid until the
  /// agent's next evaluation or training step.
  const Tensor& q_values(int state);
  int greedy_action(int state);

  /// One epsilon-greedy TD(0) training episode; returns cumulative
  /// (unscaled) env reward.
  double run_training_episode(double epsilon, Rng& rng);
  /// TD steps run_training_episode() has taken over the agent's life.
  std::uint64_t training_steps() const noexcept { return training_steps_; }

  bool evaluate_success();
  double evaluate_return();

  // ---- fault hooks ---------------------------------------------------
  /// Faults go through the hooks below. A word written directly into
  /// weights() is only overwritten when that word is next committed
  /// (set_stuck commits every word).
  QVector& weights() noexcept { return weights_; }
  const QVector& weights() const noexcept { return weights_; }
  void set_stuck(const StuckAtMask& mask);
  void inject_transient(const FaultMap& map);
  /// Drops the stuck bits; the buffer sheds them at the next commit.
  void clear_stuck();

  /// The float network view of the current (quantized, faulty) buffer;
  /// used to hand the trained policy to the inference engine.
  const Network& network() const noexcept { return net_; }

  std::size_t weight_count() const noexcept { return weights_.size(); }
  /// The float master weights, in weight-buffer order.
  std::span<const float> master() const noexcept { return master_; }

 private:
  /// One parametered layer's slice of the flat master/buffer order.
  struct ParamSlice {
    std::size_t offset = 0;           // first flat index of the slice
    std::span<float> params;          // the layer's parameters
    std::span<float> gradients;       // and its gradient accumulator
    std::vector<std::size_t> queued;  // slice indices awaiting commit
  };

  /// Encodes the queued master words into the buffer, re-applies the
  /// stuck bits, and decodes the queued words into their layers (the
  /// network always sees accelerator truth). Invariant between
  /// commits: every unqueued word equals stuck(encode(master)), so
  /// re-applying the mask leaves it alone and a full re-encode would
  /// change nothing.
  void commit();
  /// Queues every word for the next commit.
  void queue_all();
  /// Applies each nonzero gradient of the entries a TD step from
  /// `state` taking `action` grades (FC1 column `state`, the FC1
  /// biases, FC2 row `action` and its bias) to its float master (the
  /// same m -= lr * g as a full SGD step), clears it, and queues the
  /// words whose master bits changed. Invariant between steps: every
  /// gradient is +0.0, so the entries it skips need no visit.
  void update_masters(int state, int action);

  /// The network on one-hot `state`, FC1 as Dense::forward_one_hot:
  /// the later layers run forward() (caching what backward() grades)
  /// when `train` is set, else infer().
  const Tensor& evaluate(int state, bool train);

  /// One TD(0) step from `state`: act, learn, commit. FC1 runs
  /// Dense::forward_one_hot and Dense::backward_one_hot. Returns the
  /// action; fills the env result and reward.
  int td_step(int state, double epsilon, Rng& rng,
              GridWorld::StepResult& result, double& out_reward);

  const GridWorld* env_;
  MlpQConfig config_;
  Network net_;
  Dense* fc1_ = nullptr;  // net_'s first layer (one-hot input)
  std::vector<ParamSlice> slices_;
  std::vector<float> master_;  // float master weights (SGD accumulator)
  QVector weights_;            // quantized accelerator buffer
  StuckAtMask stuck_;
  Tensor grad_;  // a TD step's output gradient, +0.0 but for `action`
  std::uint64_t training_steps_ = 0;
};

}  // namespace ftnav
