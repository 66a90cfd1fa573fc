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
//   * stuck-at bits are re-enforced on every word a commit writes, so
//     the learner can only route around them, never overwrite them.
//
// A TD step grades about 145 entries: FC1's weight column `state`, the
// FC1 biases, FC2's row `action` and its bias. Each gets exactly one
// backward term onto a +0.0 gradient, so the agent keeps no gradient
// buffers: it computes the terms into scratch and hands each run to the
// kernel backend's sgd_commit slot, which updates the masters, encodes
// them, applies each word's stuck bits and decodes the words into the
// agent's copies (and FC2's into the network) in one pass. FC1's
// masters and copy are state-major ([state][hidden]), so the column a
// step reads and grades is contiguous; the word store keeps natural
// order and is written strided, and FC1's network parameters are
// written from the copy only when network() is asked for them.

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

namespace kernels {
struct CommitRun;
struct KernelOps;
}  // namespace kernels

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
  /// quantized weight buffer: FC1 as its decoded column `state` plus
  /// its biases, then ReLU and FC2 through the kernel backend's dense
  /// slot. Decoded words are finite and never -0.0, so this equals
  /// network().forward(encode_state(state)) bit for bit. The result is
  /// the agent's own 4-value buffer, valid until its next evaluation
  /// or training step.
  const Tensor& q_values(int state);
  int greedy_action(int state);

  /// One epsilon-greedy TD(0) training episode; returns cumulative
  /// (unscaled) env reward.
  double run_training_episode(double epsilon, Rng& rng);
  /// TD steps run_training_episode() has taken over the agent's life.
  std::uint64_t training_steps() const noexcept { return training_steps_; }

  /// Return of the greedy rollout from the source (GridWorld::rollout).
  /// perfbench/ times it; the drivers evaluate through GridAgentHandle.
  double evaluate_return();

  // ---- fault hooks ---------------------------------------------------
  /// The accelerator store, in natural order (FC1 [hidden][states]
  /// weights, FC1 biases, FC2 [actions][hidden] weights, FC2 biases):
  /// FaultMap sites index it. Current after every step. Faults go
  /// through the hooks below; a word written directly into it is only
  /// overwritten when that word is next committed (a step commits the
  /// words it grades, set_stuck every word).
  QVector& weights() noexcept { return weights_; }
  const QVector& weights() const noexcept { return weights_; }
  /// Sticks the mask's bits and commits every word. From then on a
  /// commit applies them to each word it writes, and only to those:
  /// every other word already holds them.
  void set_stuck(const StuckAtMask& mask);
  void inject_transient(const FaultMap& map);
  /// Drops the stuck bits; the buffer sheds them at the next commit.
  void clear_stuck();

  /// The float network view of the current (quantized, faulty) buffer,
  /// in natural order; used to hand the trained policy to the inference
  /// engine. It is written when called, not after every step: a call
  /// after a commit or fault hook changed FC1 first writes FC1's
  /// parameters from the agent's state-major copy (FC2's are written by
  /// every commit). The reference is valid until the next step or fault
  /// hook. Do not call it concurrently on one agent. The agent never
  /// runs the network and never touches its gradients, which stay +0.0.
  const Network& network() const noexcept;

  std::size_t weight_count() const noexcept { return weights_.size(); }
  /// The float master weights in weight-buffer (natural) order: a copy
  /// of the state-major masters that each call refreshes, held in the
  /// agent until its next master() call.
  std::span<const float> master() const;

 private:
  /// A commit run over the agent's storage (see kernels::CommitRun)
  /// whose first word is `word`, with the stuck masks when any bit is
  /// stuck.
  kernels::CommitRun run_at(std::size_t word, std::size_t word_stride,
                            float* master, float* param,
                            std::size_t param_stride, float* copy,
                            std::size_t copy_stride, std::size_t n) noexcept;
  /// FC1's weight column `state` (its biases for state == state count).
  kernels::CommitRun fc1_run(std::size_t state) noexcept;
  /// FC2's weight row `action` (its biases for action == action count).
  kernels::CommitRun fc2_run(std::size_t action) noexcept;
  /// The one entry of natural word index `word`.
  kernels::CommitRun word_entry(std::size_t word) noexcept;
  /// Runs the backend's SGD commit over `run` with gradient terms
  /// `grad` (n values). A run without a network parameter output (FC1)
  /// marks FC1's network parameters stale.
  void commit(kernels::CommitRun run, const float* grad) noexcept;
  /// Commits every word with a +0.0 gradient, which re-encodes each
  /// master unchanged, and empties the queue.
  void commit_all() noexcept;

  /// The network on one-hot `state`: ReLU activations into `hidden`
  /// (hidden_units values), Q-values into q_, which it returns.
  const Tensor& forward(int state, float* hidden) noexcept;

  /// One TD(0) step from `state`: act, learn, commit. Returns the
  /// action; fills the env result and reward.
  int td_step(int state, double epsilon, Rng& rng,
              GridWorld::StepResult& result, double& out_reward);

  // Storage. The agent runs the network from its own copies: FC1
  // state-major, so a step's column is contiguous, and FC2 transposed
  // for the dense slot. Invariant between steps: every word not queued
  // equals stuck(encode(master)), its copy equals decode(word), and so
  // does its network parameter unless it is FC1's and fc1_stale_ is
  // set.
  const GridWorld* env_;
  MlpQConfig config_;
  const kernels::KernelOps* ops_;  // the backend active at construction
  std::size_t states_ = 0;
  std::size_t hidden_units_ = 0;
  std::size_t fc2_offset_ = 0;  // FC2's first word
  Network net_;
  std::span<float> fc1_;  // FC1's parameters: [hidden][states], biases
  /// fc1_ lags fc1_rows_: network() rewrites it before returning.
  mutable bool fc1_stale_ = false;
  std::span<float> fc2_;  // FC2's parameters: [actions][hidden], biases
  /// Float masters (the SGD accumulator): FC1 as [states][hidden], then
  /// the FC1 biases, FC2 and its biases in natural order.
  std::vector<float> master_;
  std::vector<float> fc1_rows_;     // decoded FC1, [states + 1][hidden]
  std::vector<float> fc2_columns_;  // decoded FC2, [hidden + 1][actions]
  QVector weights_;                 // quantized accelerator buffer
  /// Per-word stuck masks in natural order; empty when no bit is stuck.
  std::vector<Word> stuck_and_;
  std::vector<Word> stuck_or_;
  std::vector<std::uint32_t> queued_;  // words the next commit re-encodes
  bool recommit_all_ = false;          // every word is queued
  // A step's scratch: the probe's activations, the ungraded
  // evaluations' activations, and the FC1 and FC2-row gradient terms.
  std::vector<float> hidden_;
  std::vector<float> eval_hidden_;
  std::vector<float> fc1_grad_;
  std::vector<float> fc2_grad_;
  std::vector<float> zeros_;  // +0.0 gradients for re-encoding commits
  Tensor q_;                  // the last forward's Q-values
  mutable std::vector<float> natural_master_;  // master()'s copy
  std::uint64_t training_steps_ = 0;
};

}  // namespace ftnav
