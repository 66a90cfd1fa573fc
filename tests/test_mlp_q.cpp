// Tests for the quantization-aware MLP Q-agent.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "nn/kernels/kernels.h"
#include "rl/mlp_q.h"

// Counts every global operator new while armed, for
// MlpQ.SteadyStateTrainingAllocatesNothing. The replacement covers the
// whole test binary; disarmed it only forwards to malloc/free.
namespace {
std::atomic<bool> g_count_allocations{false};
std::atomic<std::size_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  if (g_count_allocations.load(std::memory_order_relaxed))
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace ftnav {
namespace {

GridWorld simple_world() {
  return GridWorld({
      "S...",
      ".X..",
      "....",
      "...G",
  });
}

MlpQAgent train_agent(const GridWorld& world, int episodes,
                      std::uint64_t seed) {
  Rng rng(seed);
  MlpQAgent agent(world, MlpQConfig{}, rng);
  for (int episode = 0; episode < episodes; ++episode) {
    const double epsilon =
        std::max(0.05, 1.0 - static_cast<double>(episode) / (episodes * 0.6));
    agent.run_training_episode(epsilon, rng);
  }
  return agent;
}

/// Bit patterns of floats, so comparisons tell -0.0 from +0.0.
std::vector<std::uint32_t> bits_of(std::span<const float> values) {
  std::vector<std::uint32_t> bits;
  for (const float v : values) bits.push_back(std::bit_cast<std::uint32_t>(v));
  return bits;
}

TEST(MlpQ, RejectsBadConfig) {
  const GridWorld world = simple_world();
  Rng rng(1);
  MlpQConfig config;
  config.hidden_units = 0;
  EXPECT_THROW(MlpQAgent(world, config, rng), std::invalid_argument);
  config = MlpQConfig{};
  config.learning_rate = -1.0;
  EXPECT_THROW(MlpQAgent(world, config, rng), std::invalid_argument);
}

TEST(MlpQ, OneHotEncoding) {
  const GridWorld world = simple_world();
  Rng rng(2);
  MlpQAgent agent(world, MlpQConfig{}, rng);
  const Tensor state = agent.encode_state(5);
  EXPECT_EQ(state.size(), 16u);
  for (std::size_t i = 0; i < state.size(); ++i)
    EXPECT_EQ(state[i], i == 5 ? 1.0f : 0.0f);
  EXPECT_THROW(agent.encode_state(-1), std::invalid_argument);
  EXPECT_THROW(agent.encode_state(16), std::invalid_argument);
}

TEST(MlpQ, NetworkParametersAreFormatRepresentable) {
  // The forward pass must read accelerator truth: every parameter the
  // network computes with is exactly representable in the buffer format.
  const GridWorld world = simple_world();
  Rng rng(3);
  MlpQAgent agent(world, MlpQConfig{}, rng);
  const QFormat fmt = agent.weights().format();
  for (float p : agent.network().snapshot_parameters())
    EXPECT_FLOAT_EQ(p, static_cast<float>(fmt.decode(fmt.encode(p))));
}

TEST(MlpQ, LearnsSimpleWorld) {
  const GridWorld world = simple_world();
  MlpQAgent agent = train_agent(world, 250, 5);
  EXPECT_TRUE(agent.evaluate_success());
  EXPECT_GT(agent.evaluate_return(), 0.0);
}

TEST(MlpQ, WeightsStayInFormatRange) {
  const GridWorld world = simple_world();
  MlpQAgent agent = train_agent(world, 150, 7);
  const QFormat fmt = agent.weights().format();
  for (std::size_t i = 0; i < agent.weights().size(); ++i) {
    EXPECT_GE(agent.weights().get(i), fmt.min_value());
    EXPECT_LE(agent.weights().get(i), fmt.max_value());
  }
}

TEST(MlpQ, TransientInjectionCorruptsAndTrainingHeals) {
  const GridWorld world = simple_world();
  MlpQAgent agent = train_agent(world, 400, 9);
  ASSERT_TRUE(agent.evaluate_success());
  Rng rng(11);
  const FaultMap map = FaultMap::sample(
      FaultType::kTransientFlip, 0.02, agent.weights().size(),
      agent.weights().format().total_bits(), rng);
  agent.inject_transient(map);
  // Re-train; the NN approach recovers (paper Fig. 3b). Quantized TD
  // training is jittery, so accept recovery at any checkpoint.
  bool healed = false;
  for (int episode = 0; episode < 500 && !healed; ++episode) {
    agent.run_training_episode(0.2, rng);
    if (episode >= 100 && episode % 25 == 0) healed = agent.evaluate_success();
  }
  EXPECT_TRUE(healed);
}

TEST(MlpQ, StuckBitsSurviveTrainingUpdates) {
  const GridWorld world = simple_world();
  Rng rng(13);
  MlpQAgent agent(world, MlpQConfig{}, rng);
  const int sign_bit = agent.weights().format().sign_bit();
  const StuckAtMask mask = StuckAtMask::compile(FaultMap(
      FaultType::kStuckAt1,
      {FaultSite{3, static_cast<std::uint8_t>(sign_bit)}}));
  agent.set_stuck(mask);
  for (int episode = 0; episode < 30; ++episode)
    agent.run_training_episode(0.5, rng);
  EXPECT_TRUE(get_bit(agent.weights().word(3), sign_bit));
  EXPECT_LT(agent.weights().get(3), 0.0);
}

TEST(MlpQ, NetworkViewMatchesBuffer) {
  const GridWorld world = simple_world();
  MlpQAgent agent = train_agent(world, 60, 15);
  const auto params = agent.network().snapshot_parameters();
  ASSERT_EQ(params.size(), agent.weights().size());
  for (std::size_t i = 0; i < params.size(); ++i)
    EXPECT_FLOAT_EQ(params[i],
                    static_cast<float>(agent.weights().get(i)));
}

TEST(MlpQ, FullRecommitChangesNothing) {
  // A TD step commits the words it grades (FC1's column and biases,
  // FC2's row and its bias), changed or not, plus the words a fault hook
  // queued; every other word must already equal stuck(encode(master)).
  // After any episode a full re-encode (set_stuck with the current mask
  // re-commits every word) must therefore leave the buffer and the
  // network untouched -- also after a sign flip on zero words, which
  // stores 0x80: it decodes to 0 but re-encodes to 0x00, so only a
  // queued re-commit repairs it; and after clear_stuck, whose stuck
  // bits every word must shed.
  const GridWorld world = simple_world();
  Rng rng(23);
  MlpQAgent agent(world, MlpQConfig{}, rng);
  const QFormat fmt = agent.weights().format();
  const auto sign_bit = static_cast<std::uint8_t>(fmt.sign_bit());
  StuckAtMask mask;
  constexpr int kEpisodes = 120;
  for (int episode = 0; episode < kEpisodes; ++episode) {
    if (episode == 30) {
      std::vector<FaultSite> sites;
      for (std::size_t i = 0; i < agent.weights().size(); ++i)
        if (agent.weights().word(i) == 0)
          sites.push_back(FaultSite{static_cast<std::uint32_t>(i), sign_bit});
      ASSERT_FALSE(sites.empty());
      agent.inject_transient(FaultMap(FaultType::kTransientFlip, sites));
    }
    if (episode == 60) {
      Rng fault_rng(29);
      mask = StuckAtMask::compile(
          FaultMap::sample(FaultType::kStuckAt1, 0.01, agent.weights().size(),
                           fmt.total_bits(), fault_rng));
      agent.set_stuck(mask);
    }
    if (episode == 90) {
      mask = StuckAtMask();
      agent.clear_stuck();
    }
    agent.run_training_episode(
        std::max(0.05, 1.0 - episode / (kEpisodes * 0.6)), rng);
    const std::vector<Word> words(agent.weights().words().begin(),
                                  agent.weights().words().end());
    const auto params = bits_of(agent.network().snapshot_parameters());
    agent.set_stuck(mask);
    const std::vector<Word> recommitted(agent.weights().words().begin(),
                                        agent.weights().words().end());
    ASSERT_EQ(words, recommitted) << "episode " << episode;
    ASSERT_EQ(params, bits_of(agent.network().snapshot_parameters()))
        << "episode " << episode;
  }
}

TEST(MlpQ, NetworkIsCurrentWhenAsked) {
  // A step commits FC1 only into the agent's state-major copy, and
  // network() writes FC1's parameters from it when asked. With one TD
  // step per episode, the network must be the natural-order decode of
  // the store at each point below, with no step in between where none
  // is listed: after a step, after a flip of an FC1 column word and an
  // FC1 bias, after set_stuck, and after clear_stuck plus one step.
  const GridWorld world = GridWorld::preset(ObstacleDensity::kMiddle);
  Rng rng(79);
  MlpQConfig config;
  config.max_steps = 1;
  MlpQAgent agent(world, config, rng);
  const QFormat fmt = agent.weights().format();
  const auto states = static_cast<std::size_t>(world.state_count());
  const auto hidden = static_cast<std::size_t>(config.hidden_units);
  const auto expect_current = [&](const char* when) {
    std::vector<float> decoded(agent.weight_count());
    agent.weights().decode_into(decoded);
    ASSERT_EQ(bits_of(agent.network().snapshot_parameters()),
              bits_of(decoded))
        << when;
  };
  for (int episode = 0; episode < 200; ++episode)
    agent.run_training_episode(0.5, rng);
  agent.run_training_episode(0.5, rng);
  expect_current("after a step");
  // An FC1 column word (hidden unit 5 of state 17) and an FC1 bias
  // (unit 9), each flipped in its top magnitude bit.
  const auto bit = static_cast<std::uint8_t>(fmt.sign_bit() - 1);
  agent.inject_transient(FaultMap(
      FaultType::kTransientFlip,
      {FaultSite{static_cast<std::uint32_t>(5 * states + 17), bit},
       FaultSite{static_cast<std::uint32_t>(states * hidden + 9), bit}}));
  expect_current("after inject_transient");
  Rng fault_rng(83);
  agent.set_stuck(StuckAtMask::compile(
      FaultMap::sample(FaultType::kStuckAt1, 0.01, agent.weight_count(),
                       fmt.total_bits(), fault_rng)));
  expect_current("after set_stuck");
  agent.clear_stuck();
  agent.run_training_episode(0.5, rng);
  expect_current("after clear_stuck and a step");
}

TEST(MlpQ, GradientsAreClearAfterEveryStep) {
  // A TD step's master update visits only the entries the step graded,
  // which is right only while every other gradient is +0.0: each step
  // must clear every gradient it wrote, through transient flips, a
  // stuck-at mask and clear_stuck.
  const GridWorld world = simple_world();
  Rng rng(41);
  MlpQAgent agent(world, MlpQConfig{}, rng);
  const QFormat fmt = agent.weights().format();
  std::vector<float> grads(agent.weight_count());
  constexpr int kEpisodes = 90;
  for (int episode = 0; episode < kEpisodes; ++episode) {
    Rng fault_rng(43 + static_cast<std::uint64_t>(episode));
    if (episode == 20 || episode == 50)
      agent.inject_transient(
          FaultMap::sample(FaultType::kTransientFlip, 0.02,
                           agent.weight_count(), fmt.total_bits(), fault_rng));
    if (episode == 30)
      agent.set_stuck(StuckAtMask::compile(
          FaultMap::sample(FaultType::kStuckAt1, 0.01, agent.weight_count(),
                           fmt.total_bits(), fault_rng)));
    if (episode == 60) agent.clear_stuck();
    agent.run_training_episode(
        std::max(0.05, 1.0 - episode / (kEpisodes * 0.6)), rng);
    agent.network().copy_gradients_into(grads);
    ASSERT_EQ(bits_of(grads), std::vector<std::uint32_t>(grads.size(), 0))
        << "episode " << episode;
  }
}

TEST(MlpQ, OneHotForwardMatchesGenericForward) {
  // q_values runs FC1 as one weight column; the generic mat-vec over the
  // same (faulty) network is the reference, compared bit for bit.
  const GridWorld world = simple_world();
  MlpQAgent agent = train_agent(world, 150, 31);
  Rng fault_rng(37);
  const QFormat fmt = agent.weights().format();
  agent.set_stuck(StuckAtMask::compile(
      FaultMap::sample(FaultType::kStuckAt1, 0.01, agent.weights().size(),
                       fmt.total_bits(), fault_rng)));
  // Injected last, so the flipped words are still in the buffer.
  agent.inject_transient(
      FaultMap::sample(FaultType::kTransientFlip, 0.05, agent.weights().size(),
                       fmt.total_bits(), fault_rng));
  Network reference(agent.network());
  for (int s = 0; s < world.state_count(); ++s) {
    const Tensor fast = agent.q_values(s);
    const Tensor generic = reference.forward(agent.encode_state(s));
    EXPECT_EQ(bits_of(fast.values()), bits_of(generic.values()))
        << "state " << s;
  }
}

/// MlpQAgent's TD training as it ran before the cache-free bootstrap
/// and the reusable layer buffers: per step three full forwards through
/// generic layers on a one-hot tensor (probe, bootstrap, and a re-forward
/// of `state` that refills the caches backward reads), each result
/// copied, a full backward, an SGD step over every master entry, and a
/// commit that re-encodes and decodes every word. Starts from a copy of
/// `agent`'s state and consumes the rng exactly as the agent does.
class ThreeForwardReference {
 public:
  explicit ThreeForwardReference(const MlpQAgent& agent)
      : env_(&agent.env()),
        config_(agent.config()),
        net_(agent.network()),
        master_(agent.master().begin(), agent.master().end()),
        weights_(agent.weights()) {}

  std::span<const float> master() const noexcept { return master_; }
  const QVector& weights() const noexcept { return weights_; }
  const Network& network() const noexcept { return net_; }

  void run_training_episode(double epsilon, Rng& rng) {
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
    for (int step = 0; step < config_.max_steps; ++step) {
      const GridWorld::StepResult result = td_step(state, epsilon, rng);
      if (result.done) break;
      state = result.next_state;
    }
  }

  void set_stuck(const StuckAtMask& mask) {
    stuck_ = mask;
    commit();
  }
  /// As MlpQAgent::clear_stuck: the words shed the bits at the next
  /// commit.
  void clear_stuck() { stuck_ = StuckAtMask(); }

  void inject_transient(const FaultMap& map) {
    map.apply_once(weights_.words());
    stuck_.apply(weights_);
    for (const FaultSite& site : map.sites())
      if (site.word_index < weights_.size())
        master_[site.word_index] =
            static_cast<float>(weights_.get(site.word_index));
    decode_into_network();
  }

 private:
  Tensor q_values(int state) {
    Tensor x(static_cast<std::size_t>(env_->state_count()));
    x[static_cast<std::size_t>(state)] = 1.0f;
    for (std::size_t i = 0; i < net_.layer_count(); ++i)
      x = net_.layer(i).forward(x);
    return x;
  }

  GridWorld::StepResult td_step(int state, double epsilon, Rng& rng) {
    const Tensor q_probe = q_values(state);
    const int action =
        rng.bernoulli(epsilon)
            ? static_cast<int>(rng.below(GridWorld::action_count()))
            : static_cast<int>(q_probe.argmax());
    const GridWorld::StepResult result = env_->step(state, action);
    double target = result.reward * config_.reward_scale;
    if (!result.done) {
      const Tensor next_q = q_values(result.next_state);
      target += config_.gamma * static_cast<double>(next_q.max_value());
    }
    const Tensor q = q_values(state);
    Tensor grad(static_cast<std::size_t>(GridWorld::action_count()));
    grad[static_cast<std::size_t>(action)] = static_cast<float>(
        static_cast<double>(q[static_cast<std::size_t>(action)]) - target);
    for (std::size_t i = net_.layer_count(); i > 0; --i)
      grad = net_.layer(i - 1).backward(grad);
    std::vector<float> grads(master_.size());
    net_.copy_gradients_into(grads);
    const auto lr = static_cast<float>(config_.learning_rate);
    for (std::size_t i = 0; i < master_.size(); ++i)
      master_[i] = master_[i] - lr * grads[i];
    net_.zero_gradients();
    commit();
    return result;
  }

  void commit() {
    weights_.encode_from(std::span<const float>(master_));
    stuck_.apply(weights_);
    decode_into_network();
  }

  void decode_into_network() {
    std::vector<float> params(weights_.size());
    weights_.decode_into(params);
    net_.restore_parameters(params);
  }

  const GridWorld* env_;
  MlpQConfig config_;
  Network net_;
  std::vector<float> master_;
  QVector weights_;
  StuckAtMask stuck_;
};

TEST(MlpQ, TdStepMatchesThreeForwardReference) {
  // The TD step forwards `state` once, bootstraps through infer() and
  // grades the probe's caches; the reference re-forwards `state`
  // instead. Master, words and network must stay bit-equal after every
  // episode, through a transient flip, a stuck-at mask and its removal.
  const GridWorld world = GridWorld::preset(ObstacleDensity::kMiddle);
  Rng rng(47);
  MlpQAgent agent(world, MlpQConfig{}, rng);
  ThreeForwardReference reference(agent);
  Rng reference_rng = rng;
  const QFormat fmt = agent.weights().format();
  constexpr int kEpisodes = 320;
  for (int episode = 0; episode < kEpisodes; ++episode) {
    Rng fault_rng(53 + static_cast<std::uint64_t>(episode));
    if (episode == 80) {
      const FaultMap map =
          FaultMap::sample(FaultType::kTransientFlip, 0.02,
                           agent.weight_count(), fmt.total_bits(), fault_rng);
      agent.inject_transient(map);
      reference.inject_transient(map);
    }
    if (episode == 160) {
      const StuckAtMask mask = StuckAtMask::compile(
          FaultMap::sample(FaultType::kStuckAt1, 0.01, agent.weight_count(),
                           fmt.total_bits(), fault_rng));
      agent.set_stuck(mask);
      reference.set_stuck(mask);
    }
    if (episode == 240) {
      agent.clear_stuck();
      reference.clear_stuck();
    }
    const double epsilon = std::max(0.05, 1.0 - episode / (kEpisodes * 0.6));
    agent.run_training_episode(epsilon, rng);
    reference.run_training_episode(epsilon, reference_rng);
    ASSERT_EQ(bits_of(agent.master()), bits_of(reference.master()))
        << "episode " << episode;
    ASSERT_TRUE(std::ranges::equal(agent.weights().words(),
                                   reference.weights().words()))
        << "episode " << episode;
    ASSERT_EQ(bits_of(agent.network().snapshot_parameters()),
              bits_of(reference.network().snapshot_parameters()))
        << "episode " << episode;
  }
  EXPECT_EQ(rng(), reference_rng());
}

TEST(MlpQ, SteadyStateTrainingAllocatesNothing) {
  // A training step computes into scratch the agent owns and commits in
  // place, so once warm it allocates nothing: also with stuck bits,
  // which each commit applies from the per-word masks set_stuck built.
  const GridWorld world = GridWorld::preset(ObstacleDensity::kMiddle);
  for (const bool stuck : {false, true}) {
    SCOPED_TRACE(stuck ? "stuck-at-1 mask" : "no stuck bits");
    Rng rng(59);
    MlpQAgent agent(world, MlpQConfig{}, rng);
    if (stuck) {
      Rng fault_rng(61);
      agent.set_stuck(StuckAtMask::compile(FaultMap::sample(
          FaultType::kStuckAt1, 0.01, agent.weight_count(),
          agent.weights().format().total_bits(), fault_rng)));
    }
    for (int episode = 0; episode < 20; ++episode)
      agent.run_training_episode(0.5, rng);
    g_allocations = 0;
    g_count_allocations = true;
    for (int episode = 0; episode < 60; ++episode) {
      agent.run_training_episode(episode % 2 == 0 ? 0.5 : 0.05, rng);
      // Rewrites FC1's network parameters in place.
      (void)agent.network();
    }
    g_count_allocations = false;
    EXPECT_EQ(g_allocations.load(), 0u);
  }
  // The counter works: a fresh agent allocates.
  Rng rng(59);
  g_count_allocations = true;
  { MlpQAgent fresh(world, MlpQConfig{}, rng); }
  g_count_allocations = false;
  EXPECT_GT(g_allocations.load(), 0u);
}

TEST(MlpQ, BackendsTrainBitIdentically) {
  // The agent runs FC2's forward through the dense slot and its commits
  // through sgd_commit, on the backend active when it was built. Two
  // agents from one seed, one on the scalar backend and one on the
  // active backend, must stay bit-equal after every episode: masters,
  // words, the network and the Q-values of every state, through a
  // transient flip, a stuck-at-1 mask and its removal.
  const GridWorld world = GridWorld::preset(ObstacleDensity::kMiddle);
  const kernels::KernelOps& native = kernels::active();
  Rng scalar_rng(71);
  Rng native_rng(71);
  const auto make_agent = [&world](const kernels::KernelOps& ops, Rng& rng) {
    const kernels::ScopedKernelBackend pin(ops);
    return MlpQAgent(world, MlpQConfig{}, rng);
  };
  MlpQAgent scalar = make_agent(kernels::scalar_ops(), scalar_rng);
  MlpQAgent vectorized = make_agent(native, native_rng);
  const QFormat fmt = scalar.weights().format();
  constexpr int kEpisodes = 240;
  for (int episode = 0; episode < kEpisodes; ++episode) {
    Rng fault_rng(73 + static_cast<std::uint64_t>(episode));
    if (episode == 60) {
      const FaultMap map =
          FaultMap::sample(FaultType::kTransientFlip, 0.02,
                           scalar.weight_count(), fmt.total_bits(), fault_rng);
      scalar.inject_transient(map);
      vectorized.inject_transient(map);
    }
    if (episode == 120) {
      const StuckAtMask mask = StuckAtMask::compile(
          FaultMap::sample(FaultType::kStuckAt1, 0.01, scalar.weight_count(),
                           fmt.total_bits(), fault_rng));
      scalar.set_stuck(mask);
      vectorized.set_stuck(mask);
    }
    if (episode == 180) {
      scalar.clear_stuck();
      vectorized.clear_stuck();
    }
    const double epsilon = std::max(0.05, 1.0 - episode / (kEpisodes * 0.6));
    scalar.run_training_episode(epsilon, scalar_rng);
    vectorized.run_training_episode(epsilon, native_rng);
    ASSERT_EQ(bits_of(scalar.master()), bits_of(vectorized.master()))
        << "episode " << episode;
    ASSERT_TRUE(std::ranges::equal(scalar.weights().words(),
                                   vectorized.weights().words()))
        << "episode " << episode;
    ASSERT_EQ(bits_of(scalar.network().snapshot_parameters()),
              bits_of(vectorized.network().snapshot_parameters()))
        << "episode " << episode;
    for (int s = 0; s < world.state_count(); ++s)
      ASSERT_EQ(bits_of(scalar.q_values(s).values()),
                bits_of(vectorized.q_values(s).values()))
          << "episode " << episode << " state " << s;
  }
  EXPECT_EQ(scalar_rng(), native_rng());
}

TEST(MlpQ, GreedyActionIsArgmax) {
  const GridWorld world = simple_world();
  Rng rng(17);
  MlpQAgent agent(world, MlpQConfig{}, rng);
  const Tensor q = agent.q_values(0);
  EXPECT_EQ(static_cast<std::size_t>(agent.greedy_action(0)), q.argmax());
}

TEST(MlpQ, HighBerStuckAt1BreaksPolicy) {
  // Paper Fig. 2c: stuck-at-1 at modest BER destroys NN training.
  const GridWorld world = simple_world();
  Rng rng(19);
  MlpQAgent agent(world, MlpQConfig{}, rng);
  Rng fault_rng(21);
  const FaultMap map = FaultMap::sample(
      FaultType::kStuckAt1, 0.05, agent.weights().size(),
      agent.weights().format().total_bits(), fault_rng);
  agent.set_stuck(StuckAtMask::compile(map));
  int successes = 0;
  for (int episode = 0; episode < 150; ++episode) {
    agent.run_training_episode(0.3, rng);
    if (episode >= 140 && agent.evaluate_success()) ++successes;
  }
  EXPECT_LT(successes, 10);
}

}  // namespace
}  // namespace ftnav
