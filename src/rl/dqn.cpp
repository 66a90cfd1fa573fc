#include "rl/dqn.h"

#include <array>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <mutex>
#include <stdexcept>
#include <thread>
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

namespace {

/// pretrain_imitation's ring: about 150 KB of fast-preset observations
/// (3 x 39 x 39 floats each) plus their targets.
constexpr std::uint64_t kImitationSlots = 8;

/// One step of the expert trajectory: the camera image, the expert's
/// action targets for it, and whether the step ended its episode.
struct ImitationStep {
  Tensor observation;
  Tensor targets;
  bool episode_end = false;
};

/// The trajectory pretrain_imitation learns from, flown on a helper
/// thread into a ring of kImitationSlots steps that the learner takes
/// in order. The trajectory never reads the network, and while it runs
/// only the helper draws from `rng`, in the serial loop's order (the
/// reset, then each step's exploration draws), so the learner sees the
/// steps the serial loop saw and the caller gets back the generator
/// and env it left. The destructor stops and joins the helper, so no
/// path out of pretrain_imitation leaves it running.
class ExpertTrajectory {
 public:
  ExpertTrajectory(DroneEnv& env, int episodes, double exploration, Rng& rng)
      : helper_([this, &env, episodes, exploration, &rng] {
          fly(env, episodes, exploration, rng);
        }) {}

  ~ExpertTrajectory() {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    released_.notify_one();
    helper_.join();
  }

  ExpertTrajectory(const ExpertTrajectory&) = delete;
  ExpertTrajectory& operator=(const ExpertTrajectory&) = delete;

  /// The next step, once the helper has written it. Once the steps the
  /// helper wrote before it failed are taken, rethrows its exception.
  const ImitationStep& next() {
    std::unique_lock<std::mutex> lock(mutex_);
    written_cv_.wait(lock, [&] { return taken_ < written_ || failure_; });
    if (taken_ == written_) std::rethrow_exception(failure_);
    return slots_[taken_ % kImitationSlots];
  }

  /// Hands the step next() returned back to the helper. It is woken
  /// when half the ring is free, not on every step.
  void release() {
    bool wake = false;
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      ++taken_;
      wake = written_ - taken_ == kImitationSlots / 2;
    }
    if (wake) released_.notify_one();
  }

 private:
  void fly(DroneEnv& env, int episodes, double exploration,
           Rng& rng) noexcept {
    try {
      const ExpertPolicy expert(env);
      for (int episode = 0; episode < episodes; ++episode) {
        (void)env.reset(rng);
        while (!env.done()) {
          ImitationStep* slot = claim();
          if (slot == nullptr) return;
          slot->observation = env.observe();
          slot->targets = expert.action_targets();
          // Mostly expert trajectory with occasional random deviation so
          // the learner also sees recovery states. The env has not moved
          // since `targets`, so they are what expert.act() would compute
          // again.
          const int action = rng.bernoulli(exploration)
                                 ? static_cast<int>(rng.below(
                                       DroneEnvConfig::action_count()))
                                 : ExpertPolicy::best_action(slot->targets);
          (void)env.step(action);
          slot->episode_end = env.done();
          publish();
        }
      }
    } catch (...) {
      {
        const std::lock_guard<std::mutex> lock(mutex_);
        failure_ = std::current_exception();
      }
      written_cv_.notify_one();
    }
  }

  /// The next free slot, or nullptr once the learner has stopped.
  ImitationStep* claim() {
    std::unique_lock<std::mutex> lock(mutex_);
    released_.wait(
        lock, [&] { return stop_ || written_ - taken_ < kImitationSlots; });
    return stop_ ? nullptr : &slots_[written_ % kImitationSlots];
  }

  void publish() {
    bool wake = false;
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      ++written_;
      wake = written_ - taken_ == 1;
    }
    if (wake) written_cv_.notify_one();
  }

  std::array<ImitationStep, kImitationSlots> slots_;
  std::mutex mutex_;
  std::condition_variable written_cv_;  // a step written, or a failure
  std::condition_variable released_;    // a slot released, or stop
  std::uint64_t written_ = 0;           // the counts and flags: mutex_
  std::uint64_t taken_ = 0;
  bool stop_ = false;
  std::exception_ptr failure_;
  std::thread helper_;  // last: it starts once the members above exist
};

}  // namespace

double pretrain_imitation(Network& network, DroneEnv& env, int episodes,
                          double learning_rate, double exploration,
                          Rng& rng) {
  if (episodes <= 0)
    throw std::invalid_argument("pretrain_imitation: episodes must be > 0");
  ExpertTrajectory trajectory(env, episodes, exploration, rng);
  double last_episode_loss = 0.0;
  double loss_sum = 0.0;
  int steps = 0;
  Tensor grad;
  for (int episode = 0; episode < episodes;) {
    const ImitationStep& step = trajectory.next();
    const Tensor& q = network.forward(step.observation);
    grad.resize(q.shape());
    double loss = 0.0;
    for (std::size_t i = 0; i < q.size(); ++i) {
      const float diff = q[i] - step.targets[i];
      grad[i] = diff / static_cast<float>(q.size());
      loss += 0.5 * diff * diff;
    }
    const bool episode_end = step.episode_end;
    // The network keeps its own copy of the observation for backward.
    trajectory.release();
    network.backward(grad);
    network.apply_gradients(static_cast<float>(learning_rate));
    loss_sum += loss / static_cast<double>(q.size());
    ++steps;
    if (episode_end) {
      last_episode_loss = loss_sum / steps;
      loss_sum = 0.0;
      steps = 0;
      ++episode;
    }
  }
  return last_episode_loss;
}

}  // namespace ftnav
