#include "probes.h"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <functional>
#include <memory>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "campaign/campaign_runner.h"
#include "core/exploration.h"
#include "core/fault_model.h"
#include "core/injector.h"
#include "cost/cost_model.h"
#include "envs/drone_env.h"
#include "envs/drone_world.h"
#include "envs/gridworld.h"
#include "experiments/drone_policy.h"
#include "fixed/qformat.h"
#include "nn/c3f2.h"
#include "nn/kernels/kernels.h"
#include "nn/layers.h"
#include "nn/network.h"
#include "nn/quantized_engine.h"
#include "obs/json.h"
#include "obs/trace.h"
#include "rl/dqn.h"
#include "rl/mlp_q.h"
#include "util/perf.h"
#include "util/rng.h"

namespace perfbench {
namespace {

using namespace ftnav;
using obs::TraceSpan;

constexpr const char* kCat = "layer";

/// Timed results land here so the optimizer cannot drop the calls.
volatile double g_sink = 0.0;

/// Spans a probe group may record on its thread. The recorder keeps
/// 2^15 events (2^14 spans) per thread and drops the overflow, which
/// would unbalance the trace; sampling loops stop well before that.
constexpr std::size_t kSpanBudget = 12000;

/// Which workload the probe replays: its own layers get the workload's
/// own work; the other layers get a small fixed sample so every
/// per-layer metric is measured on every workload.
enum class Family { kGridTrain, kDrone };

Family family_of(const std::string& scenario) {
  if (scenario == "grid-training-transient") return Family::kGridTrain;
  if (scenario == "drone-fault-locations") return Family::kDrone;
  throw std::invalid_argument("no layer replay for scenario " + scenario);
}

/// Named totals, rendered as one flat JSON object.
class Counts {
 public:
  void add(const std::string& name, double value) {
    for (auto& [key, total] : values_) {
      if (key == name) {
        total += value;
        return;
      }
    }
    values_.emplace_back(name, value);
  }

  std::string json() const {
    std::string out = "{";
    for (const auto& [key, total] : values_) {
      if (out.size() > 1) out += ", ";
      char number[40];
      std::snprintf(number, sizeof number, "%.17g", total);
      out += '"';
      out += obs::json_escaped(key);
      out += "\": ";
      out += number;
    }
    return out + "}";
  }

 private:
  std::vector<std::pair<std::string, double>> values_;
};

/// Runs one probe group on a fresh thread (a fresh trace buffer) under
/// a root span, rethrowing its failure on the caller.
template <typename Fn>
void run_group(const char* root, Fn&& fn) {
  std::exception_ptr failure;
  std::thread worker([&] {
    try {
      TraceSpan span(root, "probe");
      fn();
    } catch (...) {
      failure = std::current_exception();
    }
  });
  worker.join();
  if (failure) std::rethrow_exception(failure);
}

std::uint64_t seed_of(const ParamSet& params) {
  return static_cast<std::uint64_t>(params.get_int("seed"));
}

ObstacleDensity density_of(const ParamSet& params) {
  const std::string& density = params.get_string("density");
  if (density == "low") return ObstacleDensity::kLow;
  if (density == "high") return ObstacleDensity::kHigh;
  return ObstacleDensity::kMiddle;
}

// ---- Grid World MLP: training, fixed-point codec, float layers ----------

/// A trained Grid World MLP policy with the world it lives in (the
/// agent keeps a pointer to the world, so both share one heap object).
struct GridPolicy {
  explicit GridPolicy(ObstacleDensity density)
      : env(GridWorld::preset(density)) {}
  GridWorld env;
  std::unique_ptr<MlpQAgent> agent;
};

double timed_episode(MlpQAgent& agent, double epsilon, Rng& rng) {
  TraceSpan span("rl.mlp_episode", kCat);
  return agent.run_training_episode(epsilon, rng);
}

/// grid-train: the middle cell of the (BER x injection episode) grid,
/// repeat 0 — the training run that trial performs in the campaign
/// (run_grid_training for the NN policy, spelled out with spans).
int train_grid_cell(const ParamSet& params, GridPolicy& policy,
                    Counts& counts) {
  const std::vector<double> bers = params.get_double_list("bers");
  const std::vector<std::int64_t> injections =
      params.get_int_list("injection-episodes");
  const auto repeats = static_cast<std::size_t>(params.get_int("repeats"));
  const int episodes = static_cast<int>(params.get_int("episodes"));
  const bool mitigated = params.get_bool("mitigate");
  const std::size_t cols = injections.size();
  const std::size_t cell = bers.size() * cols / 2;
  const double ber = bers[cell / cols];
  const auto injection = static_cast<int>(injections[cell % cols]);
  Rng trial_rng = Rng::stream(seed_of(params), cell * repeats);

  TraceSpan train("experiments.policy_train", kCat);
  Rng rng(trial_rng());
  Rng fault_rng = rng.split(0x5eed);
  policy.agent = std::make_unique<MlpQAgent>(policy.env, MlpQConfig{}, rng);
  ExplorationConfig exploration;
  exploration.alpha = 0.4;  // run_grid_training's NN default
  AdaptiveExplorationController controller(exploration, mitigated);
  for (int episode = 0; episode < episodes; ++episode) {
    if (episode == injection && ber > 0.0) {
      QVector& store = policy.agent->weights();
      FaultMap map;
      {
        TraceSpan span("core.fault_sample", kCat);
        map = FaultMap::sample(FaultType::kTransientFlip, ber, store.size(),
                               store.format().total_bits(), fault_rng);
      }
      {
        TraceSpan span("rl.mlp_inject", kCat);
        policy.agent->inject_transient(map);
      }
      counts.add("core.bits_flipped", static_cast<double>(map.size()));
    }
    double reward = timed_episode(*policy.agent, controller.rate(), rng);
    if (mitigated) {
      TraceSpan span("rl.mlp_evaluate", kCat);
      reward = policy.agent->evaluate_return();
    }
    controller.end_episode(reward);
  }
  return episodes;
}

/// Other workloads: a short fixed-size training run on the default map.
int train_grid_sample(const ParamSet& params, GridPolicy& policy) {
  constexpr int kEpisodes = 60;
  Rng rng(seed_of(params));
  policy.agent = std::make_unique<MlpQAgent>(policy.env, MlpQConfig{}, rng);
  AdaptiveExplorationController controller(ExplorationConfig{}, false);
  for (int episode = 0; episode < kEpisodes; ++episode)
    controller.end_episode(
        timed_episode(*policy.agent, controller.rate(), rng));
  return kEpisodes;
}

/// QFormat encode/decode over the trained policy store's own values.
void probe_codec(const QVector& store) {
  const QFormat& format = store.format();
  const std::vector<double> values = store.decode_all();
  std::vector<Word> words(values.size());
  const std::size_t passes = std::max<std::size_t>(1, 262144 / values.size());
  const std::uint64_t n = passes * values.size();
  for (int rep = 0; rep < 8; ++rep) {
    TraceSpan span("fixed.encode", kCat, "n", n);
    for (std::size_t pass = 0; pass < passes; ++pass)
      for (std::size_t i = 0; i < values.size(); ++i)
        words[i] = format.encode(values[i]);
  }
  double sum = 0.0;
  for (int rep = 0; rep < 8; ++rep) {
    TraceSpan span("fixed.decode", kCat, "n", n);
    for (std::size_t pass = 0; pass < passes; ++pass)
      for (std::size_t i = 0; i < words.size(); ++i)
        sum += format.decode(words[i]);
  }
  g_sink = g_sink + sum;
}

/// Float forward/backward of the MLP (the training path's layers) on
/// one-hot state inputs, as MlpQAgent's TD step runs them.
void probe_mlp_layers(GridPolicy& policy) {
  constexpr int kCalls = 200;
  Network net = policy.agent->network();
  const auto states = static_cast<std::size_t>(policy.env.state_count());
  Tensor input(states);
  Tensor grad(net.output_shape(input.shape()));
  grad.fill(0.01f);
  double sum = 0.0;
  for (int rep = 0; rep < 5; ++rep) {
    {
      TraceSpan span("nn.mlp_fwd", kCat, "n", kCalls);
      for (int call = 0; call < kCalls; ++call) {
        input.fill(0.0f);
        input[static_cast<std::size_t>(rep * kCalls + call) % states] = 1.0f;
        sum += net.forward(input)[0];
      }
    }
    {
      TraceSpan span("nn.mlp_bwd", kCat, "n", kCalls);
      for (int call = 0; call < kCalls; ++call) sum += net.backward(grad)[0];
    }
    net.zero_gradients();
  }
  g_sink = g_sink + sum;
}

// ---- Grid World inference trials: engine, injector, env -----------------

/// Builds the quantized engine on the trained MLP (with the range
/// detector, as grid-inference's mitigated arm does) and replays a
/// fixed sample of NN fault trials (grid_inference's nn_fault_trial +
/// engine_rollout, spelled out with spans): 50 repeats of the four
/// fault modes at BER 0.5% and 1%.
void probe_grid_trials(const ParamSet& params, GridPolicy& policy,
                       Counts& counts) {
  constexpr double kMargin = 0.1;
  const std::vector<double> bers = {0.005, 0.01};
  constexpr std::size_t repeats = 50;
  const std::uint64_t seed = seed_of(params);

  const Network golden = policy.agent->network();
  const QFormat format = policy.agent->weights().format();
  const GridWorld& env = policy.env;
  const Shape input_shape{env.state_count(), 1, 1};
  constexpr int kBuilds = 8;
  std::unique_ptr<QuantizedInferenceEngine> engine;
  for (int build = 0; build < kBuilds; ++build) {
    TraceSpan span("nn.engine_build", kCat);
    engine = std::make_unique<QuantizedInferenceEngine>(golden, format,
                                                        input_shape);
    engine->enable_weight_protection(kMargin);
  }
  counts.add("nn.engine_builds", kBuilds);

  const std::size_t ber_count = bers.size();
  const std::size_t trials = 4 * ber_count * repeats;
  std::vector<std::pair<int, int>> moves;  // (state, action) per env step
  std::uint64_t bits = 0;
  std::uint64_t hits = 0;
  std::size_t spans = 0;
  Tensor one_hot(static_cast<std::size_t>(env.state_count()));
  for (std::size_t trial = 0; trial < trials && spans < kSpanBudget;
       ++trial) {
    const std::size_t cell = trial / repeats;
    const std::size_t mode = cell / ber_count;
    const double ber = bers[cell % ber_count];
    Rng rng = Rng::stream(seed ^ 0xabcd, trial);
    const RangeAnomalyDetector* detector = engine->weight_detector();
    const std::uint64_t hits_before =
        detector != nullptr ? detector->detections() : 0;
    {
      TraceSpan span("core.restore", kCat);
      engine->reset_faults();
    }
    const FaultType type = mode == 2   ? FaultType::kStuckAt0
                           : mode == 3 ? FaultType::kStuckAt1
                                       : FaultType::kTransientFlip;
    FaultMap map;
    {
      TraceSpan span("core.fault_sample", kCat);
      map = FaultMap::sample(type, ber, engine->weight_word_count(),
                             engine->format().total_bits(), rng);
    }
    bits += map.size();
    int fault_step = -1;  // Transient-1: the fault lasts one step
    if (mode == 1) {
      fault_step = static_cast<int>(rng.below(20));
    } else {
      TraceSpan span("core.inject", kCat);
      if (mode == 0)
        engine->inject_weight_faults(map);
      else
        engine->set_weight_stuck(StuckAtMask::compile(map));
    }
    spans += 3;
    int state = env.source_state();
    for (int step = 0; step < 100; ++step) {
      if (step == fault_step) {
        TraceSpan span("core.inject", kCat);
        engine->inject_weight_faults(map);
      }
      one_hot.fill(0.0f);
      one_hot[static_cast<std::size_t>(state)] = 1.0f;
      int action = 0;
      {
        TraceSpan span("nn.mlp_infer", kCat);
        action = static_cast<int>(engine->act(one_hot, rng));
      }
      if (step == fault_step) {
        TraceSpan span("core.restore", kCat);
        engine->reset_faults();
      }
      const GridWorld::StepResult result = env.step(state, action);
      moves.emplace_back(state, action);
      ++spans;
      if (result.done) break;
      state = result.next_state;
    }
    if (detector != nullptr) hits += detector->detections() - hits_before;
  }
  counts.add("core.bits_flipped", static_cast<double>(bits));
  counts.add("core.detector_hits", static_cast<double>(hits));
  counts.add("envs.grid_steps", static_cast<double>(moves.size()));

  // GridWorld::step costs nanoseconds, below a span's own cost: time
  // the recorded transitions replayed in bulk instead.
  const std::size_t passes = std::max<std::size_t>(1, 200000 / moves.size());
  long long sum = 0;
  for (int rep = 0; rep < 5; ++rep) {
    TraceSpan span("envs.grid_step", kCat, "n", passes * moves.size());
    for (std::size_t pass = 0; pass < passes; ++pass)
      for (const auto& [state, action] : moves)
        sum += env.step(state, action).next_state;
  }
  g_sink = g_sink + static_cast<double>(sum);
}

// ---- Drone: policy training, float layers, quantized C3F2 flights -------

void arm_location(std::size_t row, double ber, QuantizedInferenceEngine& e,
                  Rng& rng) {
  if (ber <= 0.0) return;
  switch (row) {
    case 0:  // input buffer, per inference
      e.set_input_transient_ber(ber);
      break;
    case 1:  // weight buffer, static flips
      e.inject_weight_faults(FaultMap::sample(FaultType::kTransientFlip, ber,
                                              e.weight_word_count(),
                                              e.format().total_bits(), rng));
      break;
    case 2:  // activation buffer, per write
      e.set_activation_transient_ber(ber);
      break;
    default:  // activation buffer, stuck-at-1 cells
      e.set_activation_stuck(StuckAtMask::compile(FaultMap::sample(
          FaultType::kStuckAt1, ber, e.activation_buffer_size(),
          e.format().total_bits(), rng)));
      break;
  }
}

/// Trains the drone policy (train_drone_policy spelled out so each
/// phase is spanned), times the float C3F2 layers, then flies one
/// repeat per fault location at the middle of the BER axis through the
/// quantized engine (drone-fault-locations' msf_with_faults). Other
/// workloads run a short fixed sample (one imitation and three DDQN
/// episodes, 60-step flights).
void probe_drone(Family family, const ParamSet& params, Counts& counts,
                 Counts& work) {
  const bool native = family == Family::kDrone;
  DronePolicySpec spec;
  spec.seed = seed_of(params);
  if (native) {
    spec.imitation_episodes =
        static_cast<int>(params.get_int("imitation-episodes"));
    spec.ddqn_episodes = static_cast<int>(params.get_int("ddqn-episodes"));
    spec.env_max_steps = static_cast<int>(params.get_int("env-max-steps"));
    spec.env_max_distance = params.get_double("env-max-distance");
  } else {
    // Enough DDQN transitions to pass the replay warm-up and take
    // gradient steps.
    spec.imitation_episodes = 1;
    spec.ddqn_episodes = 3;
    spec.env_max_steps = 60;
  }
  const DroneWorld world =
      native && params.get_string("world") == "indoor-vanleer"
          ? DroneWorld::indoor_vanleer()
          : DroneWorld::indoor_long();
  const C3F2Config c3f2 = C3F2Config::preset(spec.preset);
  DroneEnvConfig env_config = drone_env_config_for(c3f2);
  if (spec.env_max_steps > 0) env_config.max_steps = spec.env_max_steps;
  if (spec.env_max_distance > 0.0)
    env_config.max_distance = spec.env_max_distance;

  Network network;
  {
    TraceSpan train(native ? "experiments.policy_train" : "probe.drone_train",
                    kCat);
    Rng rng(spec.seed);
    network = make_c3f2(c3f2, rng);
    DroneEnv env(world, env_config);
    if (spec.imitation_episodes > 0) {
      TraceSpan span("rl.imitation", kCat);
      pretrain_imitation(network, env, spec.imitation_episodes,
                         spec.imitation_lr, /*exploration=*/0.1, rng);
    }
    if (spec.ddqn_episodes > 0) {
      DqnConfig dqn;
      dqn.learning_rate = 2e-4;
      DoubleDqnTrainer trainer(network, dqn);
      for (int episode = 0; episode < spec.ddqn_episodes; ++episode) {
        TraceSpan span("rl.ddqn_episode", kCat);
        (void)trainer.run_episode(env, 0.1, rng);
      }
      counts.add("rl.ddqn_grad_steps", trainer.gradient_steps());
      network = trainer.online();
    }
  }
  counts.add("rl.ddqn_episodes", spec.ddqn_episodes);

  // Float forward/backward: the layers imitation and DDQN train through.
  {
    Network float_net = network;
    DroneEnv env(world, env_config);
    Rng obs_rng(spec.seed ^ 0xf10a7);
    const Tensor observation = env.reset(obs_rng);
    Tensor grad(float_net.output_shape(c3f2.input_shape()));
    grad.fill(0.01f);
    const int calls = native ? 40 : 10;
    double sum = 0.0;
    for (int rep = 0; rep < 3; ++rep) {
      {
        TraceSpan span("nn.float_fwd", kCat, "n", calls);
        for (int call = 0; call < calls; ++call)
          sum += float_net.forward(observation)[0];
      }
      {
        TraceSpan span("nn.float_bwd", kCat, "n", calls);
        for (int call = 0; call < calls; ++call)
          sum += float_net.backward(grad)[0];
      }
      float_net.zero_gradients();
    }
    g_sink = g_sink + sum;
    work.add("nn.float_fwd.macs",
             cost::network_forward_work(float_net, c3f2.input_shape(), 4.0)
                 .macs);
  }

  std::unique_ptr<QuantizedInferenceEngine> engine;
  {
    TraceSpan span("nn.c3f2_engine_build", kCat);
    engine = std::make_unique<QuantizedInferenceEngine>(
        network, QFormat::drone_weights(), c3f2.input_shape());
  }
  work.add("nn.c3f2_infer.macs",
           cost::network_forward_work(network, c3f2.input_shape(), 2.0).macs);

  const std::vector<double> bers =
      native ? params.get_double_list("bers")
             : std::vector<double>{0.0, 1e-4, 1e-3};
  std::size_t b = bers.size() / 2;
  while (b + 1 < bers.size() && bers[b] <= 0.0) ++b;
  const double ber = bers[b];
  std::uint64_t steps = 0;
  std::size_t spans = 0;
  for (std::size_t row = 0; row < 4 && spans < kSpanBudget; ++row) {
    const std::size_t cell = row * bers.size() + b;
    Rng trial_rng = Rng::stream(spec.seed ^ 0x7c, cell);
    Rng rng = ber <= 0.0 ? Rng(spec.seed ^ 0xb05e) : trial_rng;
    Rng repeat_rng = rng.split(1);
    {
      TraceSpan span("nn.c3f2_arm", kCat);
      engine->reset_faults();
      arm_location(row, ber, *engine, repeat_rng);
    }
    DroneEnv env(world, env_config);
    Tensor observation;
    {
      TraceSpan span("envs.drone_reset", kCat);
      observation = env.reset(repeat_rng);
    }
    while (!env.done() && spans < kSpanBudget) {
      int action = 0;
      {
        TraceSpan span("nn.c3f2_infer", kCat);
        action = static_cast<int>(engine->act(observation, repeat_rng));
      }
      {
        TraceSpan span("envs.drone_step", kCat);
        (void)env.step(action);
      }
      {
        TraceSpan span("envs.drone_observe", kCat);
        observation = env.observe();
      }
      ++steps;
      spans += 3;
    }
  }
  counts.add("envs.drone_steps", static_cast<double>(steps));
}

// ---- Kernels, activation quantization, campaign dispatch ----------------

/// Calls kernels::active() directly with the C3F2 layer shapes. MACs
/// and bytes are computed from the shapes (one pass over weights, bias,
/// input and output), not measured.
void probe_kernels(const ParamSet& params, Counts& work) {
  static const char* const kSpans[] = {
      "nn.kernels.conv1", "nn.kernels.conv2", "nn.kernels.conv3",
      "nn.kernels.fc1", "nn.kernels.fc2"};
  const kernels::KernelOps& ops = kernels::active();
  Rng rng(seed_of(params));
  const C3F2Config c3f2 = C3F2Config::preset(C3F2Preset::kFast);
  Network net = make_c3f2(c3f2, rng);
  Shape shape = c3f2.input_shape();
  std::size_t index = 0;
  double sum = 0.0;
  for (std::size_t i = 0; i < net.layer_count(); ++i) {
    Layer& layer = net.layer(i);
    const Shape out = layer.output_shape(shape);
    const std::span<const float> params_span = layer.parameters();
    if (!params_span.empty()) {
      if (index >= std::size(kSpans))
        throw std::logic_error("C3F2 has more parametered layers than "
                               "kernel probes");
      std::vector<float> x(shape.element_count());
      for (float& value : x) value = static_cast<float>(rng.uniform());
      std::vector<float> y(out.element_count());
      const std::size_t bias_count = static_cast<std::size_t>(out.channels);
      const std::size_t weight_count = params_span.size() - bias_count;
      const float* w = params_span.data();
      const float* bias = w + weight_count;
      std::vector<float> wt(weight_count);
      double macs = 0.0;
      std::function<void()> call;
      if (const auto* conv = dynamic_cast<const Conv2D*>(&layer)) {
        const kernels::ConvShape s{shape.channels, shape.height, shape.width,
                                   out.channels,   out.height,   out.width,
                                   conv->kernel(), conv->stride()};
        const int taps = s.in_c * s.kernel * s.kernel;
        for (int oc = 0; oc < s.out_c; ++oc)
          for (int tap = 0; tap < taps; ++tap)
            wt[static_cast<std::size_t>(tap) * s.out_c + oc] =
                w[static_cast<std::size_t>(oc) * taps + tap];
        const float* wt_ptr = ops.conv_wants_transposed ? wt.data() : nullptr;
        macs = static_cast<double>(out.element_count()) * taps;
        call = [&, s, wt_ptr] {
          ops.conv2d(w, wt_ptr, bias, x.data(), y.data(), s);
        };
      } else {
        const auto* dense = dynamic_cast<const Dense*>(&layer);
        if (dense == nullptr)
          throw std::logic_error("unexpected parametered C3F2 layer");
        const int in_f = dense->in_features();
        const int out_f = dense->out_features();
        for (int o = 0; o < out_f; ++o)
          for (int k = 0; k < in_f; ++k)
            wt[static_cast<std::size_t>(k) * out_f + o] =
                w[static_cast<std::size_t>(o) * in_f + k];
        const float* wt_ptr = ops.dense_wants_transposed ? wt.data() : nullptr;
        macs = static_cast<double>(in_f) * out_f;
        call = [&, in_f, out_f, wt_ptr] {
          ops.dense(w, wt_ptr, bias, x.data(), y.data(), in_f, out_f);
        };
      }
      const double bytes =
          4.0 * static_cast<double>(params_span.size() + x.size() + y.size());
      const auto calls = static_cast<std::uint64_t>(
          std::clamp(4e7 / macs, 1.0, 20000.0));
      for (int rep = 0; rep < 5; ++rep) {
        TraceSpan span(kSpans[index], kCat, "n", calls);
        for (std::uint64_t c = 0; c < calls; ++c) call();
        sum += y[0];
      }
      work.add(std::string(kSpans[index]) + ".macs", macs);
      work.add(std::string(kSpans[index]) + ".bytes", bytes);
      ++index;
    }
    shape = out;
  }
  g_sink = g_sink + sum;
}

/// QFormat::quantize, the activation-buffer write of every quantized
/// layer, over drone-format values.
void probe_quantize(const ParamSet& params) {
  constexpr std::size_t kWords = 1u << 20;
  const QFormat format = QFormat::drone_weights();
  Rng rng(seed_of(params));
  std::vector<float> values(kWords);
  for (float& value : values) value = static_cast<float>(rng.uniform(-20, 20));
  std::vector<float> out(kWords);
  double sum = 0.0;
  for (int rep = 0; rep < 8; ++rep) {
    TraceSpan span("fixed.quantize", kCat, "n", kWords);
    for (std::size_t i = 0; i < kWords; ++i)
      out[i] = format.quantize(values[i]);
    sum += out[static_cast<std::size_t>(rep)];
  }
  g_sink = g_sink + sum;
}

/// A no-op trial grid of the workload's size through CampaignRunner:
/// the per-trial dispatch cost every campaign pays.
void probe_campaign_overhead(const ProbeRequest& request, Counts& counts) {
  std::size_t trials = 0;
  if (request.spec.cost)
    for (const cost::CampaignCost& campaign :
         request.spec.cost(request.params).campaigns)
      trials += campaign.trials;
  trials = std::max<std::size_t>(trials, 1);
  const CampaignRunner runner(request.threads);
  double spent = 0.0;
  int reps = 0;
  while ((reps < 5 || spent < 0.2) && reps < 400) {
    const double start = perf::now();
    {
      TraceSpan span("campaign.noop_grid", kCat, "n", trials);
      const std::uint64_t done = runner.map_reduce(
          trials, seed_of(request.params), [] { return std::uint64_t{0}; },
          [](std::uint64_t& acc, std::size_t, Rng&) { ++acc; },
          [](std::uint64_t& into, std::uint64_t&& from) { into += from; });
      if (done != trials)
        throw std::logic_error("no-op grid lost trials");
    }
    spent += perf::now() - start;
    ++reps;
  }
  counts.add("campaign.noop_trials", static_cast<double>(trials));
}

}  // namespace

std::string run_probes(const ProbeRequest& request) {
  const Family family = family_of(request.spec.name);
  const ParamSet& params = request.params;
  Counts counts;
  Counts work;

  GridPolicy policy(family == Family::kGridTrain ? density_of(params)
                                                : ObstacleDensity::kMiddle);
  run_group("probe.mlp", [&] {
    const int episodes = family == Family::kGridTrain
                             ? train_grid_cell(params, policy, counts)
                             : train_grid_sample(params, policy);
    counts.add("rl.mlp_episodes", episodes);
    probe_codec(policy.agent->weights());
    probe_mlp_layers(policy);
  });
  run_group("probe.grid_trials", [&] {
    probe_grid_trials(params, policy, counts);
  });
  run_group("probe.drone", [&] { probe_drone(family, params, counts, work); });
  run_group("probe.kernels", [&] {
    probe_kernels(params, work);
    probe_quantize(params);
    probe_campaign_overhead(request, counts);
  });

  const obs::TraceRecorder* recorder = obs::trace();
  return "\"counts\": " + counts.json() + ",\n \"work\": " + work.json() +
         ",\n \"trace_dropped\": " +
         std::to_string(recorder != nullptr ? recorder->dropped() : 0);
}

}  // namespace perfbench
