// Micro-benchmarks backing the paper's §5.2 claim that range-based
// anomaly detection costs <3% runtime, plus the cost of the injection
// primitives themselves (the tool-chain is advertised as enabling
// *rapid* fault analysis), of the passes of a quantized C3F2
// inference besides its MACs (activation quantization, max-pool), on
// the active kernel backend (FTNAV_SIMD), of a float C3F2 imitation
// step, its conv backwards and weight transposes and a whole imitation
// episode, and of a Grid World MLP TD step and the weight codec it
// commits through.
//
// Runs on the shared bench harness: FTNAV_* knobs and a JSON table via
// FTNAV_JSON_DIR. Nothing gates on these timings: ci/perf_gate.py times
// whole campaigns with perfbench/. Iteration counts are fixed
// (FTNAV_FULL=1 multiplies them by 5) so the ops column is stable run
// to run; only the timings vary.

#include <cstdint>
#include <cstdio>
#include <vector>

#include "bench_common.h"
#include "core/anomaly_detector.h"
#include "core/injector.h"
#include "envs/drone_env.h"
#include "envs/expert_policy.h"
#include "experiments/drone_policy.h"
#include "nn/c3f2.h"
#include "nn/kernels/kernels.h"
#include "nn/quantized_engine.h"
#include "rl/dqn.h"
#include "rl/mlp_q.h"
#include "util/perf.h"
#include "util/rng.h"

namespace {

using namespace ftnav;
using namespace ftnav::benchharness;

// Folded into a volatile at the end of every section so the measured
// calls feed an observable side effect and cannot be hoisted away.
volatile double g_sink = 0.0;

struct Micro {
  Table& table;

  template <typename Fn>
  void section(const char* name, std::size_t ops, Fn&& fn) {
    const double start = perf::now();
    fn();
    record(name, ops, perf::now() - start);
  }

  /// section() for a noisy row: runs `fn` `blocks` times and keeps
  /// the fastest run.
  template <typename Fn>
  void fastest(const char* name, std::size_t ops, int blocks, Fn&& fn) {
    double best = 0.0;
    for (int block = 0; block < blocks; ++block) {
      const double start = perf::now();
      fn();
      const double seconds = perf::now() - start;
      if (block == 0 || seconds < best) best = seconds;
    }
    record(name, ops, best);
  }

  void record(const char* name, std::size_t ops, double seconds) {
    const double per_second = ops / (seconds > 0.0 ? seconds : 1e-12);
    table.add_row({name, std::to_string(ops),
                   format_double(seconds * 1e3, 2),
                   format_double(per_second, 0),
                   format_double(1e9 / per_second, 2)});
  }
};

}  // namespace

int main() {
  BenchConfig config = bench_config_from_env();
  print_banner("Overhead micro",
               "cost of the injection/detection primitives and the §5.2 "
               "<3% anomaly-detection overhead claim",
               config);

  const std::size_t scale = config.full_scale ? 5 : 1;
  Table table({"section", "ops", "ms_total", "ops_per_sec", "ns_per_op"});
  Micro micro{table};

  {
    const QFormat fmt = QFormat::q_1_4_11();
    const std::size_t ops = 2'000'000 * scale;
    micro.section("qformat_encode_decode", ops, [&] {
      double v = 0.12345;
      for (std::size_t i = 0; i < ops; ++i)
        v = fmt.decode(fmt.encode(v)) + 1e-7;
      g_sink = g_sink + v;
    });
  }

  {
    Rng rng(config.seed);
    const std::size_t ops = 2'000 * scale;
    micro.section("faultmap_sample_64k", ops, [&] {
      for (std::size_t i = 0; i < ops; ++i) {
        const FaultMap map =
            FaultMap::sample(FaultType::kTransientFlip, 0.001, 65536, 16, rng);
        g_sink = g_sink + static_cast<double>(map.sites().size());
      }
    });
  }

  {
    Rng rng(config.seed + 1);
    const FaultMap map =
        FaultMap::sample(FaultType::kStuckAt1, 0.001, 65536, 16, rng);
    const StuckAtMask mask = StuckAtMask::compile(map);
    std::vector<Word> buffer(65536, 0x1234);
    const std::size_t ops = 20'000 * scale;
    micro.section("stuckat_mask_apply_64k", ops, [&] {
      for (std::size_t i = 0; i < ops; ++i) mask.apply(buffer);
      g_sink = g_sink + static_cast<double>(buffer[0]);
    });
  }

  {
    Rng rng(config.seed + 2);
    std::vector<float> values(65536, 0.5f);
    const QFormat fmt = QFormat::q_1_4_11();
    const std::size_t ops = 2'000 * scale;
    micro.section("dynamic_transient_injection_64k", ops, [&] {
      for (std::size_t i = 0; i < ops; ++i)
        inject_transient_values(values, fmt, 1e-4, rng);
      g_sink = g_sink + values[0];
    });
  }

  {
    RangeAnomalyDetector detector(QFormat::q_1_4_11(), 1, 0.1);
    detector.calibrate(0, -2.0);
    detector.calibrate(0, 2.0);
    detector.finalize();
    std::vector<float> probe(1024);
    Rng rng(config.seed + 3);
    for (float& v : probe)
      v = static_cast<float>(rng.normal(0.0, 1.5));  // some out of range
    const std::size_t ops = 5'000'000 * scale;
    micro.section("anomaly_check_per_value", ops, [&] {
      double acc = 0.0;
      for (std::size_t i = 0; i < ops; ++i)
        acc += detector.filter(0, probe[i & 1023]);
      g_sink = g_sink + acc;
    });
  }

  // The passes of one quantized C3F2 inference besides its MACs, on
  // the active kernel backend, and the dense fault draw.
  {
    Rng rng(config.seed + 4);
    const C3F2Config c3f2 = C3F2Config::preset(C3F2Preset::kFast);
    Network net = make_c3f2(c3f2, rng);
    const kernels::KernelOps& ops = kernels::active();

    // Every word one inference quantizes: the input and each conv and
    // dense output.
    Shape shape = c3f2.input_shape();
    std::size_t words = shape.element_count();
    Shape pool_in{};
    for (std::size_t i = 0; i < net.layer_count(); ++i) {
      const Layer& layer = net.layer(i);
      const Shape out = layer.output_shape(shape);
      if (!layer.parameters().empty()) words += out.element_count();
      if (layer.kind() == LayerKind::kMaxPool2D && !pool_in.valid())
        pool_in = shape;
      shape = out;
    }
    std::vector<float> values(words);
    for (float& v : values) v = static_cast<float>(rng.normal(0.0, 4.0));
    const QFormat fmt = QFormat::drone_weights();
    const std::size_t passes = 2'000 * scale;
    micro.section("quantize_one_inference_words", passes * words, [&] {
      std::vector<float> buffer(words);
      for (std::size_t i = 0; i < passes; ++i) {
        std::copy(values.begin(), values.end(), buffer.begin());
        ops.quantize(buffer.data(), buffer.size(), fmt);
        g_sink = g_sink + buffer[i % words];
      }
    });

    // The first max-pool's input (conv1's 16x18x18 output).
    std::vector<float> pool_x(pool_in.element_count());
    for (float& v : pool_x) v = static_cast<float>(rng.normal(0.0, 1.0));
    std::vector<float> pool_y(pool_x.size() / 4);
    const std::size_t pools = 20'000 * scale;
    micro.section("maxpool2d_conv1_output", pools, [&] {
      for (std::size_t i = 0; i < pools; ++i) {
        ops.maxpool2d(pool_x.data(), pool_y.data(), pool_in.channels,
                      pool_in.height, pool_in.width, 2, nullptr);
        g_sink = g_sink + pool_y[i % pool_y.size()];
      }
    });

    // A Weight / BER 0.1 cell's draw: 10% of the C3F2 weight bits.
    const std::size_t weight_words = net.parameter_count();
    const std::size_t draws = 50 * scale;
    micro.section("faultmap_sample_c3f2_ber0.1", draws, [&] {
      for (std::size_t i = 0; i < draws; ++i) {
        const FaultMap map = FaultMap::sample(
            FaultType::kTransientFlip, 0.1, weight_words,
            fmt.total_bits(), rng);
        g_sink = g_sink + static_cast<double>(map.size());
      }
    });
  }

  // The float-step, TD-step, commit and codec rows below keep the
  // fastest of five timed blocks of the same work: on a shared VM one
  // block's time can move by 2x from run to run.
  constexpr int kBlocks = 5;

  // A float C3F2 imitation step (forward, backward, apply_gradients) of
  // the fast preset, as pretrain_imitation runs it, on the active
  // backend: each block trains a fresh copy of one network for a fixed
  // number of steps over observations rendered along an expert flight.
  {
    const C3F2Config c3f2 = C3F2Config::preset(C3F2Preset::kFast);
    const DroneWorld world = DroneWorld::indoor_long();
    DroneEnv env(world, drone_env_config_for(c3f2));
    const ExpertPolicy expert(env);
    Rng rng(config.seed + 6);
    std::vector<std::pair<Tensor, Tensor>> views;  // observation, targets
    (void)env.reset(rng);
    for (int view = 0; view < 32; ++view) {
      if (env.done()) (void)env.reset(rng);
      views.emplace_back(env.observe(), expert.action_targets());
      (void)env.step(ExpertPolicy::best_action(views.back().second));
    }
    const Network initial = make_c3f2(c3f2, rng);
    const std::size_t steps = 500 * scale;
    micro.fastest("c3f2_float_sgd_step", steps, kBlocks, [&] {
      Network net = initial;
      Tensor grad(Shape{c3f2.actions, 1, 1});
      for (std::size_t step = 0; step < steps; ++step) {
        const auto& [observation, targets] = views[step % views.size()];
        const Tensor& q = net.forward(observation);
        for (std::size_t i = 0; i < q.size(); ++i)
          grad[i] = (q[i] - targets[i]) / static_cast<float>(q.size());
        net.backward(grad);
        net.apply_gradients(0.02f);
      }
      g_sink = g_sink + net.forward(views[0].first)[0];
    });
  }

  // The fast C3F2's conv2 and conv3 backward on the active backend,
  // with the input gradient (as the imitation step runs them) and
  // without it, on gradients about half zero as imitation leaves them:
  // 40% of the output channels dead (all zero) and 15% of the other
  // entries. Then the weight transposes Conv2D's float forward makes
  // per call (one op is one float copied), and one imitation episode
  // (one op is one step; the trajectory runs on pretrain_imitation's
  // helper thread), each block from the same network, env and seed.
  {
    Rng rng(config.seed + 7);
    const kernels::KernelOps& ops = kernels::active();
    const auto conv_rows = [&](const char* with_gx, const char* without_gx,
                               const kernels::ConvShape& s) {
      const std::size_t wn =
          static_cast<std::size_t>(s.out_c) * s.in_c * s.kernel * s.kernel;
      const std::size_t xn = static_cast<std::size_t>(s.in_c) * s.in_h * s.in_w;
      const std::size_t plane = static_cast<std::size_t>(s.out_h) * s.out_w;
      std::vector<float> w(wn), x(xn), gy(s.out_c * plane);
      std::vector<float> grads(wn + s.out_c), gx(xn);
      std::vector<float> scratch(kernels::conv2d_backward_scratch(s));
      for (float& v : w) v = static_cast<float>(rng.normal(0.0, 0.1));
      for (float& v : x) v = static_cast<float>(rng.normal(0.0, 1.0));
      for (int oc = 0; oc < s.out_c; ++oc) {
        const bool dead = rng.bernoulli(0.4);
        for (std::size_t p = 0; p < plane; ++p)
          gy[oc * plane + p] = dead || rng.bernoulli(0.15)
                                   ? 0.0f
                                   : static_cast<float>(rng.normal(0.0, 0.01));
      }
      const std::size_t calls = 20'000 * scale;
      for (const bool input : {true, false})
        micro.fastest(input ? with_gx : without_gx, calls, kBlocks, [&] {
          for (std::size_t i = 0; i < calls; ++i)
            ops.conv2d_backward(w.data(), x.data(), gy.data(), grads.data(),
                                grads.data() + wn,
                                input ? gx.data() : nullptr, scratch.data(),
                                s);
          g_sink = g_sink + grads[0] + gx[0];
        });
    };
    conv_rows("conv2d_backward_conv2_gx", "conv2d_backward_conv2",
              {16, 9, 9, 32, 4, 4, 3, 2});
    conv_rows("conv2d_backward_conv3_gx", "conv2d_backward_conv3",
              {32, 4, 4, 32, 2, 2, 3, 1});

    const auto transpose_row = [&](const char* label, int rows, int cols) {
      std::vector<float> w(static_cast<std::size_t>(rows) * cols), wt(w.size());
      for (float& v : w) v = static_cast<float>(rng.normal(0.0, 0.1));
      const std::size_t calls = 20'000 * scale;
      micro.fastest(label, calls * w.size(), kBlocks, [&] {
        for (std::size_t i = 0; i < calls; ++i)
          ops.transpose(w.data(), wt.data(), rows, cols);
        g_sink = g_sink + wt[1];
      });
    };
    transpose_row("transpose_conv2_weights_per_float", 32, 16 * 9);
    transpose_row("transpose_conv3_weights_per_float", 32, 32 * 9);

    const C3F2Config c3f2 = C3F2Config::preset(C3F2Preset::kFast);
    const DroneWorld world = DroneWorld::indoor_long();
    const Network initial = make_c3f2(c3f2, rng);
    std::uint64_t steps = 0;
    double best = 0.0;
    for (int block = 0; block < kBlocks; ++block) {
      Network net = initial;
      DroneEnv env(world, drone_env_config_for(c3f2));
      Rng flight(config.seed + 8);
      const double start = perf::now();
      g_sink = g_sink + pretrain_imitation(net, env, 1, 0.02, 0.1, flight);
      const double seconds = perf::now() - start;
      steps = static_cast<std::uint64_t>(env.steps());
      if (block == 0 || seconds < best) best = seconds;
    }
    micro.record("imitation_episode_pipelined", steps, best);
  }

  // A Grid World MLP TD step at steady state (one thread, the default
  // middle-density map, fast scale): one probe forward, one cache-free
  // bootstrap, the backward terms and the commit of the ~145 words it
  // grades; then the same with a 1% stuck-at-1 mask set before warm-up,
  // whose bits each commit applies to the words it writes. Then the
  // commit those steps run and the weight codec, over a store trained
  // for 1,100 episodes.
  {
    const GridWorld world = GridWorld::preset(ObstacleDensity::kMiddle);
    // An agent after 100 warm-up episodes, from the seed alone.
    const auto warm_agent = [&](Rng& rng, bool stuck) {
      MlpQAgent agent(world, MlpQConfig{}, rng);
      if (stuck)
        agent.set_stuck(StuckAtMask::compile(FaultMap::sample(
            FaultType::kStuckAt1, 0.01, agent.weight_count(),
            agent.weights().format().total_bits(), rng)));
      constexpr int kWarmup = 100;
      for (int episode = 0; episode < kWarmup; ++episode)
        agent.run_training_episode(1.0 - 0.9 * episode / kWarmup, rng);
      return agent;
    };
    // Every block warms a fresh agent from the same seed and times its
    // next 200 episodes, so every block (and run) times the same TD
    // steps and the ops column repeats exactly.
    const auto time_td_steps = [&](const char* label, bool stuck) {
      const std::size_t episodes = 200 * scale;
      std::uint64_t steps = 0;
      double best = 0.0;
      for (int block = 0; block < kBlocks; ++block) {
        Rng rng(config.seed + 5);
        MlpQAgent agent = warm_agent(rng, stuck);
        const std::uint64_t steps_before = agent.training_steps();
        const double start = perf::now();
        for (std::size_t i = 0; i < episodes; ++i)
          g_sink = g_sink + agent.run_training_episode(0.1, rng);
        const double seconds = perf::now() - start;
        steps = agent.training_steps() - steps_before;
        if (block == 0 || seconds < best) best = seconds;
      }
      micro.record(label, steps, best);
    };
    time_td_steps("mlp_td_step", false);
    time_td_steps("mlp_td_step_stuck", true);
    // The commit and codec rows run on one agent of each kind, trained
    // in turn on one generator through warm-up and kBlocks blocks of
    // episodes: the codec times the plain agent's store after its 1,100
    // episodes, and the generator, past the stuck agent's 1,100, draws
    // the commit's masters.
    Rng rng(config.seed + 5);
    const auto train_blocks = [&](MlpQAgent& trained) {
      for (std::size_t i = 0; i < kBlocks * 200 * scale; ++i)
        g_sink = g_sink + trained.run_training_episode(0.1, rng);
    };
    MlpQAgent agent = warm_agent(rng, false);
    train_blocks(agent);
    {
      MlpQAgent stuck = warm_agent(rng, true);
      train_blocks(stuck);
    }

    // The four sgd_commit runs of one such step, laid out as the agent
    // lays them out: FC1's column `state` (state-major masters and copy,
    // natural-order words at stride `states`, no network parameters),
    // FC1's biases (the same, contiguous), FC2's row `action` (network
    // parameters contiguous, the transposed copy at stride `actions`)
    // and that row's bias. One op is one step's four runs; the state
    // and action advance each op so the column moves as a step's does.
    {
      const auto states = static_cast<std::size_t>(world.state_count());
      const auto hidden = static_cast<std::size_t>(MlpQConfig{}.hidden_units);
      const auto actions = static_cast<std::size_t>(GridWorld::action_count());
      const std::size_t fc1 = (states + 1) * hidden;
      const std::size_t fc2 = actions * hidden + actions;
      std::vector<float> master(fc1 + fc2);
      for (float& m : master) m = static_cast<float>(rng.normal(0.0, 1.0));
      std::vector<float> grad(hidden);
      for (float& g : grad) g = static_cast<float>(rng.normal(0.0, 0.05));
      std::vector<Word> words(master.size());
      std::vector<float> fc1_copy(fc1), fc2_params(fc2), fc2_copy(fc2);
      const kernels::KernelOps& ops = kernels::active();
      const QFormat fmt = MlpQConfig{}.format;
      const auto run = [&](std::size_t word, std::size_t word_stride,
                           float* m, float* param, std::size_t param_stride,
                           float* copy, std::size_t copy_stride,
                           std::size_t n) {
        kernels::CommitRun r;
        r.master = m;
        r.grad = grad.data();
        r.words = words.data() + word;
        r.word_stride = word_stride;
        r.param = param;
        r.param_stride = param_stride;
        r.copy = copy;
        r.copy_stride = copy_stride;
        r.n = n;
        ops.sgd_commit(r, 0.05f, fmt);
      };
      const std::size_t steps = 200'000 * scale;
      micro.fastest("sgd_commit_td_runs", steps, kBlocks, [&] {
        for (std::size_t step = 0; step < steps; ++step) {
          const std::size_t state = step * 37 % states;
          const std::size_t action = step % actions;
          const std::size_t row = action * hidden;
          run(state, states, master.data() + state * hidden, nullptr, 1,
              fc1_copy.data() + state * hidden, 1, hidden);
          run(states * hidden, 1, master.data() + states * hidden, nullptr, 1,
              fc1_copy.data() + states * hidden, 1, hidden);
          run(fc1 + row, 1, master.data() + fc1 + row, fc2_params.data() + row,
              1, fc2_copy.data() + action, actions, hidden);
          run(fc1 + actions * hidden + action, 1,
              master.data() + fc1 + actions * hidden + action,
              fc2_params.data() + actions * hidden + action, 1,
              fc2_copy.data() + actions * hidden + action, 1, 1);
        }
        g_sink = g_sink + fc1_copy[0] + fc2_params[0];
      });
    }

    const QVector& store = agent.weights();
    const QFormat& fmt = store.format();
    const std::vector<double> values = store.decode_all();
    std::vector<Word> words(values.size());
    const std::size_t passes = 100 * scale;
    micro.fastest("qformat_encode_trained_store", passes * values.size(),
                  kBlocks, [&] {
                    for (std::size_t pass = 0; pass < passes; ++pass)
                      for (std::size_t i = 0; i < values.size(); ++i)
                        words[i] = fmt.encode(
                            values[i] + 1e-3 * static_cast<double>(pass & 1));
                    g_sink = g_sink + static_cast<double>(words[0]);
                  });
    micro.fastest("qformat_decode_trained_store", passes * words.size(),
                  kBlocks, [&] {
                    double sum = 0.0;
                    for (std::size_t pass = 0; pass < passes; ++pass) {
                      const auto flip = static_cast<Word>(pass & 1);
                      for (std::size_t i = 0; i < words.size(); ++i)
                        sum += fmt.decode(words[i] ^ flip);
                    }
                    g_sink = g_sink + sum;
                  });
  }

  // The §5.2 overhead claim, measured end to end: one C3F2 inference
  // with and without weight protection. The protected run should be
  // within a few percent.
  {
    Rng rng(4);
    const C3F2Config c3f2 = C3F2Config::preset(C3F2Preset::kFast);
    Network net = make_c3f2(c3f2, rng);
    QuantizedInferenceEngine engine(net, QFormat::q_1_4_11(),
                                    c3f2.input_shape());
    Tensor input(c3f2.input_shape());
    input.fill(0.4f);
    const std::size_t ops = 200 * scale;
    {
      Rng run(5);
      micro.section("c3f2_inference", ops, [&] {
        for (std::size_t i = 0; i < ops; ++i)
          g_sink = g_sink + engine.infer(input, run)[0];
      });
    }
    {
      engine.enable_weight_protection(0.1);
      Rng run(5);
      micro.section("c3f2_inference_protected", ops, [&] {
        for (std::size_t i = 0; i < ops; ++i)
          g_sink = g_sink + engine.infer(input, run)[0];
      });
    }
    {
      // The per-trial cost batched campaigns pay between fault draws:
      // word-level golden restore of the whole weight image.
      const std::size_t resets = 20'000 * scale;
      micro.section("engine_reset_faults", resets, [&] {
        for (std::size_t i = 0; i < resets; ++i) engine.reset_faults();
        g_sink = g_sink + static_cast<double>(engine.weight_word_count());
      });
    }
  }

  std::printf("%s\n", table.render().c_str());
  JsonArtifact artifact(config, "overhead_micro");
  artifact.add("micro", table);
  print_shape_note(
      "c3f2_inference_protected lands within a few percent of "
      "c3f2_inference (the paper's <3% anomaly-detection overhead); a "
      "sparse fault draw (faultmap_sample_64k, BER 1e-3) costs less than "
      "one c3f2_inference, and even the dense draw "
      "(faultmap_sample_c3f2_ber0.1) costs about ten, paid once per "
      "flight rather than per inference, so campaigns are compute- not "
      "injection-bound");
  return 0;
}
