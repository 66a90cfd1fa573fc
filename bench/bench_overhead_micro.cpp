// Micro-benchmarks backing the paper's §5.2 claim that range-based
// anomaly detection costs <3% runtime, plus the cost of the injection
// primitives themselves (the tool-chain is advertised as enabling
// *rapid* fault analysis), of the passes of a quantized C3F2
// inference besides its MACs (activation quantization, max-pool), on
// the active kernel backend (FTNAV_SIMD), and of a Grid World MLP TD
// step and the weight codec it commits through.
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
#include "nn/c3f2.h"
#include "nn/kernels/kernels.h"
#include "nn/quantized_engine.h"
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

  // A Grid World MLP TD step at steady state (one thread, the default
  // middle-density map, fast scale): one probe forward, one cache-free
  // bootstrap, the backward terms and the commit of the ~145 words it
  // grades; then the same with a 1% stuck-at-1 mask set before warm-up,
  // whose bits each commit applies to the words it writes. Then the
  // weight codec those commits run, over the trained store. Each row
  // keeps the fastest of five timed blocks: on a shared VM one block's
  // time can move by 2x from run to run.
  {
    constexpr int kBlocks = 5;
    const GridWorld world = GridWorld::preset(ObstacleDensity::kMiddle);
    Rng rng(config.seed + 5);
    const auto time_td_steps = [&](const char* label, MlpQAgent& agent) {
      constexpr int kWarmup = 100;
      for (int episode = 0; episode < kWarmup; ++episode)
        agent.run_training_episode(1.0 - 0.9 * episode / kWarmup, rng);
      const std::size_t episodes = 200 * scale;
      std::uint64_t best_steps = 0;
      double best_seconds = 0.0;
      for (int block = 0; block < kBlocks; ++block) {
        const std::uint64_t steps_before = agent.training_steps();
        const double start = perf::now();
        for (std::size_t i = 0; i < episodes; ++i)
          g_sink = g_sink + agent.run_training_episode(0.1, rng);
        const double seconds = perf::now() - start;
        const std::uint64_t steps = agent.training_steps() - steps_before;
        if (block == 0 || seconds * best_steps < best_seconds * steps) {
          best_steps = steps;
          best_seconds = seconds;
        }
      }
      micro.record(label, best_steps, best_seconds);
    };
    MlpQAgent agent(world, MlpQConfig{}, rng);
    time_td_steps("mlp_td_step", agent);
    {
      MlpQAgent stuck(world, MlpQConfig{}, rng);
      stuck.set_stuck(StuckAtMask::compile(FaultMap::sample(
          FaultType::kStuckAt1, 0.01, stuck.weight_count(),
          stuck.weights().format().total_bits(), rng)));
      time_td_steps("mlp_td_step_stuck", stuck);
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
