// Micro-benchmarks backing the paper's §5.2 claim that range-based
// anomaly detection costs <3% runtime, plus the cost of the injection
// primitives themselves (the tool-chain is advertised as enabling
// *rapid* fault analysis).
//
// Runs on the shared bench harness: FTNAV_* knobs and a JSON table via
// FTNAV_JSON_DIR. Nothing gates on these timings: ci/perf_gate.py times
// whole campaigns with perfbench/. Iteration counts are fixed
// (FTNAV_FULL=1 multiplies them by 5) so the ops column is stable run
// to run; only the timings vary.

#include <cstdio>

#include "bench_common.h"
#include "core/anomaly_detector.h"
#include "core/injector.h"
#include "nn/c3f2.h"
#include "nn/quantized_engine.h"
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
    const double seconds = perf::now() - start;
    table.add_row({name, std::to_string(ops),
                   format_double(seconds * 1e3, 2),
                   format_double(ops / (seconds > 0.0 ? seconds : 1e-12), 0)});
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
  Table table({"section", "ops", "ms_total", "ops_per_sec"});
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
      "c3f2_inference (the paper's <3% anomaly-detection overhead); the "
      "injection primitives are orders of magnitude cheaper than an "
      "inference, so campaigns are compute- not injection-bound");
  return 0;
}
