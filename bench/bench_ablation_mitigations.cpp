// Ablation bench: the design choices behind the two mitigations, and a
// head-to-head against the traditional redundancy baselines the paper
// argues against (§1/§2).
//
//   A. Anomaly-detector margin sweep (the paper fixes 10%): success on
//      the NN Grid World inference campaign as the margin varies.
//   B. Exploration-controller alpha sweep (the paper picks 0.8/0.4):
//      post-fault training success as alpha varies.
//   C. Protection shoot-out at equal memory BER: unprotected vs
//      range-based anomaly detection vs SEC-DED ECC vs TMR on a faulty
//      quantized policy store, with storage overhead reported -- the
//      quantitative version of "ECC/TMR are effective but costly".

#include <cstdio>

#include "bench_common.h"
#include "core/anomaly_detector.h"
#include "core/redundancy.h"
#include "experiments/grid_inference.h"
#include "experiments/grid_training.h"
#include "rl/tabular_q.h"

namespace {

using namespace ftnav;

/// Success of a greedy rollout from a given (possibly faulty) table.
bool rollout(const GridWorld& env, const QVector& table) {
  int state = env.source_state();
  for (int step = 0; step < 100; ++step) {
    int best = 0;
    double best_value = -1e30;
    for (int action = 0; action < GridWorld::action_count(); ++action) {
      const double value = table.get(
          static_cast<std::size_t>(state) * GridWorld::action_count() +
          static_cast<std::size_t>(action));
      if (value > best_value) {
        best_value = value;
        best = action;
      }
    }
    const GridWorld::StepResult result = env.step(state, best);
    if (result.done) return result.reward > 0.0;
    state = result.next_state;
  }
  return false;
}

}  // namespace

int main() {
  using namespace ftnav;
  using namespace ftnav::benchharness;
  const BenchConfig config = bench_config_from_env();
  print_banner("Ablation", "mitigation design choices and redundancy "
               "baselines", config);

  // ---- A: anomaly-detector margin sweep (registry scenario) -------------
  {
    std::printf("--- A. detector margin sweep (NN Grid World, "
                "Transient-M weight faults @ BER 0.8%%) ---\n");
    run_scenario(
        "ablation-detector-margin", config,
        {{"repeats", std::to_string(config.resolve_repeats(40, 300))},
         {"seed", std::to_string(config.seed)}});
    print_shape_note(
        "tiny margins flag healthy values near the range edge; huge "
        "margins let corrupted values through -- the paper's 10% sits "
        "in the flat sweet spot");
  }

  // ---- B: controller alpha sweep ----------------------------------------
  {
    std::printf("--- B. exploration-boost alpha sweep (tabular, transient "
                "BER 1%% at 75%% of training) ---\n");
    Table table({"alpha", "success %"});
    const int repeats = config.resolve_repeats(10, 50);
    for (double alpha : {0.0, 0.2, 0.4, 0.8, 1.0}) {
      int successes = 0;
      for (int repeat = 0; repeat < repeats; ++repeat) {
        GridTrainSpec spec;
        spec.kind = GridPolicyKind::kTabular;
        spec.episodes = 1000;
        spec.transient_ber = 0.01;
        spec.transient_episode = 750;
        spec.mitigated = true;
        spec.alpha_override = alpha;
        spec.seed = config.seed + 31 * repeat;
        if (run_grid_training(spec).success) ++successes;
      }
      table.add_row({format_double(alpha, 1),
                     format_double(100.0 * successes / repeats, 0)});
    }
    std::printf("%s\n", table.render().c_str());
    print_shape_note(
        "alpha = 0 reduces to the unmitigated baseline; larger boosts "
        "recover more reliably (at the cost of slower settling, Fig. 9c)");
  }

  // ---- C: protection shoot-out -------------------------------------------
  {
    std::printf("--- C. protection shoot-out at equal memory BER "
                "(tabular policy store) ---\n");
    const GridWorld env = GridWorld::preset(ObstacleDensity::kMiddle);
    TabularQAgent agent(env);
    Rng rng(config.seed);
    for (int episode = 0; episode < 2000; ++episode) {
      agent.run_training_episode(
          std::max(0.05, 1.0 - episode / 100.0), rng);
    }
    // Deploy the policy in a wide 16-bit store: the 8-bit table's
    // values fill its whole format, leaving a range detector no
    // headroom (see "Known deviations from the paper" in README.md);
    // ECC/TMR are format-agnostic.
    QVector golden(QFormat::q_1_7_8(), agent.table().size());
    for (std::size_t i = 0; i < golden.size(); ++i)
      golden.set(i, agent.table().get(i));
    RangeAnomalyDetector detector(golden.format(), 1, 0.1);
    for (double v : golden.decode_all()) detector.calibrate(0, v);
    detector.finalize();

    const int repeats = config.resolve_repeats(100, 1000);
    Table table({"BER", "unprotected", "anomaly det. (+0% bits)",
                 "SEC-DED ECC (+62% bits)", "TMR (+200% bits)"});
    for (double ber : {0.002, 0.005, 0.01, 0.02, 0.05}) {
      int wins_plain = 0, wins_detector = 0, wins_ecc = 0, wins_tmr = 0;
      for (int repeat = 0; repeat < repeats; ++repeat) {
        Rng fault_rng = rng.split(static_cast<std::uint64_t>(ber * 1e6) +
                                  static_cast<std::uint64_t>(repeat));
        // Unprotected + detector share one faulty copy.
        QVector faulty = golden;
        FaultMap map = FaultMap::sample(FaultType::kTransientFlip, ber,
                                        faulty.size(),
                                        faulty.format().total_bits(),
                                        fault_rng);
        map.apply_once(faulty.words());
        wins_plain += rollout(env, faulty) ? 1 : 0;

        QVector filtered = faulty;
        for (std::size_t i = 0; i < filtered.size(); ++i)
          if (detector.is_anomalous_word(0, filtered.word(i)))
            filtered.set(i, 0.0);
        wins_detector += rollout(env, filtered) ? 1 : 0;

        // ECC: the same BER over the larger codeword memory.
        EccProtectedStore ecc(golden);
        const std::size_t ecc_bits = ecc.size() * ecc.raw_bits();
        const std::size_t ecc_flips =
            static_cast<std::size_t>(ber * ecc_bits);
        for (std::size_t k = 0; k < ecc_flips; ++k) {
          const std::uint64_t pos = fault_rng.below(ecc_bits);
          ecc.raw()[pos / ecc.raw_bits()] ^=
              std::uint64_t{1} << (pos % ecc.raw_bits());
        }
        wins_ecc += rollout(env, ecc.snapshot()) ? 1 : 0;

        // TMR: the same BER over the 3x replica memory.
        TmrStore tmr(golden);
        FaultMap tmr_map = FaultMap::sample(
            FaultType::kTransientFlip, ber, tmr.raw().size(),
            golden.format().total_bits(), fault_rng);
        tmr_map.apply_once(tmr.raw());
        wins_tmr += rollout(env, tmr.snapshot()) ? 1 : 0;
      }
      table.add_row(
          {format_double(ber * 100.0, 1) + "%",
           format_double(100.0 * wins_plain / repeats, 0),
           format_double(100.0 * wins_detector / repeats, 0),
           format_double(100.0 * wins_ecc / repeats, 0),
           format_double(100.0 * wins_tmr / repeats, 0)});
    }
    std::printf("%s\n", table.render().c_str());
    print_shape_note(
        "ECC and TMR recover almost everything but cost 62% / 200% extra "
        "storage; the range detector recovers a large share of the gap "
        "with zero redundant bits -- the paper's cost-effectiveness "
        "argument in one table");
  }
  return 0;
}
