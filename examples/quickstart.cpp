// Quickstart: the fault-injection tool-chain in ~60 lines.
//
// Trains a tabular Q-learning policy on Grid World, injects transient
// bit-flips into its quantized Q-table at increasing bit error rates,
// and shows how the greedy policy degrades -- then repairs the worst
// case with range-based anomaly detection.
//
// Build & run:   ./build/examples/quickstart

#include <cstdio>

#include "core/anomaly_detector.h"
#include "core/fault_model.h"
#include "envs/gridworld.h"
#include "rl/tabular_q.h"

int main() {
  using namespace ftnav;

  // 1. Environment and agent (8-bit quantized Q-table). The policy
  // succeeds when its greedy rollout from the source reaches the goal.
  const GridWorld world = GridWorld::preset(ObstacleDensity::kMiddle);
  TabularQAgent agent(world);
  const auto reaches_goal = [&] {
    return world.rollout(
               [&](int state) { return agent.greedy_action(state); },
               100) > 0.0;
  };
  std::printf("Grid World (middle density):\n%s\n", world.render().c_str());

  // 2. Train with a decaying epsilon-greedy schedule.
  Rng rng(42);
  const int episodes = 1500;
  for (int episode = 0; episode < episodes; ++episode) {
    const double epsilon =
        std::max(0.05, 1.0 - static_cast<double>(episode) / 150.0);
    agent.run_training_episode(epsilon, rng);
  }
  std::printf("trained: greedy policy reaches the goal: %s\n\n",
              reaches_goal() ? "yes" : "no");

  // 3. Inject transient faults at increasing BER and watch the policy.
  const QVector golden = agent.table();
  std::printf("%-8s %-10s %s\n", "BER", "faulty bits", "greedy success");
  for (double ber : {0.0, 0.001, 0.005, 0.01, 0.05}) {
    std::size_t successes = 0;
    const int repeats = 50;
    for (int repeat = 0; repeat < repeats; ++repeat) {
      agent.table() = golden;
      const FaultMap map = FaultMap::sample(
          FaultType::kTransientFlip, ber, agent.table().size(),
          agent.table().format().total_bits(), rng);
      agent.inject_transient(map);
      if (reaches_goal()) ++successes;
    }
    std::printf("%-8.3f %-10zu %zu/%d\n", ber,
                fault_bits_for_ber(ber, golden.size(),
                                   golden.format().total_bits()),
                successes, repeats);
  }

  // 4. Mitigation: range-based anomaly detection. The detector needs
  // integer headroom above the trained value range, so deploy the
  // policy in a wide 16-bit store (the 8-bit table's values fill its
  // whole format -- exactly Fig. 7e's range-vs-resolution lesson).
  const QFormat wide = QFormat::q_1_7_8();
  QVector wide_table(wide, golden.size());
  for (std::size_t i = 0; i < golden.size(); ++i)
    wide_table.set(i, golden.get(i));

  RangeAnomalyDetector detector(wide, 1, 0.1);
  for (double v : wide_table.decode_all()) detector.calibrate(0, v);
  detector.finalize();
  std::printf("\ncalibrated detector: %s", detector.describe().c_str());

  // Compare survival with and without the detector over many upsets.
  int wins_plain = 0, wins_filtered = 0, detections = 0;
  const int trials = 50;
  for (int trial = 0; trial < trials; ++trial) {
    QVector faulty = wide_table;
    const FaultMap heavy =
        FaultMap::sample(FaultType::kTransientFlip, 0.01, faulty.size(),
                         wide.total_bits(), rng);
    heavy.apply_once(faulty.words());
    for (int filter = 0; filter < 2; ++filter) {
      for (std::size_t i = 0; i < faulty.size(); ++i) {
        double value = faulty.get(i);
        if (filter && detector.is_anomalous_word(0, faulty.word(i))) {
          value = 0.0;  // recovery: skip the broken value
          ++detections;
        }
        agent.table().set(i, value);
      }
      (filter ? wins_filtered : wins_plain) +=
          reaches_goal() ? 1 : 0;
    }
  }
  std::printf("BER=1%% upsets on the wide store (%d trials): "
              "unprotected %d/%d, with detector %d/%d (%d values "
              "skipped)\n",
              trials, wins_plain, trials, wins_filtered, trials,
              detections);
  return 0;
}
