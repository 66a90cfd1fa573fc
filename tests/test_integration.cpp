// Cross-module integration tests: miniature end-to-end versions of the
// paper's pipelines, exercising environment -> agent -> fault tool-chain
// -> mitigation together.

#include <gtest/gtest.h>

#include "core/anomaly_detector.h"
#include "core/redundancy.h"
#include "experiments/drone_policy.h"
#include "experiments/grid_training.h"
#include "nn/quantized_engine.h"
#include "nn/serialize.h"
#include "rl/tabular_q.h"

#include <cstdio>

namespace ftnav {
namespace {

/// True when the agent's greedy rollout from the source reaches the goal.
bool reaches_goal(const TabularQAgent& agent) {
  return agent.env().rollout(
             [&](int state) { return agent.greedy_action(state); },
             agent.config().max_steps) > 0.0;
}

TEST(Integration, TrainInjectMitigateTabularPipeline) {
  // The quickstart pipeline end to end: train, corrupt heavily, filter
  // with the range detector, and regain the goal.
  const GridWorld env = GridWorld::preset(ObstacleDensity::kLow);
  TabularQAgent agent(env);
  Rng rng(99);
  for (int episode = 0; episode < 1500; ++episode)
    agent.run_training_episode(std::max(0.05, 1.0 - episode / 100.0), rng);
  ASSERT_TRUE(reaches_goal(agent));

  // Range detection needs integer headroom above the trained values;
  // hold the deployed policy in a wide 16-bit store (the 8-bit table's
  // values fill its whole format -- Fig. 7e's range-vs-resolution
  // lesson applies to the table as well).
  const QFormat wide = QFormat::q_1_7_8();
  QVector wide_golden(wide, agent.table().size());
  for (std::size_t i = 0; i < wide_golden.size(); ++i)
    wide_golden.set(i, agent.table().get(i));
  RangeAnomalyDetector detector(wide, 1, 0.1);
  for (double v : wide_golden.decode_all()) detector.calibrate(0, v);
  detector.finalize();

  int unfiltered_wins = 0, filtered_wins = 0;
  for (int repeat = 0; repeat < 30; ++repeat) {
    QVector faulty = wide_golden;
    const FaultMap map =
        FaultMap::sample(FaultType::kTransientFlip, 0.02, faulty.size(),
                         wide.total_bits(), rng);
    map.apply_once(faulty.words());
    const auto read_back = [&](bool filter) {
      for (std::size_t i = 0; i < faulty.size(); ++i) {
        double value = faulty.get(i);
        if (filter && detector.is_anomalous_word(0, faulty.word(i)))
          value = 0.0;
        agent.table().set(i, value);
      }
      return reaches_goal(agent);
    };
    unfiltered_wins += read_back(false) ? 1 : 0;
    filtered_wins += read_back(true) ? 1 : 0;
  }
  EXPECT_GT(filtered_wins, unfiltered_wins);
}

TEST(Integration, DronePolicyThroughSerializationAndEngine) {
  // Offline-train, serialize, reload into a fresh network, run through
  // the quantized engine with faults and hardening.
  const DroneWorld world = DroneWorld::indoor_long();
  DronePolicySpec spec;
  spec.imitation_episodes = 3;
  spec.ddqn_episodes = 0;
  spec.env_max_steps = 60;
  spec.env_max_distance = 40.0;
  spec.seed = 5;
  DronePolicyBundle bundle = train_drone_policy(world, spec);

  const std::string path = "/tmp/ftnav_integration_policy.bin";
  save_network(path, bundle.network);
  Rng rng(6);
  Network reloaded = make_c3f2(bundle.c3f2, rng);
  load_network(path, reloaded);
  std::remove(path.c_str());

  QuantizedInferenceEngine engine(reloaded, QFormat::drone_weights(),
                                  bundle.c3f2.input_shape());
  Rng run(7);
  const double clean =
      mean_safe_flight(engine, world, bundle.env_config, 3, run);
  EXPECT_GT(clean, 3.0);

  // Heavy weight faults collapse flight; hardening recovers some of it.
  Rng fault_rng(8);
  const FaultMap map = FaultMap::sample(
      FaultType::kTransientFlip, 0.05, engine.weight_word_count(),
      engine.format().total_bits(), fault_rng);
  engine.inject_weight_faults(map);
  const double faulty =
      mean_safe_flight(engine, world, bundle.env_config, 3, run);
  engine.enable_weight_protection(0.1);
  const double hardened =
      mean_safe_flight(engine, world, bundle.env_config, 3, run);
  EXPECT_GE(hardened + 1e-9, faulty);
}

TEST(Integration, MitigatedTrainingRunProducesTelemetry) {
  GridTrainSpec spec;
  spec.kind = GridPolicyKind::kTabular;
  spec.episodes = 800;
  spec.permanent_type = FaultType::kStuckAt1;
  spec.permanent_ber = 0.004;
  spec.mitigated = true;
  spec.seed = 77;
  const GridTrainResult result = run_grid_training(spec);
  // Under a harmful permanent fault the controller must have reacted.
  EXPECT_GE(result.permanent_detections + result.transient_detections, 1);
  EXPECT_GT(result.peak_exploration, 0.05);
}

TEST(Integration, EccProtectedTableTrainsAndSurvivesScrubbedUpsets) {
  // A Q-table held in an ECC store with periodic scrubbing survives a
  // continuous trickle of upsets that would corrupt a bare table.
  const GridWorld env = GridWorld::preset(ObstacleDensity::kLow);
  TabularQAgent agent(env);
  Rng rng(11);
  for (int episode = 0; episode < 1500; ++episode)
    agent.run_training_episode(std::max(0.05, 1.0 - episode / 100.0), rng);
  ASSERT_TRUE(reaches_goal(agent));

  EccProtectedStore store(agent.table());
  const std::size_t bits = store.size() * store.raw_bits();
  // Ten rounds of sparse upsets with a scrub after each round.
  for (int round = 0; round < 10; ++round) {
    for (int k = 0; k < 4; ++k) {
      const std::uint64_t pos = rng.below(bits);
      store.raw()[pos / store.raw_bits()] ^=
          std::uint64_t{1} << (pos % store.raw_bits());
    }
    store.scrub();
  }
  EXPECT_EQ(store.uncorrectable(), 0u);
  agent.table() = store.snapshot();
  EXPECT_TRUE(reaches_goal(agent));
}

TEST(Integration, SeedDeterminismAcrossTheFullPipeline) {
  // Identical seeds -> bit-identical campaign results, across env,
  // agent, injector and controller.
  auto run_once = [] {
    GridTrainSpec spec;
    spec.kind = GridPolicyKind::kTabular;
    spec.episodes = 400;
    spec.transient_ber = 0.008;
    spec.transient_episode = 200;
    spec.mitigated = true;
    spec.record_returns = true;
    spec.seed = 123;
    return run_grid_training(spec);
  };
  const GridTrainResult a = run_once();
  const GridTrainResult b = run_once();
  EXPECT_EQ(a.returns, b.returns);
  EXPECT_EQ(a.success, b.success);
  EXPECT_EQ(a.transient_detections, b.transient_detections);
  EXPECT_DOUBLE_EQ(a.peak_exploration, b.peak_exploration);
}

}  // namespace
}  // namespace ftnav
