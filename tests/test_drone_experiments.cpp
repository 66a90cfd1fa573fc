// Tests for the drone experiment drivers (Fig. 7/10b machinery) at
// miniature scale: tiny networks, few repeats, short episodes.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <functional>
#include <memory>

#include "core/injector.h"
#include "experiments/drone_campaigns.h"
#include "nn/quantized_engine.h"
#include "util/stats.h"

namespace ftnav {
namespace {

DronePolicySpec tiny_policy() {
  DronePolicySpec spec;
  spec.preset = C3F2Preset::kFast;
  spec.imitation_episodes = 2;
  spec.ddqn_episodes = 0;
  spec.seed = 3;
  spec.env_max_steps = 60;
  spec.env_max_distance = 40.0;
  return spec;
}

DroneInferenceCampaignConfig tiny_campaign() {
  DroneInferenceCampaignConfig config;
  config.policy = tiny_policy();
  config.bers = {0.0, 1e-2};
  config.repeats = 2;
  config.seed = 5;
  return config;
}

/// Shrinks env budgets inside a bundle for fast tests.
DroneEnvConfig short_env(const DronePolicyBundle& bundle) {
  DroneEnvConfig config = bundle.env_config;
  config.max_steps = 60;
  config.max_distance = 40.0;
  return config;
}

TEST(DronePolicy, EnvConfigMatchesPreset) {
  const C3F2Config c3f2 = C3F2Config::preset(C3F2Preset::kFast);
  const DroneEnvConfig env_config = drone_env_config_for(c3f2);
  EXPECT_EQ(env_config.camera.image_hw, c3f2.input_hw);
  EXPECT_GT(env_config.max_distance, 100.0);
}

TEST(DronePolicy, TrainingProducesCompetentPolicy) {
  const DroneWorld world = DroneWorld::indoor_long();
  DronePolicySpec spec = tiny_policy();
  spec.imitation_episodes = 5;
  DronePolicyBundle bundle = train_drone_policy(world, spec);
  Rng rng(7);
  const double msf =
      mean_safe_flight(bundle.network, world, short_env(bundle), 2, rng);
  EXPECT_GT(msf, 5.0);
}

TEST(DronePolicy, QuantizedEngineMsfTracksFloatMsf) {
  const DroneWorld world = DroneWorld::indoor_long();
  DronePolicyBundle bundle = train_drone_policy(world, tiny_policy());
  Rng rng(9);
  const double float_msf =
      mean_safe_flight(bundle.network, world, short_env(bundle), 2, rng);
  QuantizedInferenceEngine engine(bundle.network, QFormat::drone_weights(),
                                  bundle.c3f2.input_shape());
  Rng rng2(9);
  const double quantized_msf =
      mean_safe_flight(engine, world, short_env(bundle), 2, rng2);
  // 16-bit quantization must not collapse flight quality.
  EXPECT_GT(quantized_msf, 0.4 * float_msf);
}

TEST(DroneCampaign, EnvironmentSweepCoversBothWorlds) {
  DroneInferenceCampaignConfig config = tiny_campaign();
  const EnvironmentSweepResult result = run_environment_sweep(config);
  ASSERT_EQ(result.environments.size(), 2u);
  EXPECT_EQ(result.environments[0], "indoor-long");
  EXPECT_EQ(result.environments[1], "indoor-vanleer");
  for (const auto& row : result.msf) {
    ASSERT_EQ(row.size(), config.bers.size());
    for (double msf : row) EXPECT_GE(msf, 0.0);
  }
}

TEST(DroneCampaign, LocationSweepHasFourLocations) {
  const DroneWorld world = DroneWorld::indoor_long();
  const LocationSweepResult result =
      run_location_sweep(world, tiny_campaign());
  ASSERT_EQ(result.msf.size(), 4u);
  for (const auto& row : result.msf) EXPECT_EQ(row.size(), 2u);
}

TEST(DroneCampaign, LocationNames) {
  EXPECT_EQ(to_string(DroneFaultLocation::kInput), "Input");
  EXPECT_EQ(to_string(DroneFaultLocation::kWeightTransient), "Weight");
  EXPECT_EQ(to_string(DroneFaultLocation::kActivationTransient), "Act (T)");
  EXPECT_EQ(to_string(DroneFaultLocation::kActivationPermanent), "Act (P)");
}

TEST(DroneCampaign, LayerSweepCoversC3F2) {
  const DroneWorld world = DroneWorld::indoor_long();
  const LayerSweepResult result = run_layer_sweep(world, tiny_campaign());
  ASSERT_EQ(result.layers.size(), kC3F2ParameteredLayers);
  EXPECT_EQ(result.layers.front(), "Conv1");
  EXPECT_EQ(result.layers.back(), "FC2");
  EXPECT_EQ(result.msf.size(), kC3F2ParameteredLayers);
}

TEST(DroneCampaign, DataTypeSweepUsesPaperFormats) {
  const DroneWorld world = DroneWorld::indoor_long();
  const DataTypeSweepResult result =
      run_data_type_sweep(world, tiny_campaign());
  ASSERT_EQ(result.formats.size(), 3u);
  EXPECT_EQ(result.formats[0], "Q(1,4,11)sm");
  EXPECT_EQ(result.formats[2], "Q(1,10,5)sm");
}

TEST(DroneCampaign, FaultFreeColumnMatchesUnsharedBaseline) {
  // The location and layer sweeps fly one fault-free baseline per
  // engine slot and hand it to every row's BER-0 cell. The mitigation
  // comparison's baseline BER-0 cell flies the same stream on the same
  // engine configuration by itself, so every shared entry must equal it.
  const DroneWorld world = DroneWorld::indoor_long();
  const DroneInferenceCampaignConfig config = tiny_campaign();
  ASSERT_EQ(config.bers[0], 0.0);
  for (int threads : {1, 4}) {
    ScenarioContext context;
    context.threads = threads;
    const double unshared =
        run_drone_mitigation_comparison(world, config, context)
            .baseline_msf[0];
    EXPECT_GT(unshared, 0.0);
    const LocationSweepResult locations =
        run_location_sweep(world, config, context);
    ASSERT_EQ(locations.msf.size(), 4u);
    for (const auto& row : locations.msf)
      EXPECT_EQ(row[0], unshared) << "threads " << threads;
    const LayerSweepResult layers = run_layer_sweep(world, config, context);
    ASSERT_EQ(layers.msf.size(), kC3F2ParameteredLayers);
    for (const auto& row : layers.msf)
      EXPECT_EQ(row[0], unshared) << "threads " << threads;
  }
}

/// A cell as the sweeps flew it while a campaign trial was a whole
/// cell: `repeats` flights on one fresh engine, flight r on the
/// (r + 1)-th split (salt r + 1) of the cell's generator, folded by
/// RunningStats in repeat order; detections are the engine's total.
struct ReferenceCell {
  double msf = 0.0;
  std::uint64_t detections = 0;
};

using Arm = std::function<void(QuantizedInferenceEngine&, Rng&)>;

ReferenceCell reference_cell(std::unique_ptr<QuantizedInferenceEngine> engine,
                             const DroneWorld& world,
                             const DroneEnvConfig& env_config, int repeats,
                             Rng rng, const Arm& arm) {
  RunningStats distances;
  DroneEnv env(world, env_config);
  for (int repeat = 0; repeat < repeats; ++repeat) {
    Rng flight = rng.split(static_cast<std::uint64_t>(repeat) + 1);
    engine->reset_faults();
    arm(*engine, flight);
    Tensor observation = env.reset(flight);
    while (!env.done()) {
      (void)env.step(static_cast<int>(engine->act(observation, flight)));
      observation = env.observe();
    }
    distances.add(env.flight_distance());
  }
  const RangeAnomalyDetector* detector = engine->weight_detector();
  return {distances.mean(), detector != nullptr ? detector->detections() : 0};
}

/// Every cell of a sweep by the reference loop: a BER-0 cell flies the
/// fixed stream `baseline_seed(row)` without a fault, cell (row, col)
/// the campaign's stream (seed ^ tag, row * bers + col) armed by
/// `arm(row, ber)`; `engine(row)` builds a fresh engine.
std::vector<std::vector<ReferenceCell>> reference_grid(
    const DroneInferenceCampaignConfig& config, std::uint64_t tag,
    std::size_t rows,
    const std::function<std::unique_ptr<QuantizedInferenceEngine>(
        std::size_t)>& engine,
    const std::function<const DroneWorld&(std::size_t)>& world,
    const std::function<DroneEnvConfig(std::size_t)>& env_config,
    const std::function<std::uint64_t(std::size_t)>& baseline_seed,
    const std::function<Arm(std::size_t, double)>& arm) {
  std::vector<std::vector<ReferenceCell>> grid(rows);
  const std::size_t cols = config.bers.size();
  for (std::size_t row = 0; row < rows; ++row)
    for (std::size_t col = 0; col < cols; ++col) {
      const double ber = config.bers[col];
      grid[row].push_back(
          ber <= 0.0
              ? reference_cell(engine(row), world(row), env_config(row),
                               config.repeats, Rng(baseline_seed(row)),
                               [](QuantizedInferenceEngine&, Rng&) {})
              : reference_cell(engine(row), world(row), env_config(row),
                               config.repeats,
                               Rng::stream(config.seed ^ tag, row * cols + col),
                               arm(row, ber)));
    }
  return grid;
}

void expect_msf(const std::vector<std::vector<ReferenceCell>>& reference,
                const std::vector<std::vector<double>>& msf) {
  ASSERT_EQ(reference.size(), msf.size());
  for (std::size_t row = 0; row < msf.size(); ++row) {
    ASSERT_EQ(reference[row].size(), msf[row].size());
    for (std::size_t col = 0; col < msf[row].size(); ++col)
      EXPECT_EQ(std::bit_cast<std::uint64_t>(reference[row][col].msf),
                std::bit_cast<std::uint64_t>(msf[row][col]))
          << "row " << row << " column " << col;
  }
}

Arm weight_transient(double ber) {
  return [ber](QuantizedInferenceEngine& engine, Rng& rng) {
    engine.inject_weight_faults(FaultMap::sample(
        FaultType::kTransientFlip, ber, engine.weight_word_count(),
        engine.format().total_bits(), rng));
  };
}

TEST(DroneCampaign, FlightTrialsMatchCellReference) {
  // One flight per campaign trial, with shard-resident engines, must
  // reproduce the per-cell loop cell for cell, at 1 and 4 threads,
  // with a BER-0 column. Five flights per cell make each cell's fold
  // depend on the order of its flights.
  DroneInferenceCampaignConfig config = tiny_campaign();
  config.bers = {0.0, 1e-3, 1e-1};
  config.repeats = 5;
  const DroneWorld world = DroneWorld::indoor_long();
  const DronePolicyBundle bundle = train_drone_policy(world, config.policy);
  const auto engine_with = [&](const QFormat& format) {
    return std::make_unique<QuantizedInferenceEngine>(
        bundle.network, format, bundle.c3f2.input_shape());
  };
  const auto drone_engine = [&](std::size_t) {
    return engine_with(QFormat::drone_weights());
  };
  const auto one_world = [&](std::size_t) -> const DroneWorld& {
    return world;
  };
  const auto one_env = [&](std::size_t) { return bundle.env_config; };
  const auto baseline = [&](std::size_t) { return config.seed ^ 0xb05e; };

  const auto locations = reference_grid(
      config, 0x7c, 4, drone_engine, one_world, one_env, baseline,
      [](std::size_t row, double ber) -> Arm {
        return [row, ber](QuantizedInferenceEngine& e, Rng& r) {
          switch (static_cast<DroneFaultLocation>(row)) {
            case DroneFaultLocation::kInput:
              e.set_input_transient_ber(ber);
              break;
            case DroneFaultLocation::kWeightTransient:
              weight_transient(ber)(e, r);
              break;
            case DroneFaultLocation::kActivationTransient:
              e.set_activation_transient_ber(ber);
              break;
            case DroneFaultLocation::kActivationPermanent:
              e.set_activation_stuck(StuckAtMask::compile(FaultMap::sample(
                  FaultType::kStuckAt1, ber, e.activation_buffer_size(),
                  e.format().total_bits(), r)));
              break;
          }
        };
      });
  const auto layers = reference_grid(
      config, 0x7d, kC3F2ParameteredLayers, drone_engine, one_world, one_env,
      baseline, [](std::size_t layer, double ber) -> Arm {
        return [layer, ber](QuantizedInferenceEngine& e, Rng& r) {
          e.inject_layer_weight_faults(layer, ber, r);
        };
      });
  const std::vector<QFormat> formats = {
      QFormat::q_1_4_11(Encoding::kSignMagnitude),
      QFormat::q_1_7_8(Encoding::kSignMagnitude),
      QFormat::q_1_10_5(Encoding::kSignMagnitude)};
  const auto data_types = reference_grid(
      config, 0x7e, formats.size(),
      [&](std::size_t row) { return engine_with(formats[row]); }, one_world,
      one_env, baseline,
      [](std::size_t, double ber) { return weight_transient(ber); });
  const auto mitigation = reference_grid(
      config, 0x7f, 2,
      [&](std::size_t row) {
        auto engine = drone_engine(row);
        if (row == 1) engine->enable_weight_protection(0.1);
        return engine;
      },
      one_world, one_env, baseline,
      [](std::size_t, double ber) { return weight_transient(ber); });
  const std::vector<DroneWorld> worlds = {DroneWorld::indoor_long(),
                                          DroneWorld::indoor_vanleer()};
  std::vector<DronePolicyBundle> bundles;
  for (const DroneWorld& w : worlds)
    bundles.push_back(train_drone_policy(w, config.policy));
  const auto environments = reference_grid(
      config, 0x7b, worlds.size(),
      [&](std::size_t env) {
        return std::make_unique<QuantizedInferenceEngine>(
            bundles[env].network, QFormat::drone_weights(),
            bundles[env].c3f2.input_shape());
      },
      [&](std::size_t env) -> const DroneWorld& { return worlds[env]; },
      [&](std::size_t env) { return bundles[env].env_config; },
      [&](std::size_t env) { return config.seed ^ (0xb05e + env + 1); },
      [](std::size_t, double ber) { return weight_transient(ber); });
  std::uint64_t reference_detections = 0;
  for (const ReferenceCell& cell : mitigation[1])
    reference_detections += cell.detections;
  EXPECT_GT(reference_detections, 0u);

  for (int threads : {1, 4}) {
    SCOPED_TRACE(testing::Message() << "threads " << threads);
    ScenarioContext context;
    context.threads = threads;
    expect_msf(locations, run_location_sweep(world, config, context).msf);
    expect_msf(layers, run_layer_sweep(world, config, context).msf);
    expect_msf(data_types, run_data_type_sweep(world, config, context).msf);
    expect_msf(environments, run_environment_sweep(config, context).msf);
    const DroneMitigationResult mitigated =
        run_drone_mitigation_comparison(world, config, context);
    expect_msf(mitigation,
               {mitigated.baseline_msf, mitigated.mitigated_msf});
    EXPECT_EQ(mitigated.detections, reference_detections);
  }
}

TEST(DroneCampaign, MitigationComparisonPopulatesBothArms) {
  const DroneWorld world = DroneWorld::indoor_long();
  const DroneMitigationResult result =
      run_drone_mitigation_comparison(world, tiny_campaign());
  ASSERT_EQ(result.baseline_msf.size(), 2u);
  ASSERT_EQ(result.mitigated_msf.size(), 2u);
  // At BER 0 both arms fly; values are distances, not percentages.
  EXPECT_GT(result.baseline_msf[0], 0.0);
  EXPECT_GT(result.mitigated_msf[0], 0.0);
}

TEST(DroneTrainingCampaign, HeatmapAndPermanentRows) {
  DroneTrainingCampaignConfig config;
  config.policy = tiny_policy();
  config.bers = {1e-3, 1e-1};
  config.injection_points = {0.0, 0.5};
  config.fine_tune_episodes = 1;
  config.eval_repeats = 1;
  config.seed = 13;
  const DroneWorld world = DroneWorld::indoor_long();
  const DroneTrainingCampaignResult result =
      run_drone_training_campaign(world, config);
  EXPECT_EQ(result.transient.rows(), 2u);
  EXPECT_EQ(result.transient.cols(), 2u);
  EXPECT_EQ(result.stuck_at_0.size(), 2u);
  EXPECT_EQ(result.stuck_at_1.size(), 2u);
  EXPECT_GE(result.fault_free_msf, 0.0);
}

TEST(DroneTrainingCampaign, UnreachedTransientStillFires) {
  // Fine-tuning episodes end at their first crash, so the step at
  // fraction 1.0 of the budget is never reached. The transient must
  // land after the last step instead of leaving the cell fault-free.
  // Trial 0 draws the same stream in both campaigns, so a transient
  // that never fired would reproduce the BER-0 cell exactly.
  DroneTrainingCampaignConfig config;
  config.policy = tiny_policy();
  config.injection_points = {1.0};
  config.fine_tune_episodes = 1;
  config.eval_repeats = 2;
  config.seed = 13;
  const DroneWorld world = DroneWorld::indoor_long();
  config.bers = {0.0};
  const double fault_free =
      run_drone_training_campaign(world, config).transient.at(0, 0);
  config.bers = {0.1};
  const double faulty =
      run_drone_training_campaign(world, config).transient.at(0, 0);
  EXPECT_NE(faulty, fault_free);
}

}  // namespace
}  // namespace ftnav
