// Tests for the drone experiment drivers (Fig. 7/10b machinery) at
// miniature scale: tiny networks, few repeats, short episodes.

#include <gtest/gtest.h>

#include "experiments/drone_campaigns.h"

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
