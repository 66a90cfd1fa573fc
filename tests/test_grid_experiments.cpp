// Tests for the Grid World experiment drivers (Fig. 2/3/4/5/8/9/10a
// machinery) at miniature scale.

#include <gtest/gtest.h>

#include "experiments/grid_inference.h"
#include "experiments/grid_training.h"

namespace ftnav {
namespace {

TEST(GridTraining, RejectsNonPositiveEpisodes) {
  GridTrainSpec spec;
  spec.episodes = 0;
  EXPECT_THROW(run_grid_training(spec), std::invalid_argument);
}

TEST(GridTraining, FaultFreeTabularConverges) {
  GridTrainSpec spec;
  spec.kind = GridPolicyKind::kTabular;
  spec.episodes = 1500;
  spec.seed = 3;
  const GridTrainResult result = run_grid_training(spec);
  EXPECT_TRUE(result.success);
  EXPECT_GT(result.final_return, 0.0);
}

TEST(GridTraining, IsSeedDeterministic) {
  GridTrainSpec spec;
  spec.kind = GridPolicyKind::kTabular;
  spec.episodes = 300;
  spec.transient_ber = 0.005;
  spec.transient_episode = 150;
  spec.record_returns = true;
  spec.seed = 17;
  const GridTrainResult a = run_grid_training(spec);
  const GridTrainResult b = run_grid_training(spec);
  EXPECT_EQ(a.success, b.success);
  EXPECT_EQ(a.returns, b.returns);
}

TEST(GridTraining, HighBerLateTransientHurtsMoreThanEarly) {
  // The shape of Fig. 2a along the injection axis: a fault injected
  // after convergence but with plenty of training left gets healed; a
  // fault injected at the very end leaves the policy corrupted.
  int early_successes = 0, late_successes = 0;
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    GridTrainSpec spec;
    spec.kind = GridPolicyKind::kTabular;
    spec.episodes = 1200;
    spec.transient_ber = 0.02;
    spec.seed = 100 + seed;
    spec.transient_episode = 400;
    early_successes += run_grid_training(spec).success ? 1 : 0;
    spec.transient_episode = 1199;
    late_successes += run_grid_training(spec).success ? 1 : 0;
  }
  EXPECT_GT(early_successes, late_successes);
  EXPECT_GE(early_successes, 9);  // early faults are healed by training
}

TEST(GridTraining, RecordReturnsHasOnePerEpisode) {
  GridTrainSpec spec;
  spec.episodes = 50;
  spec.record_returns = true;
  const GridTrainResult result = run_grid_training(spec);
  EXPECT_EQ(result.returns.size(), 50u);
}

TEST(GridTraining, ReconvergenceTracked) {
  GridTrainSpec spec;
  spec.kind = GridPolicyKind::kTabular;
  spec.episodes = 1800;
  spec.transient_ber = 0.004;
  spec.transient_episode = 1200;
  spec.track_reconvergence = true;
  spec.seed = 5;
  const GridTrainResult result = run_grid_training(spec);
  // A modest upset after convergence recovers within the run.
  EXPECT_GE(result.reconverge_episodes, 0);
  EXPECT_LT(result.reconverge_episodes, 600);
}

TEST(GridTraining, MitigationImprovesPermanentFaultTraining) {
  // Fig. 8's permanent-fault relief: under stuck-at-1 faults the
  // controller reverts to high exploration with slowed decay, letting
  // the agent route around broken cells. (Transient faults in our
  // exploring-starts training regime self-heal regardless of the
  // exploration rate -- see "Known deviations from the paper" in
  // README.md.)
  int baseline = 0, mitigated = 0;
  for (std::uint64_t seed = 0; seed < 12; ++seed) {
    GridTrainSpec spec;
    spec.kind = GridPolicyKind::kTabular;
    spec.episodes = 1000;
    spec.permanent_type = FaultType::kStuckAt1;
    spec.permanent_ber = 0.003;
    spec.seed = 300 + seed;
    spec.mitigated = false;
    baseline += run_grid_training(spec).success ? 1 : 0;
    spec.mitigated = true;
    mitigated += run_grid_training(spec).success ? 1 : 0;
  }
  EXPECT_GT(mitigated, baseline);
}

TEST(GridTraining, ControllerTelemetryPopulated) {
  GridTrainSpec spec;
  spec.kind = GridPolicyKind::kTabular;
  spec.episodes = 1200;
  spec.mitigated = true;
  spec.transient_ber = 0.01;
  spec.transient_episode = 800;
  spec.seed = 9;
  const GridTrainResult result = run_grid_training(spec);
  EXPECT_GT(result.peak_exploration, 0.0);
  EXPECT_LE(result.peak_exploration, 1.0);
}

TEST(GridHeatmap, ShapeMatchesAxes) {
  TrainingHeatmapConfig config;
  config.episodes = 120;
  config.bers = {0.0, 0.01};
  config.injection_episodes = {0, 60, 110};
  config.repeats = 2;
  const HeatmapGrid grid = run_transient_training_heatmap(config);
  EXPECT_EQ(grid.rows(), 2u);
  EXPECT_EQ(grid.cols(), 3u);
  for (std::size_t r = 0; r < grid.rows(); ++r)
    for (std::size_t c = 0; c < grid.cols(); ++c) {
      EXPECT_TRUE(grid.has(r, c));
      EXPECT_GE(grid.at(r, c), 0.0);
      EXPECT_LE(grid.at(r, c), 100.0);
    }
}

TEST(GridPermanentSweep, ReturnsOneValuePerBer) {
  TrainingHeatmapConfig config;
  config.episodes = 150;
  config.bers = {0.001, 0.005, 0.01};
  config.repeats = 2;
  const PermanentTrainingSweep sweep = run_permanent_training_sweep(config);
  EXPECT_EQ(sweep.stuck_at_0_success.size(), 3u);
  EXPECT_EQ(sweep.stuck_at_1_success.size(), 3u);
}

TEST(GridHistogram, TabularValuesArePositiveDominated) {
  const ValueHistogramResult result = trained_value_histogram(
      GridPolicyKind::kTabular, ObstacleDensity::kMiddle, 1200, 11);
  EXPECT_GT(result.max_value, 2.0);          // values reach reward scale
  EXPECT_GT(result.bits.zero_to_one_ratio(), 1.8);  // paper: 3.18x
  EXPECT_GT(result.histogram.total(), 0u);
}

TEST(GridHistogram, NnWeightsAreZeroBitDominated) {
  const ValueHistogramResult result = trained_value_histogram(
      GridPolicyKind::kNeuralNet, ObstacleDensity::kMiddle, 400, 11);
  EXPECT_GT(result.bits.zero_to_one_ratio(), 3.0);  // paper: 7.17x
}

TEST(GridRewardCurves, FiveScenariosRecorded) {
  const auto curves = run_reward_curves(GridPolicyKind::kTabular, 120, 3);
  ASSERT_EQ(curves.size(), 5u);
  for (const RewardCurve& curve : curves)
    EXPECT_EQ(curve.returns.size(), 120u);
  EXPECT_EQ(curves[0].label, "fault-free");
}

TEST(GridConvergence, TransientResultShape) {
  const TransientConvergenceResult result = run_transient_convergence(
      GridPolicyKind::kTabular, {0.002, 0.01}, 600, 400, 3, 21);
  ASSERT_EQ(result.mean_episodes_to_converge.size(), 2u);
  EXPECT_GE(result.mean_episodes_to_converge[0], 0.0);
  EXPECT_LE(result.failure_fraction[1], 1.0);
}

TEST(GridConvergence, PermanentResultShape) {
  const PermanentConvergenceResult result = run_permanent_convergence(
      GridPolicyKind::kTabular, {0.002}, 150, 300, 150, 2, 23);
  EXPECT_EQ(result.sa0_early.size(), 1u);
  EXPECT_EQ(result.sa1_late.size(), 1u);
}

TEST(GridExplorationStudy, CoversAllFaultTypes) {
  const auto rows = run_exploration_study(GridPolicyKind::kTabular,
                                          {0.005}, 300, 2, 25);
  ASSERT_EQ(rows.size(), 3u);  // transient, SA0, SA1
  EXPECT_EQ(rows[0].type, FaultType::kTransientFlip);
  EXPECT_LT(rows[0].mean_recovery_episodes, 301.0);
  EXPECT_EQ(rows[1].mean_recovery_episodes, -1.0);  // n/a for permanent
}

// ---- inference campaigns ------------------------------------------------

TEST(GridInference, RejectsNonPositiveRepeats) {
  InferenceCampaignConfig config;
  config.repeats = 0;
  EXPECT_THROW(run_inference_campaign(config), std::invalid_argument);
}

TEST(GridInference, TabularCampaignShapeAndBaseline) {
  InferenceCampaignConfig config;
  config.kind = GridPolicyKind::kTabular;
  config.train_episodes = 1500;
  config.bers = {0.0, 0.02};
  config.repeats = 20;
  config.seed = 7;
  const InferenceCampaignResult result = run_inference_campaign(config);
  ASSERT_EQ(result.success_by_mode.size(), 4u);
  // BER=0 column: every mode must match the fault-free success.
  for (const auto& mode : result.success_by_mode)
    EXPECT_DOUBLE_EQ(mode[0], 100.0);
  // Transient-1 tolerates faults better than Transient-M (paper Fig. 5).
  EXPECT_GE(result.success_by_mode[1][1], result.success_by_mode[0][1]);
}

TEST(GridInference, NnCampaignRuns) {
  InferenceCampaignConfig config;
  config.kind = GridPolicyKind::kNeuralNet;
  config.train_episodes = 500;
  config.bers = {0.0, 0.01};
  config.repeats = 10;
  config.seed = 11;
  const InferenceCampaignResult result = run_inference_campaign(config);
  for (const auto& mode : result.success_by_mode) {
    ASSERT_EQ(mode.size(), 2u);
    EXPECT_GE(mode[1], 0.0);
    EXPECT_LE(mode[0], 100.0);
  }
}

TEST(GridInference, MitigationComparisonImprovesOrMatches) {
  InferenceCampaignConfig config;
  config.kind = GridPolicyKind::kNeuralNet;
  config.train_episodes = 900;
  config.bers = {0.008};
  config.repeats = 25;
  config.seed = 13;
  const MitigationComparison comparison =
      run_inference_mitigation_comparison(config);
  ASSERT_EQ(comparison.baseline_success.size(), 1u);
  EXPECT_GE(comparison.mitigated_success[0] + 1e-9,
            comparison.baseline_success[0]);
}

TEST(GridInference, ModeNames) {
  EXPECT_EQ(to_string(InferenceFaultMode::kTransientM), "Transient-M");
  EXPECT_EQ(to_string(InferenceFaultMode::kTransient1), "Transient-1");
  EXPECT_EQ(to_string(InferenceFaultMode::kStuckAt0), "Stuck-at-0");
  EXPECT_EQ(to_string(InferenceFaultMode::kStuckAt1), "Stuck-at-1");
}

}  // namespace
}  // namespace ftnav
