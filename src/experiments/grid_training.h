#pragma once
// Grid World training-stage experiment drivers (paper Figs. 2, 3, 4, 8, 9).
//
// A single configurable training run (`run_grid_training`) underlies all
// of them: train a tabular or NN policy for N episodes under a fault
// scenario (optional transient upset at a chosen episode, optional
// permanent stuck-at fault), with the exploration schedule either fixed
// (baseline) or managed by the adaptive controller (mitigation, §5.1).
// Campaign functions sweep BER x injection-episode grids and aggregate
// success rates, reproducing the paper's heatmaps.

#include <optional>
#include <string>
#include <vector>

#include "core/exploration.h"
#include "core/fault_model.h"
#include "envs/gridworld.h"
#include "scenario/scenario.h"
#include "util/histogram.h"
#include "util/table.h"

namespace ftnav {

enum class GridPolicyKind { kTabular, kNeuralNet };
std::string to_string(GridPolicyKind kind);

/// One fault-scenario training run.
struct GridTrainSpec {
  GridPolicyKind kind = GridPolicyKind::kTabular;
  ObstacleDensity density = ObstacleDensity::kMiddle;
  int episodes = 1000;

  /// Transient upset: BER over the policy store, injected once at
  /// `transient_episode`. Disabled when unset.
  std::optional<double> transient_ber;
  int transient_episode = 0;

  /// Permanent fault present from `permanent_episode` onward.
  std::optional<FaultType> permanent_type;  // kStuckAt0 / kStuckAt1
  double permanent_ber = 0.0;
  int permanent_episode = 0;

  /// Adaptive exploration-rate mitigation (paper §5.1).
  bool mitigated = false;
  ExplorationConfig exploration{};  // alpha is overridden per kind below
  /// Paper choice: alpha = 0.8 (tabular), 0.4 (NN). Applied when >= 0.
  double alpha_override = -1.0;

  std::uint64_t seed = 1;
  bool record_returns = false;  ///< keep per-episode cumulative rewards
  /// Track post-fault re-convergence (evaluates the greedy policy each
  /// episode after the transient fault; used by Fig. 4a/4c).
  bool track_reconvergence = false;
};

struct GridTrainResult {
  bool success = false;        ///< greedy rollout reaches the goal
  double final_return = 0.0;   ///< greedy rollout cumulative reward
  std::vector<double> returns;  ///< per-episode training returns (opt.)

  // Controller telemetry (Fig. 9).
  double peak_exploration = 0.0;
  int steady_episode = -1;
  int transient_detections = 0;
  int permanent_detections = 0;

  /// Episodes from fault injection to stable recovery (5 consecutive
  /// successful greedy evaluations); -1 when it never re-converged.
  int reconverge_episodes = -1;
};

GridTrainResult run_grid_training(const GridTrainSpec& spec);

// ---- Fig. 2a / 2c (top block) and Fig. 8 -------------------------------

struct TrainingHeatmapConfig {
  GridPolicyKind kind = GridPolicyKind::kTabular;
  ObstacleDensity density = ObstacleDensity::kMiddle;
  int episodes = 1000;
  std::vector<double> bers;              ///< row axis (fraction, not %)
  /// Column axis; training runs episodes 0 .. episodes - 1, so each
  /// must lie in that range (run_transient_training_heatmap throws
  /// std::invalid_argument otherwise).
  std::vector<int> injection_episodes;
  int repeats = 10;
  bool mitigated = false;
  std::uint64_t seed = 42;
};

/// Success rate (%) per (BER, injection episode) cell under transient
/// faults injected during training.
/// Typed entry point of the `grid-training-transient` scenario:
/// campaigns run through the scenario registry (src/scenario/,
/// `fault_campaign run`), which calls this and renders its result.
/// Every campaign driver in src/experiments takes the invocation's
/// ScenarioContext last: `threads` for its CampaignRunner, `stream`
/// for each runner call. This grid checkpoints to "<path>.transient".
HeatmapGrid run_transient_training_heatmap(
    const TrainingHeatmapConfig& config, const ScenarioContext& context = {});

// ---- Fig. 2a / 2c (right block): permanent faults in training ----------

struct PermanentTrainingSweep {
  std::vector<double> bers;
  std::vector<double> stuck_at_0_success;  ///< %
  std::vector<double> stuck_at_1_success;  ///< %
};

/// Reads no `injection_episodes`; checkpoints to "<path>.permanent".
PermanentTrainingSweep run_permanent_training_sweep(
    const TrainingHeatmapConfig& config, const ScenarioContext& context = {});

// ---- Fig. 2b / 2d: trained-value histograms -----------------------------

struct ValueHistogramResult {
  Histogram histogram;
  BitStats bits;
  double min_value = 0.0;
  double max_value = 0.0;
};

ValueHistogramResult trained_value_histogram(GridPolicyKind kind,
                                             ObstacleDensity density,
                                             int episodes,
                                             std::uint64_t seed);

// ---- Fig. 3: cumulative-return traces -----------------------------------

struct RewardCurve {
  std::string label;
  std::vector<double> returns;
};

/// Paper's four example scenarios (two transient, stuck-at-0, stuck-at-1)
/// plus a fault-free reference, for the given policy kind. Each curve
/// is one training seeded from `seed` alone, so the five run as a set-up
/// loop on `context.threads` (nothing to checkpoint or distribute).
std::vector<RewardCurve> run_reward_curves(GridPolicyKind kind, int episodes,
                                           std::uint64_t seed,
                                           const ScenarioContext& context = {});

// ---- Fig. 4a / 4c: episodes to re-converge ------------------------------

struct TransientConvergenceResult {
  std::vector<double> bers;
  std::vector<double> mean_episodes_to_converge;
  std::vector<double> failure_fraction;  ///< runs that never re-converged
};

/// The grid checkpoints to the stream's path itself; so do the two
/// drivers below.
TransientConvergenceResult run_transient_convergence(
    GridPolicyKind kind, const std::vector<double>& bers, int fault_episode,
    int max_extra_episodes, int repeats, std::uint64_t seed,
    const ScenarioContext& context = {});

// ---- Fig. 4b / 4d: permanent faults + extra training --------------------

struct PermanentConvergenceResult {
  std::vector<double> bers;
  /// success% after +extra episodes, per (fault type, injection episode).
  std::vector<double> sa0_early;
  std::vector<double> sa0_late;
  std::vector<double> sa1_early;
  std::vector<double> sa1_late;
};

PermanentConvergenceResult run_permanent_convergence(
    GridPolicyKind kind, const std::vector<double>& bers, int early_episode,
    int late_episode, int extra_episodes, int repeats, std::uint64_t seed,
    const ScenarioContext& context = {});

// ---- Fig. 9: exploration adaptation telemetry ---------------------------

struct ExplorationStudyRow {
  FaultType type = FaultType::kTransientFlip;
  double ber = 0.0;
  double mean_peak_exploration = 0.0;  ///< %
  double mean_episodes_to_steady = 0.0;
  double mean_recovery_episodes = 0.0;  ///< transient only; -1 if n/a
};

std::vector<ExplorationStudyRow> run_exploration_study(
    GridPolicyKind kind, const std::vector<double>& bers, int episodes,
    int repeats, std::uint64_t seed, const ScenarioContext& context = {});

}  // namespace ftnav
