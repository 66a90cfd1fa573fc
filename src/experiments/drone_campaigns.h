#pragma once
// Drone navigation fault campaigns (paper Fig. 7a-e and Fig. 10b).
//
// All inference campaigns share one offline-trained policy per world
// and express faults through the QuantizedInferenceEngine's buffers;
// the training campaign (Fig. 7a) exercises the OnlineFineTuner.
//
// An inference campaign is a (row, BER) cell grid of `repeats` flights
// per cell, and its campaign trial is one flight: each engine slot's
// fault-free baseline cell (when the grid has a BER <= 0 column) and
// every faulted cell are listed, and trial t flies flight t % repeats
// of listed cell t / repeats. A flight draws from its cell's stream,
// never the trial's, so a cell's MSF does not depend on how its
// flights are sharded. Every BER <= 0 cell of a slot reports the
// slot's one baseline.

#include <cstddef>
#include <string>
#include <vector>

#include "experiments/drone_policy.h"
#include "scenario/scenario.h"
#include "util/table.h"

namespace ftnav {

// ---- Fig. 7a: faults during online fine-tuning ---------------------------

struct DroneTrainingCampaignConfig {
  DronePolicySpec policy{};
  /// Transient columns and the stuck-at rows' axis, e.g.
  /// {0, 1e-4, 1e-3, 1e-2, 1e-1}.
  std::vector<double> bers;
  /// Transient injection steps as fractions of the step budget
  /// (fine_tune_episodes x max_steps). Episodes end at their first
  /// crash, so a run may not reach its step; it then injects after
  /// its last fine-tuning step, before the evaluation flights.
  std::vector<double> injection_points;
  int fine_tune_episodes = 3;
  int eval_repeats = 5;
  std::uint64_t seed = 42;
};

struct DroneTrainingCampaignResult {
  /// MSF per (injection point, BER) for transient faults.
  HeatmapGrid transient;
  /// MSF per BER for permanent faults present throughout fine-tuning.
  std::vector<double> stuck_at_0;
  std::vector<double> stuck_at_1;
  std::vector<double> bers;
  double fault_free_msf = 0.0;

  DroneTrainingCampaignResult(std::vector<std::string> rows,
                              std::vector<std::string> cols)
      : transient(std::move(rows), std::move(cols)) {}
};

/// Typed entry point of the `drone-training` scenario: campaigns run
/// through the scenario registry (src/scenario/, `fault_campaign run
/// drone-training`), which calls this and renders its result. The
/// transient grid and the stuck-at sweep checkpoint to
/// "<path>.transient" and "<path>.flat"; policy training re-runs on
/// resume and in every worker.
DroneTrainingCampaignResult run_drone_training_campaign(
    const DroneWorld& world, const DroneTrainingCampaignConfig& config,
    const ScenarioContext& context = {});

// ---- Fig. 7b-e and 10b: inference campaigns -------------------------------

struct DroneInferenceCampaignConfig {
  DronePolicySpec policy{};
  std::vector<double> bers;
  int repeats = 10;    ///< flights per cell, each with its own fault draw
  std::uint64_t seed = 42;
};

/// Fig. 7b: MSF vs BER (transient weight faults) per environment.
struct EnvironmentSweepResult {
  /// Engine-cache slots the sweep flies on, one per environment (each
  /// has its own network), each with its own baseline stream.
  static constexpr std::size_t kEngineSlots = 2;
  std::vector<std::string> environments;
  std::vector<double> bers;
  std::vector<std::vector<double>> msf;  ///< [environment][ber]
};
EnvironmentSweepResult run_environment_sweep(
    const DroneInferenceCampaignConfig& config,
    const ScenarioContext& context = {});

/// Fig. 7c: fault-location sensitivity.
enum class DroneFaultLocation {
  kInput,                ///< dynamic transient in the input buffer
  kWeightTransient,      ///< static transient in the weight buffer
  kActivationTransient,  ///< dynamic transient per activation write
  kActivationPermanent,  ///< stuck-at cells in the activation buffer
};
std::string to_string(DroneFaultLocation location);

struct LocationSweepResult {
  /// Engine-cache slots the sweep flies on, which is also how many
  /// baseline cells it flies for its BER <= 0 column: every location
  /// drives one engine.
  static constexpr std::size_t kEngineSlots = 1;
  std::vector<double> bers;
  std::vector<std::vector<double>> msf;  ///< [location][ber], enum order
};
LocationSweepResult run_location_sweep(
    const DroneWorld& world, const DroneInferenceCampaignConfig& config,
    const ScenarioContext& context = {});

/// Fig. 7d: per-layer weight-fault sensitivity (Conv1..FC2).
struct LayerSweepResult {
  /// Every layer row drives one engine (see LocationSweepResult).
  static constexpr std::size_t kEngineSlots = 1;
  std::vector<std::string> layers;
  std::vector<double> bers;
  std::vector<std::vector<double>> msf;  ///< [layer][ber]
};
LayerSweepResult run_layer_sweep(const DroneWorld& world,
                                 const DroneInferenceCampaignConfig& config,
                                 const ScenarioContext& context = {});

/// Fig. 7e: fixed-point data-type sensitivity.
struct DataTypeSweepResult {
  /// One engine per format row (see LocationSweepResult).
  static constexpr std::size_t kEngineSlots = 3;
  std::vector<std::string> formats;
  std::vector<double> bers;
  std::vector<std::vector<double>> msf;  ///< [format][ber]
};
DataTypeSweepResult run_data_type_sweep(
    const DroneWorld& world, const DroneInferenceCampaignConfig& config,
    const ScenarioContext& context = {});

/// Fig. 10b: anomaly-detection mitigation on weight faults.
struct DroneMitigationResult {
  /// The baseline and the hardened engine (see LocationSweepResult);
  /// both baselines fly the same stream.
  static constexpr std::size_t kEngineSlots = 2;
  std::vector<double> bers;
  std::vector<double> baseline_msf;
  std::vector<double> mitigated_msf;
  std::uint64_t detections = 0;
};
DroneMitigationResult run_drone_mitigation_comparison(
    const DroneWorld& world, const DroneInferenceCampaignConfig& config,
    const ScenarioContext& context = {});

}  // namespace ftnav
