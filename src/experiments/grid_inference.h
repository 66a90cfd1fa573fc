#pragma once
// Grid World inference-stage experiment drivers (paper Figs. 5 and 10a).
//
// A policy is trained fault-free, then faults are injected into the
// frozen policy store and the greedy policy is rolled out from the
// source. Four fault modes follow the paper:
//   Transient-M -- bit-flips in memory: corrupt for the whole episode;
//   Transient-1 -- bit-flips in the read register: corrupt one step;
//   stuck-at-0 / stuck-at-1 -- permanent faults across the episode.
// Fig. 10a adds the range-based anomaly detector (§5.2) on NN weights.

#include <string>
#include <vector>

#include "experiments/grid_training.h"

namespace ftnav {

enum class InferenceFaultMode {
  kTransientM,
  kTransient1,
  kStuckAt0,
  kStuckAt1,
};

std::string to_string(InferenceFaultMode mode);

struct InferenceCampaignConfig {
  GridPolicyKind kind = GridPolicyKind::kTabular;
  ObstacleDensity density = ObstacleDensity::kMiddle;
  int train_episodes = 1000;
  std::vector<double> bers;
  int repeats = 100;  ///< fault-sampling repeats per (mode, BER)
  /// Range-based anomaly detection on the policy store (Fig. 10a).
  bool mitigated = false;
  /// Detection margin for the mitigated arm (the paper uses 10%).
  double detector_margin = 0.1;
  std::uint64_t seed = 42;
};

struct InferenceCampaignResult {
  std::vector<double> bers;
  /// success% indexed [mode][ber]; modes ordered as the enum.
  std::vector<std::vector<double>> success_by_mode;
  /// Detector telemetry (mitigated runs): total detections across the
  /// campaign; 0 otherwise.
  std::uint64_t detections = 0;
};

/// Typed entry point of the `grid-inference` scenario: campaigns run
/// through the scenario registry (src/scenario/, `fault_campaign run
/// grid-inference`), which calls this and renders its result. The
/// trial grid runs on `context.threads` and checkpoints to
/// `context.stream`; policy training is not checkpointed and re-runs on
/// resume and in every worker.
InferenceCampaignResult run_inference_campaign(
    const InferenceCampaignConfig& config,
    const ScenarioContext& context = {});

/// Fig. 10a: success% with and without mitigation under Transient-M
/// weight faults (NN policy).
struct MitigationComparison {
  std::vector<double> bers;
  std::vector<double> baseline_success;
  std::vector<double> mitigated_success;
};

/// The arms checkpoint to "<path>.baseline" and "<path>.mitigated".
MitigationComparison run_inference_mitigation_comparison(
    const InferenceCampaignConfig& config,
    const ScenarioContext& context = {});

}  // namespace ftnav
