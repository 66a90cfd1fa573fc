#pragma once
// Calibrated machine profile for the analytic cost model.
//
// The cost model (cost_model.h) reduces every campaign to four work
// primitives -- NN multiply-accumulates, bytes moved through the fault
// injector, gridworld env steps, drone env steps -- plus a fixed
// per-trial overhead. A MachineProfile prices those primitives in
// single-thread seconds: one shard always runs on one worker thread,
// so predictions compare directly against the per-shard wall clock of
// a trace's `shard` spans (category `campaign`, arg `shard`).

namespace ftnav::cost {

// The defaults below are *effective* single-thread rates, fit against
// measured shard walls of the fig5 (grid inference, tabular + NN)
// and fig7b (drone environments) campaigns on the reference container
// (AVX2 kernels). They deliberately absorb the gap between the step
// caps the estimators count and the shorter episodes campaigns
// actually run -- which is why mac_rate sits far above the raw kernel
// throughput. Campaign work is byte-rate dominated for every NN
// scenario here (weights re-stream each step), so byte_rate is the
// load-bearing number.
struct MachineProfile {
  /// NN multiply-accumulates per second (quantized conv/dense forward).
  double mac_rate = 100e9;
  /// Bytes per second through the NN engine plus fault injection +
  /// golden-image restore.
  double byte_rate = 7e9;
  /// Gridworld decision steps per second (tabular bookkeeping, RNG,
  /// reward plumbing -- everything per-step that is not NN math).
  double grid_step_rate = 60e6;
  /// Drone env steps per second excluding NN math (depth-camera
  /// raycast render dominates).
  double drone_step_rate = 1e6;
  /// Fixed seconds per trial (fault-pattern sampling, stats fold).
  double trial_overhead_seconds = 1e-6;

  /// The calibrated defaults. Kept under this name for perfbench/,
  /// which prices its workloads through it.
  static MachineProfile from_env() { return MachineProfile{}; }
};

}  // namespace ftnav::cost
