#pragma once
// Analytic cost model: per-scenario, per-shard work estimates.
//
// Each registered scenario can attach a cost estimator (see
// ScenarioSpec::cost) mapping its bound ParamSet to a CostEstimate: a
// per-process setup term (policy training preambles, never sharded)
// plus one CampaignCost per streamed campaign the scenario runs. A
// campaign's trials are homogeneous by construction -- heterogeneity in
// this codebase lives *between* campaigns (NN inference vs gridworld
// training vs drone rollouts differ by orders of magnitude per trial),
// not within one -- so a campaign is `trials` copies of one Work
// vector, and per-shard predictions divide it by the shard count of
// the runner's own streaming partition (stream_shard_count).
//
// Consumers:
//   * `fault_campaign describe --cost <name>` renders the estimate;
//     with --json it emits a cost_report.json entry
//     (schema "ftnav-cost-report-v1", validated by ci/validate_cost.py).
//   * ci/perf_gate.py joins campaign labels against bench perf-section
//     names for an informational predicted-vs-measured column, so
//     labels reuse the perf section names where one exists.

#include <cstddef>
#include <string>
#include <vector>

#include "cost/machine_profile.h"

namespace ftnav {
class Network;
struct Shape;
}  // namespace ftnav

namespace ftnav::cost {

/// Work vector for one trial (or one setup phase), in machine-profile
/// primitives. Doubles, not integers: counts overflow 32 bits easily
/// and only feed rate divisions.
struct Work {
  double macs = 0.0;        ///< NN multiply-accumulates
  double bytes = 0.0;       ///< bytes through fault inject + restore
  double grid_steps = 0.0;  ///< gridworld env decision steps
  double drone_steps = 0.0; ///< drone env steps (camera render)

  Work& operator+=(const Work& other) noexcept;
  Work scaled(double factor) const noexcept;
  /// Predicted single-thread seconds, excluding per-trial overhead.
  double seconds(const MachineProfile& profile) const noexcept;
  bool finite() const noexcept;
};

/// One streamed campaign: `trials` homogeneous trials of `per_trial`
/// work, partitioned into shards exactly as the campaign runner does.
struct CampaignCost {
  /// Matches the driver's perf-section name when one exists (e.g.
  /// "drone_env_trials"); otherwise a stable descriptive label.
  std::string label;
  std::size_t trials = 0;
  Work per_trial;
  /// Trial count in the units the matching perf section reports —
  /// drone sweeps count repeats x cells there while the runner shards
  /// cells. 0 means "same as trials".
  std::size_t perf_trials = 0;

  std::size_t perf_trial_count() const noexcept {
    return perf_trials != 0 ? perf_trials : trials;
  }

  /// The runner's fixed streaming partition for this trial count.
  std::size_t shard_count() const noexcept;
  double seconds(const MachineProfile& profile) const noexcept;
  double mean_shard_seconds(const MachineProfile& profile) const noexcept;
};

/// A scenario's full estimate: per-process setup plus its campaigns.
struct CostEstimate {
  /// Work done once per process before/around the campaigns (policy
  /// training, golden-image builds). Not sharded, so excluded from
  /// per-shard predictions; each distributed worker repeats it.
  Work setup;
  std::vector<CampaignCost> campaigns;

  std::size_t total_trials() const noexcept;
  Work total_work() const noexcept;
  double setup_seconds(const MachineProfile& profile) const noexcept;
  double total_seconds(const MachineProfile& profile) const noexcept;
  /// Trial-weighted mean predicted shard wall across campaigns (the
  /// report's one-number summary). 0 when there are no trials.
  double mean_shard_seconds(const MachineProfile& profile) const noexcept;
  bool finite() const noexcept;
};

/// MAC/byte accounting for one forward pass, walking the network's
/// real layers with shape propagation (conv: outC*outH*outW*inC*k*k
/// MACs; dense: in*out; every layer moves its activations). `word`
/// is the accelerator word size in bytes (quantized stores are 2).
Work network_forward_work(const Network& net, const Shape& input,
                          double word_bytes = 2.0);

/// Training-step approximation: forward + backward + update, costed as
/// a fixed multiple of the forward pass (standard 3x rule of thumb).
Work network_update_work(const Network& net, const Shape& input,
                         double word_bytes = 2.0);

/// Bytes for one fault-injection trial against a parameter store of
/// `parameter_count` words: inject touches the store once, golden
/// restore copies it back once.
double inject_restore_bytes(std::size_t parameter_count,
                            double word_bytes = 2.0) noexcept;

// ---- rendering -----------------------------------------------------------

struct CostReportEntry {
  std::string scenario;
  std::string params;  ///< ParamSet::canonical()
  CostEstimate estimate;
};

/// Human-readable block for `describe --cost` (4-space indented table,
/// matching describe_scenario()'s plain flavor).
std::string describe_cost_text(const CostReportEntry& entry,
                               const MachineProfile& profile);

/// cost_report.json, schema "ftnav-cost-report-v1": the profile plus
/// one object per scenario with totals and per-campaign breakdowns.
std::string cost_report_json(const std::vector<CostReportEntry>& entries,
                             const MachineProfile& profile);

}  // namespace ftnav::cost
