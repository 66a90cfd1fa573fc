#include "scenario/builtin_scenarios.h"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <sstream>
#include <utility>

#include "envs/drone_world.h"
#include "envs/gridworld.h"
#include "nn/c3f2.h"
#include "nn/layers.h"
#include "rl/mlp_q.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/table.h"

namespace ftnav {
namespace {

// ---- small scenario plumbing ---------------------------------------------

/// A scenario defined by a plain function over (params, context).
class FnScenario : public Scenario {
 public:
  using Fn = std::function<ScenarioResult(const ParamSet&, ScenarioContext&)>;
  FnScenario(ParamSet params, Fn fn)
      : params_(std::move(params)), fn_(std::move(fn)) {}
  ScenarioResult run(ScenarioContext& context) override {
    return fn_(params_, context);
  }

 private:
  ParamSet params_;
  Fn fn_;
};

ScenarioSpec make_spec(std::string name, std::string summary,
                       std::vector<std::string> tags,
                       std::vector<ParamSpec> params, FnScenario::Fn fn) {
  ScenarioSpec spec;
  spec.name = std::move(name);
  spec.summary = std::move(summary);
  spec.tags = std::move(tags);
  spec.params = std::move(params);
  spec.factory = [fn = std::move(fn)](const ParamSet& bound) {
    return std::make_unique<FnScenario>(bound, fn);
  };
  return spec;
}

// ---- shared parameter fragments ------------------------------------------

ParamSpec policy_param(const std::string& default_value) {
  return ParamSpec::choice("policy", default_value,
                           "policy kind (paper: tabular Q vs NN Q)",
                           {"tabular", "nn"});
}

ParamSpec density_param() {
  return ParamSpec::choice("density", "middle",
                           "Grid World obstacle density preset",
                           {"low", "middle", "high"});
}

ParamSpec seed_param() {
  return ParamSpec::integer("seed", 42, "campaign base seed", 0);
}

ParamSpec repeats_param(std::int64_t default_value, const std::string& doc) {
  return ParamSpec::integer("repeats", default_value, doc, 1, 1e9);
}

ParamSpec world_param() {
  return ParamSpec::choice("world", "indoor-long",
                           "drone environment (paper's PEDRA maps)",
                           {"indoor-long", "indoor-vanleer"});
}

std::vector<ParamSpec> drone_policy_params() {
  return {
      ParamSpec::integer("imitation-episodes", 8,
                         "imitation-bootstrap episodes for the offline "
                         "policy",
                         1, 1e6),
      ParamSpec::integer("ddqn-episodes", 2,
                         "Double-DQN refinement episodes for the offline "
                         "policy",
                         0, 1e6),
      ParamSpec::integer("env-max-steps", 0,
                         "override the flight step budget (0 = preset "
                         "default)",
                         0, 1e9),
      ParamSpec::real("env-max-distance", 0.0,
                      "override the flight distance cap in meters (0 = "
                      "preset default)",
                      0.0),
  };
}

GridPolicyKind policy_of(const ParamSet& params) {
  return params.get_string("policy") == "tabular" ? GridPolicyKind::kTabular
                                                  : GridPolicyKind::kNeuralNet;
}

ObstacleDensity density_of(const ParamSet& params) {
  const std::string& density = params.get_string("density");
  if (density == "low") return ObstacleDensity::kLow;
  if (density == "high") return ObstacleDensity::kHigh;
  return ObstacleDensity::kMiddle;
}

DroneWorld world_of(const ParamSet& params) {
  return params.get_string("world") == "indoor-vanleer"
             ? DroneWorld::indoor_vanleer()
             : DroneWorld::indoor_long();
}

DronePolicySpec drone_policy_of(const ParamSet& params) {
  DronePolicySpec spec;
  spec.imitation_episodes =
      static_cast<int>(params.get_int("imitation-episodes"));
  spec.ddqn_episodes = static_cast<int>(params.get_int("ddqn-episodes"));
  spec.env_max_steps = static_cast<int>(params.get_int("env-max-steps"));
  spec.env_max_distance = params.get_double("env-max-distance");
  spec.seed = static_cast<std::uint64_t>(params.get_int("seed"));
  return spec;
}

std::vector<int> to_int(const std::vector<std::int64_t>& values) {
  std::vector<int> narrowed;
  narrowed.reserve(values.size());
  for (std::int64_t value : values)
    narrowed.push_back(static_cast<int>(value));
  return narrowed;
}

// ---- JSON helpers (fixed %.17g so artifacts are byte-stable) -------------

std::string g17(double value) {
  char buffer[40];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

std::string json_array(const std::vector<double>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i) out += ", ";
    out += g17(values[i]);
  }
  return out + "]";
}

// ---- grid inference -------------------------------------------------------

InferenceCampaignConfig inference_config_of(const ParamSet& params) {
  InferenceCampaignConfig config;
  config.kind = policy_of(params);
  config.density = density_of(params);
  config.train_episodes = static_cast<int>(params.get_int("train-episodes"));
  config.bers = params.get_double_list("bers");
  config.repeats = static_cast<int>(params.get_int("repeats"));
  config.mitigated = params.get_bool("mitigate");
  config.detector_margin = params.get_double("detector-margin");
  config.seed = static_cast<std::uint64_t>(params.get_int("seed"));
  return config;
}

std::vector<ParamSpec> inference_params() {
  return {
      policy_param("tabular"),
      density_param(),
      ParamSpec::integer("train-episodes", 1000,
                         "fault-free training episodes before faults are "
                         "injected",
                         1, 1e7),
      ParamSpec::double_list("bers", {0.005},
                             "bit-error-rate axis (fractions)", 0.0, 1.0),
      repeats_param(100, "fault-sampling repeats per (mode, BER) cell"),
      ParamSpec::boolean("mitigate", false,
                         "range-based anomaly detection on the policy "
                         "store (paper §5.2)"),
      ParamSpec::real("detector-margin", 0.1,
                      "detection margin for the mitigated arm", 0.0, 10.0),
      ParamSpec::choice("mode", "tm",
                        "fault mode highlighted in the summary line (all "
                        "four always run)",
                        {"tm", "t1", "sa0", "sa1"}),
      seed_param(),
  };
}

InferenceFaultMode mode_of(const ParamSet& params) {
  const std::string& mode = params.get_string("mode");
  if (mode == "t1") return InferenceFaultMode::kTransient1;
  if (mode == "sa0") return InferenceFaultMode::kStuckAt0;
  if (mode == "sa1") return InferenceFaultMode::kStuckAt1;
  return InferenceFaultMode::kTransientM;
}

ScenarioResult run_grid_inference(const ParamSet& params,
                                  ScenarioContext& context) {
  const InferenceCampaignConfig config = inference_config_of(params);
  const InferenceCampaignResult result =
      run_inference_campaign(config, context);

  std::ostringstream text;
  Table table(
      {"BER", "Transient-M", "Transient-1", "Stuck-at-0", "Stuck-at-1"});
  for (std::size_t b = 0; b < config.bers.size(); ++b) {
    table.add_row({format_double(config.bers[b] * 100.0, 2) + "%",
                   format_double(result.success_by_mode[0][b], 1),
                   format_double(result.success_by_mode[1][b], 1),
                   format_double(result.success_by_mode[2][b], 1),
                   format_double(result.success_by_mode[3][b], 1)});
  }
  text << "success rate (%) by fault mode:\n" << table.render();

  const InferenceFaultMode mode = mode_of(params);
  const double success =
      result.success_by_mode[static_cast<std::size_t>(mode)][0];
  const auto interval = wilson_interval(
      static_cast<std::size_t>(success / 100.0 * config.repeats + 0.5),
      static_cast<std::size_t>(config.repeats));
  char line[160];
  std::snprintf(line, sizeof line,
                "success rate (%s @ BER %.2f%%): %.1f%%  "
                "(95%% CI: %.1f%% .. %.1f%%)\n",
                to_string(mode).c_str(), config.bers.front() * 100.0, success,
                interval.low * 100.0, interval.high * 100.0);
  text << line;
  if (config.mitigated)
    text << "anomaly detections across campaign: " << result.detections
         << "\n";

  ScenarioResult out;
  out.text = text.str();
  out.add_artifact("campaign", inference_campaign_json(config, result));
  return out;
}

std::vector<ParamSpec> mitigation_params() {
  return {
      policy_param("nn"),
      density_param(),
      ParamSpec::integer("train-episodes", 1000,
                         "fault-free training episodes before faults are "
                         "injected",
                         1, 1e7),
      ParamSpec::double_list("bers",
                             {0.0, 0.001, 0.002, 0.003, 0.004, 0.005,
                              0.006, 0.007, 0.008, 0.009, 0.010},
                             "bit-error-rate axis (fractions)", 0.0, 1.0),
      repeats_param(60, "fault draws per (arm, BER) point"),
      ParamSpec::real("detector-margin", 0.1,
                      "detection margin for the mitigated arm", 0.0, 10.0),
      ParamSpec::real("improvement-threshold", 0.004,
                      "BERs at or above this average into the improvement "
                      "summary",
                      0.0, 1.0),
      seed_param(),
  };
}

ScenarioResult run_grid_inference_mitigation(const ParamSet& params,
                                             ScenarioContext& context) {
  InferenceCampaignConfig config;
  config.kind = policy_of(params);
  config.density = density_of(params);
  config.train_episodes = static_cast<int>(params.get_int("train-episodes"));
  config.bers = params.get_double_list("bers");
  config.repeats = static_cast<int>(params.get_int("repeats"));
  config.detector_margin = params.get_double("detector-margin");
  config.seed = static_cast<std::uint64_t>(params.get_int("seed"));
  const MitigationComparison comparison =
      run_inference_mitigation_comparison(config, context);

  std::ostringstream text;
  Table table({"BER", "no mitigation", "mitigation"});
  double base_avg = 0.0, mitigated_avg = 0.0;
  int counted = 0;
  const double threshold = params.get_double("improvement-threshold");
  for (std::size_t b = 0; b < comparison.bers.size(); ++b) {
    table.add_row({format_double(comparison.bers[b] * 100.0, 2) + "%",
                   format_double(comparison.baseline_success[b], 1),
                   format_double(comparison.mitigated_success[b], 1)});
    if (comparison.bers[b] >= threshold) {
      base_avg += comparison.baseline_success[b];
      mitigated_avg += comparison.mitigated_success[b];
      ++counted;
    }
  }
  text << "success rate (%), Transient-M weight faults:\n" << table.render();
  if (counted > 0 && base_avg > 0.0) {
    char line[96];
    std::snprintf(line, sizeof line,
                  "high-BER success improvement: %.2fx (paper: ~2x)\n",
                  mitigated_avg / base_avg);
    text << line;
  }

  ScenarioResult out;
  out.text = text.str();
  out.add_artifact("mitigation_comparison",
                   mitigation_comparison_json(comparison));
  return out;
}

// ---- grid training --------------------------------------------------------

/// The training scenarios' parameters; only the transient heatmap has
/// an injection-episode axis (the permanent sweep faults from episode
/// 0).
std::vector<ParamSpec> training_params(bool transient) {
  std::vector<ParamSpec> params = {
      policy_param("tabular"),
      density_param(),
      ParamSpec::integer("episodes", 1000, "training episodes", 1, 1e7),
      ParamSpec::double_list("bers", {0.001, 0.003, 0.005, 0.008, 0.010},
                             "bit-error-rate axis (fractions)", 0.0, 1.0),
  };
  if (transient)
    params.push_back(
        ParamSpec::int_list("injection-episodes", {0, 250, 500, 750, 999},
                            "transient-injection episode axis", 0, 1e7));
  params.push_back(repeats_param(10, "training runs per grid cell"));
  params.push_back(ParamSpec::boolean(
      "mitigate", false, "adaptive exploration-rate mitigation (paper §5.1)"));
  params.push_back(seed_param());
  return params;
}

/// The permanent sweep's config; the transient heatmap adds its axis.
TrainingHeatmapConfig training_config_of(const ParamSet& params) {
  TrainingHeatmapConfig config;
  config.kind = policy_of(params);
  config.density = density_of(params);
  config.episodes = static_cast<int>(params.get_int("episodes"));
  config.bers = params.get_double_list("bers");
  config.repeats = static_cast<int>(params.get_int("repeats"));
  config.mitigated = params.get_bool("mitigate");
  config.seed = static_cast<std::uint64_t>(params.get_int("seed"));
  return config;
}

/// Training runs episodes 0 .. episodes - 1 and injects on an exact
/// match, so a later injection episode would head a fault-free column.
void check_injection_episodes(const ParamSet& params) {
  const std::int64_t episodes = params.get_int("episodes");
  for (const std::int64_t episode : params.get_int_list("injection-episodes"))
    if (episode >= episodes)
      throw ParamError("injection-episodes: " + std::to_string(episode) +
                       " is not below episodes (" + std::to_string(episodes) +
                       "); training runs episodes 0.." +
                       std::to_string(episodes - 1));
}

ScenarioResult run_training_transient(const ParamSet& params,
                                      ScenarioContext& context) {
  TrainingHeatmapConfig config = training_config_of(params);
  config.injection_episodes =
      to_int(params.get_int_list("injection-episodes"));
  const HeatmapGrid grid = run_transient_training_heatmap(config, context);
  ScenarioResult out;
  out.text = "success rate (%) by (BER, injection episode), transient "
             "faults during training:\n" +
             grid.render(0);
  out.add_artifact("transient_heatmap", grid.to_json(6));
  return out;
}

ScenarioResult run_training_permanent(const ParamSet& params,
                                      ScenarioContext& context) {
  const PermanentTrainingSweep sweep =
      run_permanent_training_sweep(training_config_of(params), context);
  std::ostringstream text;
  Table table({"BER", "stuck-at-0 success%", "stuck-at-1 success%"});
  for (std::size_t i = 0; i < sweep.bers.size(); ++i) {
    table.add_row({format_double(sweep.bers[i] * 100.0, 2) + "%",
                   format_double(sweep.stuck_at_0_success[i], 1),
                   format_double(sweep.stuck_at_1_success[i], 1)});
  }
  text << "success rate (%) under permanent faults from episode 0:\n"
       << table.render();
  ScenarioResult out;
  out.text = text.str();
  out.add_artifact("permanent_sweep", permanent_sweep_json(sweep));
  return out;
}

// ---- grid convergence (Fig. 4) -------------------------------------------

ScenarioResult run_convergence_transient(const ParamSet& params,
                                         ScenarioContext& context) {
  const std::vector<double> bers = params.get_double_list("bers");
  const int fault_episode = static_cast<int>(params.get_int("fault-episode"));
  const TransientConvergenceResult result = run_transient_convergence(
      policy_of(params), bers, fault_episode,
      static_cast<int>(params.get_int("max-extra-episodes")),
      static_cast<int>(params.get_int("repeats")),
      static_cast<std::uint64_t>(params.get_int("seed")), context);

  std::ostringstream text;
  Table table({"BER", "total episodes to converge", "never-converged %"});
  for (std::size_t i = 0; i < bers.size(); ++i) {
    table.add_row(
        {format_double(bers[i] * 100.0, 2) + "%",
         format_double(fault_episode + result.mean_episodes_to_converge[i],
                       0),
         format_double(result.failure_fraction[i] * 100.0, 0)});
  }
  text << "episodes to re-converge after a transient fault at episode "
       << fault_episode << ":\n"
       << table.render();
  ScenarioResult out;
  out.text = text.str();
  out.add_artifact("transient_convergence", table.to_json());
  return out;
}

ScenarioResult run_convergence_permanent(const ParamSet& params,
                                         ScenarioContext& context) {
  const std::vector<double> bers = params.get_double_list("bers");
  const int early = static_cast<int>(params.get_int("early-episode"));
  const int late = static_cast<int>(params.get_int("late-episode"));
  const int extra = static_cast<int>(params.get_int("extra-episodes"));
  const PermanentConvergenceResult result = run_permanent_convergence(
      policy_of(params), bers, early, late, extra,
      static_cast<int>(params.get_int("repeats")),
      static_cast<std::uint64_t>(params.get_int("seed")), context);

  std::ostringstream text;
  Table table(
      {"BER", "SA0 (early)", "SA0 (late)", "SA1 (early)", "SA1 (late)"});
  for (std::size_t i = 0; i < bers.size(); ++i) {
    table.add_row({format_double(bers[i] * 100.0, 2) + "%",
                   format_double(result.sa0_early[i], 0),
                   format_double(result.sa0_late[i], 0),
                   format_double(result.sa1_early[i], 0),
                   format_double(result.sa1_late[i], 0)});
  }
  text << "success (%) after +" << extra
       << " episodes under permanent faults injected at EI=" << early
       << " / EI=" << late << ":\n"
       << table.render();
  ScenarioResult out;
  out.text = text.str();
  out.add_artifact("permanent_convergence", table.to_json());
  return out;
}

// ---- exploration study (Fig. 9) ------------------------------------------

ScenarioResult run_exploration(const ParamSet& params,
                               ScenarioContext& context) {
  const std::vector<ExplorationStudyRow> rows = run_exploration_study(
      policy_of(params), params.get_double_list("bers"),
      static_cast<int>(params.get_int("episodes")),
      static_cast<int>(params.get_int("repeats")),
      static_cast<std::uint64_t>(params.get_int("seed")), context);

  std::ostringstream text;
  Table table({"fault", "BER", "peak exploration %", "episodes to steady",
               "recovery episodes"});
  for (const ExplorationStudyRow& row : rows) {
    table.add_row({to_string(row.type),
                   format_double(row.ber * 100.0, 2) + "%",
                   format_double(row.mean_peak_exploration, 0),
                   format_double(row.mean_episodes_to_steady, 0),
                   row.mean_recovery_episodes >= 0.0
                       ? format_double(row.mean_recovery_episodes, 0)
                       : std::string("-")});
  }
  text << "exploration-controller telemetry vs BER and fault type:\n"
       << table.render();
  ScenarioResult out;
  out.text = text.str();
  out.add_artifact("exploration_study", table.to_json());
  return out;
}

// ---- reward curves (Fig. 3) ----------------------------------------------

/// Downsampled sparkline of a return trace (one glyph per bucket).
void append_curve(std::ostringstream& text, const RewardCurve& curve,
                  int buckets = 25) {
  char label[32];
  std::snprintf(label, sizeof label, "%-28s", curve.label.c_str());
  text << label;
  const std::size_t n = curve.returns.size();
  for (int b = 0; b < buckets; ++b) {
    const std::size_t index =
        std::min(n - 1, n * static_cast<std::size_t>(b) /
                            static_cast<std::size_t>(buckets));
    const double r = curve.returns[index];
    text << (r > 0.66    ? '#'
             : r > 0.33  ? '+'
             : r > -0.33 ? '.'
             : r > -0.66 ? '-'
                         : '_');
  }
  double final_avg = 0.0;
  const std::size_t tail = std::min<std::size_t>(20, n);
  for (std::size_t i = n - tail; i < n; ++i) final_avg += curve.returns[i];
  char suffix[32];
  std::snprintf(suffix, sizeof suffix, "  final=%.2f\n",
                final_avg / static_cast<double>(tail));
  text << suffix;
}

ScenarioResult run_reward_curve_scenario(const ParamSet& params,
                                         ScenarioContext& context) {
  const std::vector<RewardCurve> curves = run_reward_curves(
      policy_of(params), static_cast<int>(params.get_int("episodes")),
      static_cast<std::uint64_t>(params.get_int("seed")), context);
  std::ostringstream text;
  text << "cumulative return during training ('#'=near +1, '_'=near "
          "-1):\n";
  Table table({"scenario", "final return (mean of last 20)"});
  for (const RewardCurve& curve : curves) {
    append_curve(text, curve);
    double final_avg = 0.0;
    const std::size_t tail = std::min<std::size_t>(20, curve.returns.size());
    for (std::size_t i = curve.returns.size() - tail;
         i < curve.returns.size(); ++i)
      final_avg += curve.returns[i];
    table.add_row({curve.label,
                   format_double(final_avg / static_cast<double>(tail), 2)});
  }
  ScenarioResult out;
  out.text = text.str();
  out.add_artifact("reward_curves", table.to_json());
  return out;
}

// ---- trained-value histogram (Fig. 2b/2d) --------------------------------

ScenarioResult run_value_histogram(const ParamSet& params,
                                   ScenarioContext&) {
  const ValueHistogramResult histogram = trained_value_histogram(
      policy_of(params), density_of(params),
      static_cast<int>(params.get_int("episodes")),
      static_cast<std::uint64_t>(params.get_int("seed")));
  std::ostringstream text;
  text << histogram.histogram.render(40);
  char lines[160];
  std::snprintf(lines, sizeof lines,
                "max value: %.4f   min value: %.4f\n"
                "'0' bits: %.2f%%   '1' bits: %.2f%%   ratio: %.2fx\n",
                histogram.max_value, histogram.min_value,
                histogram.bits.zero_fraction() * 100.0,
                histogram.bits.one_fraction() * 100.0,
                histogram.bits.zero_to_one_ratio());
  text << lines;
  ScenarioResult out;
  out.text = text.str();
  out.add_artifact(
      "value_stats",
      "{\"min\": " + g17(histogram.min_value) +
          ", \"max\": " + g17(histogram.max_value) +
          ", \"zero_fraction\": " + g17(histogram.bits.zero_fraction()) +
          ", \"one_fraction\": " + g17(histogram.bits.one_fraction()) + "}");
  return out;
}

// ---- drone campaigns ------------------------------------------------------

DroneInferenceCampaignConfig drone_inference_config_of(
    const ParamSet& params) {
  DroneInferenceCampaignConfig config;
  config.policy = drone_policy_of(params);
  config.bers = params.get_double_list("bers");
  config.repeats = static_cast<int>(params.get_int("repeats"));
  config.seed = static_cast<std::uint64_t>(params.get_int("seed"));
  return config;
}

std::vector<ParamSpec> drone_inference_params(bool with_world) {
  std::vector<ParamSpec> params;
  if (with_world) params.push_back(world_param());
  params.push_back(ParamSpec::double_list(
      "bers", {0.0, 1e-4, 1e-3, 1e-2, 1e-1},
      "bit-error-rate axis (fractions)", 0.0, 1.0));
  params.push_back(repeats_param(15, "fault draws x rollouts per point"));
  for (ParamSpec& spec : drone_policy_params())
    params.push_back(std::move(spec));
  params.push_back(seed_param());
  return params;
}

/// The standard drone sweep table: BER rows, one MSF column per series.
Table drone_sweep_table(const std::vector<double>& bers,
                        const std::vector<std::string>& series,
                        const std::vector<std::vector<double>>& msf) {
  std::vector<std::string> headers = {"BER"};
  for (const std::string& name : series) headers.push_back(name);
  Table table(headers);
  for (std::size_t b = 0; b < bers.size(); ++b) {
    std::vector<std::string> row = {format_double(bers[b], 5)};
    for (std::size_t s = 0; s < msf.size(); ++s)
      row.push_back(format_double(msf[s][b], 0));
    table.add_row(std::move(row));
  }
  return table;
}

ScenarioResult run_drone_training_scenario(const ParamSet& params,
                                           ScenarioContext& context) {
  DroneTrainingCampaignConfig config;
  config.policy = drone_policy_of(params);
  config.bers = params.get_double_list("bers");
  config.injection_points = params.get_double_list("injection-points");
  config.fine_tune_episodes =
      static_cast<int>(params.get_int("fine-tune-episodes"));
  config.eval_repeats = static_cast<int>(params.get_int("eval-repeats"));
  config.seed = static_cast<std::uint64_t>(params.get_int("seed"));
  const DroneTrainingCampaignResult result =
      run_drone_training_campaign(world_of(params), config, context);

  std::ostringstream text;
  char header[64];
  std::snprintf(header, sizeof header, "fault-free fine-tuned MSF: %.1f m\n",
                result.fault_free_msf);
  text << header << "transient faults: MSF (m) by (injection step, BER)\n"
       << result.transient.render(0);
  Table table({"BER", "stuck-at-0 MSF (m)", "stuck-at-1 MSF (m)"});
  for (std::size_t i = 0; i < result.bers.size(); ++i) {
    table.add_row({format_double(result.bers[i], 5),
                   format_double(result.stuck_at_0[i], 0),
                   format_double(result.stuck_at_1[i], 0)});
  }
  text << "permanent faults throughout fine-tuning:\n" << table.render();

  ScenarioResult out;
  out.text = text.str();
  out.add_artifact("transient_msf", result.transient.to_json());
  out.add_artifact("permanent_msf", table.to_json());
  return out;
}

ScenarioResult run_drone_environments(const ParamSet& params,
                                      ScenarioContext& context) {
  const DroneInferenceCampaignConfig config =
      drone_inference_config_of(params);
  const EnvironmentSweepResult result =
      run_environment_sweep(config, context);
  std::vector<std::string> series;
  for (const std::string& environment : result.environments)
    series.push_back(environment + " MSF (m)");
  ScenarioResult out;
  out.text = "MSF (m) vs BER under transient weight faults, per "
             "environment:\n" +
             drone_sweep_table(result.bers, series, result.msf).render();
  out.add_artifact("environment_sweep", environment_sweep_json(result));
  return out;
}

ScenarioResult run_drone_locations(const ParamSet& params,
                                   ScenarioContext& context) {
  const DroneInferenceCampaignConfig config =
      drone_inference_config_of(params);
  const LocationSweepResult result =
      run_location_sweep(world_of(params), config, context);
  const Table table = drone_sweep_table(
      result.bers, {"Input", "Weight", "Act (T)", "Act (P)"}, result.msf);
  ScenarioResult out;
  out.text = "MSF (m) vs BER by fault location:\n" + table.render();
  out.add_artifact("location_sweep", table.to_json());
  return out;
}

ScenarioResult run_drone_layers(const ParamSet& params,
                                ScenarioContext& context) {
  const DroneInferenceCampaignConfig config =
      drone_inference_config_of(params);
  const LayerSweepResult result =
      run_layer_sweep(world_of(params), config, context);
  const Table table =
      drone_sweep_table(result.bers, result.layers, result.msf);
  ScenarioResult out;
  out.text = "MSF (m) vs BER by targeted layer:\n" + table.render();
  out.add_artifact("layer_sweep", table.to_json());
  return out;
}

ScenarioResult run_drone_data_types(const ParamSet& params,
                                    ScenarioContext& context) {
  const DroneInferenceCampaignConfig config =
      drone_inference_config_of(params);
  const DataTypeSweepResult result =
      run_data_type_sweep(world_of(params), config, context);
  const Table table =
      drone_sweep_table(result.bers, result.formats, result.msf);
  ScenarioResult out;
  out.text = "MSF (m) vs BER by fixed-point weight format:\n" +
             table.render();
  out.add_artifact("data_type_sweep", table.to_json());
  return out;
}

ScenarioResult run_drone_mitigation_scenario(const ParamSet& params,
                                             ScenarioContext& context) {
  const DroneInferenceCampaignConfig config =
      drone_inference_config_of(params);
  const DroneMitigationResult result =
      run_drone_mitigation_comparison(world_of(params), config, context);

  std::ostringstream text;
  Table table({"BER", "no mitigation", "mitigation"});
  double base_avg = 0.0, mitigated_avg = 0.0;
  int counted = 0;
  const double threshold = params.get_double("improvement-threshold");
  for (std::size_t b = 0; b < result.bers.size(); ++b) {
    table.add_row({format_double(result.bers[b], 5),
                   format_double(result.baseline_msf[b], 0),
                   format_double(result.mitigated_msf[b], 0)});
    if (result.bers[b] >= threshold) {
      base_avg += result.baseline_msf[b];
      mitigated_avg += result.mitigated_msf[b];
      ++counted;
    }
  }
  text << "flight distance (m), transient weight faults:\n"
       << table.render();
  text << "detector: " << result.detections << " anomalies filtered\n";
  if (counted > 0 && base_avg > 0.0) {
    char line[96];
    std::snprintf(line, sizeof line,
                  "high-BER flight-quality improvement: +%.0f%% (paper: "
                  "+39%%)\n",
                  (mitigated_avg / base_avg - 1.0) * 100.0);
    text << line;
  }

  ScenarioResult out;
  out.text = text.str();
  out.add_artifact(
      "drone_mitigation",
      "{\"bers\": " + json_array(result.bers) +
          ",\n  \"baseline_msf\": " + json_array(result.baseline_msf) +
          ",\n  \"mitigated_msf\": " + json_array(result.mitigated_msf) +
          ",\n  \"detections\": " + std::to_string(result.detections) + "}");
  return out;
}

// ---- ablation: detector margin sweep -------------------------------------

ScenarioResult run_margin_ablation(const ParamSet& params,
                                   ScenarioContext& context) {
  const std::vector<double> margins = params.get_double_list("margins");
  std::ostringstream text;
  Table table({"margin", "success % (mitigated)"});
  ScenarioResult out;
  for (std::size_t i = 0; i < margins.size(); ++i) {
    InferenceCampaignConfig config;
    config.kind = GridPolicyKind::kNeuralNet;
    config.train_episodes =
        static_cast<int>(params.get_int("train-episodes"));
    config.bers = {params.get_double("ber")};
    config.repeats = static_cast<int>(params.get_int("repeats"));
    config.seed = static_cast<std::uint64_t>(params.get_int("seed"));
    config.mitigated = true;
    config.detector_margin = margins[i];
    // Every margin arm is its own campaign: per-arm checkpoint files
    // (the config digest already separates their fingerprints).
    std::string suffix = "m";
    suffix += std::to_string(i);
    ScenarioContext arm = context;
    arm.stream = with_checkpoint_suffix(context.stream, suffix);
    const InferenceCampaignResult result =
        run_inference_campaign(config, arm);
    table.add_row({format_double(margins[i] * 100.0, 0) + "%",
                   format_double(result.success_by_mode[0][0], 1)});
  }
  text << "anomaly-detector margin sweep (NN Grid World, Transient-M "
          "weight faults):\n"
       << table.render();
  out.text = text.str();
  out.add_artifact("margin_sweep", table.to_json());
  return out;
}

// ---- analytic cost models (src/cost/) ------------------------------------
//
// Each estimator mirrors its driver's trial arithmetic exactly (cell
// and repeat counts are lifted from the run_* implementations above
// and in src/experiments/) and prices per-trial work via the machinery
// the trials actually execute: NN MACs/bytes come from walking the
// real layer stack (cost::network_forward_work over make_c3f2 / a
// Dense mirror of the MLP policy), env stepping is counted at the
// per-episode step budget. Step budgets are upper bounds — episodes
// end early on goal or collision — so the machine profile's calibrated
// rates absorb the average-vs-cap gap; the acceptance bar is 3x, not
// cycle accuracy.

using cost::CampaignCost;
using cost::CostEstimate;
using cost::Work;

/// Policy-store word widths: both Grid World formats are 8-bit; the
/// drone engine streams wider transposed-weight/activation words.
constexpr double kGridWordBytes = 1.0;
constexpr double kDroneWordBytes = 2.0;

struct GridPolicyModel {
  Work forward;        // one Q-evaluation (zero MACs for tabular)
  double store_words;  // fault-injection target size in words
};

GridPolicyModel grid_policy_model(GridPolicyKind kind,
                                  ObstacleDensity density) {
  const int states = GridWorld::preset(density).state_count();
  if (kind == GridPolicyKind::kTabular)
    return {Work{}, 4.0 * static_cast<double>(states)};
  const MlpQConfig config;
  Rng rng(1);
  Network net;
  net.add(std::make_unique<Dense>(states, config.hidden_units, rng));
  net.add(std::make_unique<ReLU>());
  net.add(std::make_unique<Dense>(config.hidden_units, 4, rng));
  return {cost::network_forward_work(net, Shape{1, 1, states},
                                     kGridWordBytes),
          static_cast<double>(net.parameter_count())};
}

/// One inference rollout: env stepping plus one Q-evaluation per step,
/// plus the trial's fault-inject + golden-restore pass over the store.
Work grid_rollout_trial(GridPolicyKind kind, ObstacleDensity density) {
  const GridPolicyModel model = grid_policy_model(kind, density);
  const MlpQConfig config;  // max_steps shared by both agent kinds
  Work work = model.forward.scaled(config.max_steps);
  work.grid_steps = config.max_steps;
  work.bytes += cost::inject_restore_bytes(
      static_cast<std::size_t>(model.store_words), kGridWordBytes);
  return work;
}

/// One training run of `episodes` episodes (forward + backward + update
/// per step for the NN policy), plus one inject/restore pass.
Work grid_training_trial(GridPolicyKind kind, ObstacleDensity density,
                         double episodes) {
  const GridPolicyModel model = grid_policy_model(kind, density);
  const MlpQConfig config;
  Work work = model.forward.scaled(3.0 * config.max_steps * episodes);
  work.grid_steps = static_cast<double>(config.max_steps) * episodes;
  work.bytes += cost::inject_restore_bytes(
      static_cast<std::size_t>(model.store_words), kGridWordBytes);
  return work;
}

std::size_t bers_of(const ParamSet& params) {
  return params.get_double_list("bers").size();
}

std::size_t repeats_of(const ParamSet& params) {
  return static_cast<std::size_t>(params.get_int("repeats"));
}

const char* grid_inference_label(GridPolicyKind kind) {
  return kind == GridPolicyKind::kTabular ? "grid_inference_trials_tabular"
                                          : "grid_inference_trials_nn";
}

CostEstimate grid_inference_cost(const ParamSet& params) {
  const GridPolicyKind kind = policy_of(params);
  const ObstacleDensity density = density_of(params);
  CostEstimate est;
  est.setup = grid_training_trial(
      kind, density,
      static_cast<double>(params.get_int("train-episodes")));
  CampaignCost campaign;
  campaign.label = grid_inference_label(kind);
  campaign.trials = 4 * bers_of(params) * repeats_of(params);
  campaign.per_trial = grid_rollout_trial(kind, density);
  est.campaigns.push_back(std::move(campaign));
  return est;
}

CostEstimate grid_mitigation_cost(const ParamSet& params) {
  const GridPolicyKind kind = policy_of(params);
  const ObstacleDensity density = density_of(params);
  const double train =
      static_cast<double>(params.get_int("train-episodes"));
  CostEstimate est;
  // Both arms train their own policy before their campaign.
  est.setup = grid_training_trial(kind, density, 2.0 * train);
  for (const char* arm : {"baseline", "mitigated"}) {
    CampaignCost campaign;
    campaign.label = arm;
    campaign.trials = 4 * bers_of(params) * repeats_of(params);
    campaign.per_trial = grid_rollout_trial(kind, density);
    est.campaigns.push_back(std::move(campaign));
  }
  return est;
}

CostEstimate grid_training_transient_cost(const ParamSet& params) {
  CostEstimate est;
  CampaignCost campaign;
  campaign.label = "grid_training_transient";
  campaign.trials = bers_of(params) *
                    params.get_int_list("injection-episodes").size() *
                    repeats_of(params);
  campaign.per_trial = grid_training_trial(
      policy_of(params), density_of(params),
      static_cast<double>(params.get_int("episodes")));
  est.campaigns.push_back(std::move(campaign));
  return est;
}

CostEstimate grid_training_permanent_cost(const ParamSet& params) {
  CostEstimate est;
  CampaignCost campaign;
  campaign.label = "grid_training_permanent";
  campaign.trials = 2 * bers_of(params) * repeats_of(params);
  campaign.per_trial = grid_training_trial(
      policy_of(params), density_of(params),
      static_cast<double>(params.get_int("episodes")));
  est.campaigns.push_back(std::move(campaign));
  return est;
}

/// The convergence / exploration / reward scenarios have no density
/// knob: their drivers train on the middle preset.
CostEstimate grid_convergence_transient_cost(const ParamSet& params) {
  CostEstimate est;
  CampaignCost campaign;
  campaign.label = "grid_convergence_transient";
  campaign.trials = bers_of(params) * repeats_of(params);
  campaign.per_trial = grid_training_trial(
      policy_of(params), ObstacleDensity::kMiddle,
      static_cast<double>(params.get_int("fault-episode") +
                          params.get_int("max-extra-episodes")));
  est.campaigns.push_back(std::move(campaign));
  return est;
}

CostEstimate grid_convergence_permanent_cost(const ParamSet& params) {
  CostEstimate est;
  CampaignCost campaign;
  campaign.label = "grid_convergence_permanent";
  // Four arms per BER: (SA0, SA1) x (early, late); an arm trains to
  // its injection point plus the extra budget, so cost the average of
  // the early and late arms.
  campaign.trials = 4 * bers_of(params) * repeats_of(params);
  const double mean_episodes =
      0.5 * static_cast<double>(params.get_int("early-episode") +
                                params.get_int("late-episode")) +
      static_cast<double>(params.get_int("extra-episodes"));
  campaign.per_trial = grid_training_trial(
      policy_of(params), ObstacleDensity::kMiddle, mean_episodes);
  est.campaigns.push_back(std::move(campaign));
  return est;
}

CostEstimate grid_exploration_cost(const ParamSet& params) {
  CostEstimate est;
  CampaignCost campaign;
  campaign.label = "grid_exploration_study";
  campaign.trials = 3 * bers_of(params) * repeats_of(params);
  campaign.per_trial = grid_training_trial(
      policy_of(params), ObstacleDensity::kMiddle,
      static_cast<double>(params.get_int("episodes")));
  est.campaigns.push_back(std::move(campaign));
  return est;
}

CostEstimate grid_reward_curves_cost(const ParamSet& params) {
  CostEstimate est;
  CampaignCost campaign;
  campaign.label = "grid_reward_curves";
  campaign.trials = 5;  // the five Fig. 3 fault scenarios
  campaign.per_trial = grid_training_trial(
      policy_of(params), ObstacleDensity::kMiddle,
      static_cast<double>(params.get_int("episodes")));
  est.campaigns.push_back(std::move(campaign));
  return est;
}

CostEstimate grid_value_histogram_cost(const ParamSet& params) {
  CostEstimate est;
  CampaignCost campaign;
  campaign.label = "grid_value_histogram";
  campaign.trials = 1;
  campaign.per_trial = grid_training_trial(
      policy_of(params), density_of(params),
      static_cast<double>(params.get_int("episodes")));
  est.campaigns.push_back(std::move(campaign));
  return est;
}

CostEstimate margin_ablation_cost(const ParamSet& params) {
  const std::size_t margins = params.get_double_list("margins").size();
  const double train =
      static_cast<double>(params.get_int("train-episodes"));
  CostEstimate est;
  // Every margin arm retrains the NN policy before its campaign.
  est.setup =
      grid_training_trial(GridPolicyKind::kNeuralNet,
                          ObstacleDensity::kMiddle,
                          train * static_cast<double>(margins));
  for (std::size_t i = 0; i < margins; ++i) {
    CampaignCost campaign;
    campaign.label = "margin[" + std::to_string(i) + "]";
    campaign.trials = 4 * repeats_of(params);  // single-BER axis
    campaign.per_trial = grid_rollout_trial(GridPolicyKind::kNeuralNet,
                                            ObstacleDensity::kMiddle);
    est.campaigns.push_back(std::move(campaign));
  }
  return est;
}

// ---- drone cost models ---------------------------------------------------

struct DroneModel {
  Work forward;        // one C3F2 forward pass
  double store_words;  // parameter count (weight-fault target)
  double max_steps;    // per-flight decision-step budget
};

DroneModel drone_model(const ParamSet& params) {
  const DronePolicySpec spec = drone_policy_of(params);
  const C3F2Config c3f2 = C3F2Config::preset(spec.preset);
  Rng rng(1);
  const Network net = make_c3f2(c3f2, rng);
  const DroneEnvConfig env = drone_env_config_for(c3f2);
  const int max_steps =
      spec.env_max_steps > 0 ? spec.env_max_steps : env.max_steps;
  return {cost::network_forward_work(net, c3f2.input_shape(),
                                     kDroneWordBytes),
          static_cast<double>(net.parameter_count()),
          static_cast<double>(max_steps)};
}

/// One evaluation flight: camera render per step + one forward per
/// step.
Work drone_flight(const DroneModel& model) {
  Work work = model.forward.scaled(model.max_steps);
  work.drone_steps = model.max_steps;
  return work;
}

/// One training episode (imitation or DDQN fine-tune): a flight whose
/// per-step NN work is forward + backward + update.
Work drone_training_episode(const DroneModel& model) {
  Work work = model.forward.scaled(3.0 * model.max_steps);
  work.drone_steps = model.max_steps;
  return work;
}

/// train_drone_policy preamble for `policies` distinct policies.
Work drone_setup(const ParamSet& params, const DroneModel& model,
                 double policies) {
  const DronePolicySpec spec = drone_policy_of(params);
  const double episodes =
      static_cast<double>(spec.imitation_episodes + spec.ddqn_episodes);
  return drone_training_episode(model).scaled(episodes * policies);
}

/// Shared shape of the Fig. 7b-7e / 10b sweeps: `rows` series x the
/// BER axis, each cell `repeats` flights. A campaign trial is one
/// flight, and only one fault-free cell per engine slot flies (every
/// BER-0 cell of a slot reads it), so `trials` counts the flights
/// flown: (engine_slots + rows x faulted BERs) x repeats when the axis
/// has a BER-0 column. The perf sections count cells x repeats.
CostEstimate drone_sweep_cost(const ParamSet& params, std::size_t rows,
                              const char* label, double policies,
                              std::size_t engine_slots) {
  const DroneModel model = drone_model(params);
  CostEstimate est;
  est.setup = drone_setup(params, model, policies);
  const std::size_t repeats = repeats_of(params);
  const std::vector<double> bers = params.get_double_list("bers");
  const auto faulted = static_cast<std::size_t>(std::count_if(
      bers.begin(), bers.end(), [](double ber) { return ber > 0.0; }));
  const std::size_t cells_flown =
      rows * faulted + (faulted < bers.size() ? engine_slots : 0);
  CampaignCost campaign;
  campaign.label = label;
  campaign.trials = cells_flown * repeats;
  campaign.perf_trials = rows * bers.size() * repeats;
  campaign.per_trial = drone_flight(model);
  campaign.per_trial.bytes += cost::inject_restore_bytes(
      static_cast<std::size_t>(model.store_words), kDroneWordBytes);
  est.campaigns.push_back(std::move(campaign));
  return est;
}

CostEstimate drone_training_campaign_cost(const ParamSet& params) {
  const DroneModel model = drone_model(params);
  const double fine_tune =
      static_cast<double>(params.get_int("fine-tune-episodes"));
  const double evals =
      static_cast<double>(params.get_int("eval-repeats"));
  // One fine-tune run (faulted) plus its MSF evaluation flights.
  Work per_trial = drone_training_episode(model).scaled(fine_tune);
  per_trial += drone_flight(model).scaled(evals);
  per_trial.bytes += cost::inject_restore_bytes(
      static_cast<std::size_t>(model.store_words), kDroneWordBytes);

  CostEstimate est;
  est.setup = drone_setup(params, model, 1.0);
  CampaignCost transient;
  transient.label = "drone_training_trials";
  transient.trials =
      bers_of(params) * params.get_double_list("injection-points").size();
  transient.per_trial = per_trial;
  est.campaigns.push_back(std::move(transient));
  CampaignCost flat;  // fault-free row + the two stuck-at rows
  flat.label = "drone_training_flat";
  flat.trials = 1 + 2 * bers_of(params);
  flat.per_trial = per_trial;
  est.campaigns.push_back(std::move(flat));
  return est;
}

/// Attaches a cost estimator to a spec (registration sugar).
ScenarioSpec with_cost(ScenarioSpec spec,
                       std::function<CostEstimate(const ParamSet&)> cost) {
  spec.cost = std::move(cost);
  return spec;
}

/// Runs `check` on the bound parameters before the factory binds them,
/// so a cross-parameter error throws ParamError before any output.
ScenarioSpec with_check(ScenarioSpec spec,
                        std::function<void(const ParamSet&)> check) {
  spec.factory = [check = std::move(check),
                  bind = std::move(spec.factory)](const ParamSet& bound) {
    check(bound);
    return bind(bound);
  };
  return spec;
}

}  // namespace

// ---- exported formatters --------------------------------------------------

std::string inference_campaign_json(const InferenceCampaignConfig& config,
                                    const InferenceCampaignResult& result) {
  std::ostringstream out;
  out << "{\"policy\": " << json_quote(to_string(config.kind))
      << ", \"mitigated\": " << (config.mitigated ? "true" : "false")
      << ", \"train_episodes\": " << config.train_episodes
      << ", \"repeats\": " << config.repeats << ",\n \"bers\": "
      << json_array(result.bers) << ",\n \"success_by_mode\": [";
  for (std::size_t mode = 0; mode < result.success_by_mode.size(); ++mode)
    out << (mode ? ", " : "") << json_array(result.success_by_mode[mode]);
  out << "],\n \"detections\": " << result.detections << "}";
  return out.str();
}

std::string mitigation_comparison_json(const MitigationComparison& result) {
  return "{\"bers\": " + json_array(result.bers) +
         ",\n \"baseline_success\": " + json_array(result.baseline_success) +
         ",\n \"mitigated_success\": " +
         json_array(result.mitigated_success) + "}";
}

std::string permanent_sweep_json(const PermanentTrainingSweep& sweep) {
  return "{\"bers\": " + json_array(sweep.bers) +
         ",\n \"stuck_at_0_success\": " +
         json_array(sweep.stuck_at_0_success) +
         ",\n \"stuck_at_1_success\": " +
         json_array(sweep.stuck_at_1_success) + "}";
}

std::string environment_sweep_json(const EnvironmentSweepResult& result) {
  std::ostringstream out;
  out << "{\"environments\": [";
  for (std::size_t e = 0; e < result.environments.size(); ++e)
    out << (e ? ", " : "") << json_quote(result.environments[e]);
  out << "],\n \"bers\": " << json_array(result.bers) << ",\n \"msf\": [";
  for (std::size_t e = 0; e < result.msf.size(); ++e)
    out << (e ? ", " : "") << json_array(result.msf[e]);
  out << "]}";
  return out.str();
}

// ---- registration ---------------------------------------------------------

void register_builtin_scenarios(ScenarioRegistry& registry) {
  registry.add(with_cost(
      make_spec(
          "grid-inference",
          "faults in the frozen Grid World policy store at inference time: "
          "success rate vs BER for all four fault modes (Fig. 5)",
          {"grid", "inference"}, inference_params(), run_grid_inference),
      grid_inference_cost));

  registry.add(with_cost(
      make_spec(
          "grid-inference-mitigation",
          "range-based anomaly detection on Grid World inference: baseline "
          "vs mitigated success under Transient-M weight faults (Fig. 10a)",
          {"grid", "inference", "mitigation", "anomaly-detection"},
          mitigation_params(), run_grid_inference_mitigation),
      grid_mitigation_cost));

  registry.add(with_cost(
      with_check(make_spec("grid-training-transient",
                           "transient faults during Grid World training: "
                           "success-rate heatmap by (BER, injection "
                           "episode) (Figs. 2, 8)",
                           {"grid", "training"}, training_params(true),
                           run_training_transient),
                 check_injection_episodes),
      grid_training_transient_cost));

  registry.add(with_cost(
      make_spec(
          "grid-training-permanent",
          "permanent stuck-at faults throughout Grid World training: "
          "success vs BER (Figs. 2, 8)",
          {"grid", "training"}, training_params(false),
          run_training_permanent),
      grid_training_permanent_cost));

  registry.add(with_cost(make_spec(
      "grid-convergence-transient",
      "episodes to re-converge after a late transient fault (Fig. 4a/4c)",
      {"grid", "training", "convergence"},
      {policy_param("tabular"),
       ParamSpec::double_list("bers", {0.001, 0.003, 0.005, 0.008, 0.010},
                              "bit-error-rate axis (fractions)", 0.0, 1.0),
       ParamSpec::integer("fault-episode", 220,
                          "episode the transient fault strikes", 0, 1e7),
       ParamSpec::integer("max-extra-episodes", 1000,
                          "training budget after the fault", 1, 1e7),
       repeats_param(10, "runs per BER"), seed_param()},
      run_convergence_transient), grid_convergence_transient_cost));

  registry.add(with_cost(make_spec(
      "grid-convergence-permanent",
      "success after extra training under permanent faults injected early "
      "vs late (Fig. 4b/4d)",
      {"grid", "training", "convergence"},
      {policy_param("tabular"),
       ParamSpec::double_list("bers", {0.001, 0.003, 0.005, 0.008, 0.010},
                              "bit-error-rate axis (fractions)", 0.0, 1.0),
       ParamSpec::integer("early-episode", 400,
                          "early injection point (episodes)", 0, 1e7),
       ParamSpec::integer("late-episode", 800,
                          "late injection point (episodes)", 0, 1e7),
       ParamSpec::integer("extra-episodes", 500,
                          "extra training granted after injection", 1, 1e7),
       repeats_param(10, "runs per cell"), seed_param()},
      run_convergence_permanent), grid_convergence_permanent_cost));

  registry.add(with_cost(make_spec(
      "grid-exploration-study",
      "exploration-controller telemetry vs BER and fault type (Fig. 9)",
      {"grid", "training", "mitigation"},
      {policy_param("tabular"),
       ParamSpec::double_list("bers", {0.001, 0.003, 0.005, 0.008, 0.010},
                              "bit-error-rate axis (fractions)", 0.0, 1.0),
       ParamSpec::integer("episodes", 1000, "training episodes", 1, 1e7),
       repeats_param(8, "runs per (fault, BER) row"), seed_param()},
      run_exploration), grid_exploration_cost));

  registry.add(with_cost(make_spec(
      "grid-reward-curves",
      "example cumulative-return traces under transient and permanent "
      "faults (Fig. 3)",
      {"grid", "training"},
      {policy_param("tabular"),
       ParamSpec::integer("episodes", 1000, "training episodes", 1, 1e7),
       seed_param()},
      run_reward_curve_scenario), grid_reward_curves_cost));

  registry.add(with_cost(make_spec(
      "grid-value-histogram",
      "trained-value histogram and 0/1-bit statistics of the policy "
      "store (Fig. 2b/2d)",
      {"grid", "training"},
      {policy_param("tabular"), density_param(),
       ParamSpec::integer("episodes", 1000, "training episodes", 1, 1e7),
       seed_param()},
      run_value_histogram), grid_value_histogram_cost));

  {
    std::vector<ParamSpec> params = {
        world_param(),
        ParamSpec::double_list("bers", {1e-4, 1e-3, 1e-2, 1e-1},
                               "bit-error-rate axis (fractions)", 0.0, 1.0),
        ParamSpec::double_list("injection-points", {0.0, 0.33, 0.66},
                               "injection points as fractions of the "
                               "fine-tuning step budget; a run that "
                               "crashes first injects after its last step",
                               0.0, 1.0),
        ParamSpec::integer("fine-tune-episodes", 2,
                           "online fine-tuning episodes", 1, 1e6),
        ParamSpec::integer("eval-repeats", 3,
                           "MSF evaluation rollouts per cell", 1, 1e6),
    };
    for (ParamSpec& spec : drone_policy_params())
      params.push_back(std::move(spec));
    params.push_back(seed_param());
    registry.add(with_cost(
        make_spec(
            "drone-training",
            "faults during the drone policy's online fine-tuning: MSF by "
            "(BER, injection step) plus stuck-at rows (Fig. 7a)",
            {"drone", "training"}, std::move(params),
            run_drone_training_scenario),
        drone_training_campaign_cost));
  }

  registry.add(with_cost(
      make_spec(
          "drone-environments",
          "drone inference resilience across environments: MSF vs BER "
          "under transient weight faults (Fig. 7b)",
          {"drone", "inference"}, drone_inference_params(false),
          run_drone_environments),
      [](const ParamSet& params) {  // 2 worlds, one policy per world
        return drone_sweep_cost(params, 2, "drone_env_trials", 2.0,
                                EnvironmentSweepResult::kEngineSlots);
      }));

  registry.add(with_cost(
      make_spec(
          "drone-fault-locations",
          "fault-location sensitivity of drone inference: input, weight, "
          "and activation faults (Fig. 7c)",
          {"drone", "inference"}, drone_inference_params(true),
          run_drone_locations),
      [](const ParamSet& params) {  // input / weight / act (T) / act (P)
        return drone_sweep_cost(params, 4, "drone_location_trials", 1.0,
                                LocationSweepResult::kEngineSlots);
      }));

  registry.add(with_cost(
      make_spec(
          "drone-layers",
          "per-layer weight-fault sensitivity of the C3F2 policy (Fig. 7d)",
          {"drone", "inference"}, drone_inference_params(true),
          run_drone_layers),
      [](const ParamSet& params) {  // conv1..3, fc1, fc2
        return drone_sweep_cost(params, 5, "drone_layer_trials", 1.0,
                                LayerSweepResult::kEngineSlots);
      }));

  registry.add(with_cost(
      make_spec(
          "drone-data-types",
          "fixed-point data-type sensitivity: MSF vs BER per weight "
          "encoding (Fig. 7e)",
          {"drone", "inference"}, drone_inference_params(true),
          run_drone_data_types),
      [](const ParamSet& params) {  // the three fixed-point encodings
        return drone_sweep_cost(params, 3, "drone_data_type_trials", 1.0,
                                DataTypeSweepResult::kEngineSlots);
      }));

  {
    std::vector<ParamSpec> params = drone_inference_params(true);
    params.push_back(ParamSpec::real(
        "improvement-threshold", 0.001,
        "BERs at or above this average into the improvement summary",
        0.0, 1.0));
    registry.add(with_cost(
        make_spec(
            "drone-mitigation",
            "range-based anomaly detection on drone inference: baseline vs "
            "mitigated MSF under weight faults (Fig. 10b)",
            {"drone", "inference", "mitigation", "anomaly-detection"},
            std::move(params), run_drone_mitigation_scenario),
        [](const ParamSet& params) {  // baseline + mitigated rows
          return drone_sweep_cost(params, 2, "drone_mitigation_trials", 1.0,
                                  DroneMitigationResult::kEngineSlots);
        }));
  }

  registry.add(with_cost(
      make_spec(
          "ablation-detector-margin",
          "anomaly-detector margin sweep on NN Grid World inference (the "
          "paper fixes 10%)",
          {"grid", "inference", "mitigation", "ablation"},
          {ParamSpec::double_list("margins", {0.0, 0.05, 0.10, 0.25, 0.50},
                                  "detector margins to sweep", 0.0, 10.0),
           ParamSpec::real("ber", 0.008, "weight-fault BER", 0.0, 1.0),
           ParamSpec::integer("train-episodes", 1000,
                              "fault-free training episodes", 1, 1e7),
           repeats_param(40, "fault draws per margin"), seed_param()},
          run_margin_ablation),
      margin_ablation_cost));
}

}  // namespace ftnav
