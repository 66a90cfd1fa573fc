#include "experiments/grid_training.h"

#include <memory>
#include <stdexcept>
#include <string>

#include "campaign/campaign_runner.h"
#include "util/rng.h"
#include "util/stats.h"

namespace ftnav {
namespace {

double default_alpha(GridPolicyKind kind) {
  // Paper §5.1: alpha = 0.8 for tabular, 0.4 for NN (the NN self-heals
  // faster, so it needs a smaller exploration boost).
  return kind == GridPolicyKind::kTabular ? 0.8 : 0.4;
}

}  // namespace

std::string to_string(GridPolicyKind kind) {
  return kind == GridPolicyKind::kTabular ? "tabular" : "NN";
}

GridAgentHandle::GridAgentHandle(GridPolicyKind kind, const GridWorld& env,
                                 Rng& rng)
    : env_(&env) {
  if (kind == GridPolicyKind::kTabular) {
    tabular_ = std::make_unique<TabularQAgent>(env);
  } else {
    mlp_ = std::make_unique<MlpQAgent>(env, MlpQConfig{}, rng);
  }
}

double GridAgentHandle::train_episode(double epsilon, Rng& rng) {
  return tabular_ ? tabular_->run_training_episode(epsilon, rng)
                  : mlp_->run_training_episode(epsilon, rng);
}

void GridAgentHandle::train_fault_free(int episodes, Rng& rng) {
  AdaptiveExplorationController controller(ExplorationConfig{}, false);
  for (int episode = 0; episode < episodes; ++episode)
    controller.end_episode(train_episode(controller.rate(), rng));
}

int GridAgentHandle::greedy_action(int state) {
  return tabular_ ? tabular_->greedy_action(state)
                  : mlp_->greedy_action(state);
}

double GridAgentHandle::greedy_return() {
  return env_->rollout(
      [this](int state) { return greedy_action(state); },
      tabular_ ? tabular_->config().max_steps : mlp_->config().max_steps);
}

QVector& GridAgentHandle::store() {
  return tabular_ ? tabular_->table() : mlp_->weights();
}

void GridAgentHandle::inject_transient(const FaultMap& map) {
  if (tabular_)
    tabular_->inject_transient(map);
  else
    mlp_->inject_transient(map);
}

void GridAgentHandle::set_stuck(const StuckAtMask& mask) {
  if (tabular_)
    tabular_->set_stuck(mask);
  else
    mlp_->set_stuck(mask);
}

GridTrainResult run_grid_training(const GridTrainSpec& spec) {
  if (spec.episodes <= 0)
    throw std::invalid_argument("GridTrainSpec: episodes must be positive");
  const GridWorld env = GridWorld::preset(spec.density);
  Rng rng(spec.seed);
  Rng fault_rng = rng.split(0x5eed);
  GridAgentHandle agent(spec.kind, env, rng);

  ExplorationConfig exploration;
  exploration.alpha = spec.alpha_override >= 0.0
                          ? spec.alpha_override
                          : default_alpha(spec.kind);
  AdaptiveExplorationController controller(exploration, spec.mitigated);

  GridTrainResult result;
  if (spec.record_returns) result.returns.reserve(spec.episodes);

  int consecutive_successes = 0;
  const bool has_transient = spec.transient_ber.has_value();

  for (int episode = 0; episode < spec.episodes; ++episode) {
    if (has_transient && episode == spec.transient_episode &&
        *spec.transient_ber > 0.0) {
      const FaultMap map = FaultMap::sample(
          FaultType::kTransientFlip, *spec.transient_ber,
          agent.store().size(), agent.store().format().total_bits(),
          fault_rng);
      agent.inject_transient(map);
    }
    if (spec.permanent_type && episode == spec.permanent_episode &&
        spec.permanent_ber > 0.0) {
      const FaultMap map = FaultMap::sample(
          *spec.permanent_type, spec.permanent_ber, agent.store().size(),
          agent.store().format().total_bits(), fault_rng);
      agent.set_stuck(StuckAtMask::compile(map));
    }

    const double train_return = agent.train_episode(controller.rate(), rng);

    // The controller (and Fig. 3's curves) key on policy quality: the
    // greedy-from-source return. Training returns are too noisy under
    // exploring starts to carry the paper's reward-drop detection.
    // The evaluation rollout is skipped when nothing consumes it.
    const bool needs_eval = spec.mitigated || spec.record_returns ||
                            spec.track_reconvergence;
    const double eval_return =
        needs_eval ? agent.greedy_return() : train_return;
    controller.end_episode(eval_return);
    if (spec.record_returns) result.returns.push_back(eval_return);

    if (spec.track_reconvergence && has_transient &&
        episode >= spec.transient_episode &&
        result.reconverge_episodes < 0) {
      if (eval_return > 0.0) {
        ++consecutive_successes;
        if (consecutive_successes >= 5)
          result.reconverge_episodes =
              episode - spec.transient_episode - 4;
      } else {
        consecutive_successes = 0;
      }
    }
  }

  result.final_return = agent.greedy_return();
  result.success = result.final_return > 0.0;
  result.peak_exploration = controller.peak_adjusted_rate();
  result.steady_episode = controller.steady_reached_episode();
  result.transient_detections = controller.transient_detections();
  result.permanent_detections = controller.permanent_detections();
  return result;
}

HeatmapGrid run_transient_training_heatmap(
    const TrainingHeatmapConfig& config, const ScenarioContext& context) {
  // Injection matches an exact episode, so one outside the run would
  // leave its whole column fault-free.
  for (int episode : config.injection_episodes)
    if (episode < 0 || episode >= config.episodes)
      throw std::invalid_argument(
          "TrainingHeatmapConfig: injection episode " +
          std::to_string(episode) + " is outside training episodes 0.." +
          std::to_string(config.episodes - 1));
  std::vector<std::string> row_labels;
  for (double ber : config.bers)
    row_labels.push_back(format_double(ber * 100.0, 1) + "%");
  std::vector<std::string> col_labels;
  for (int episode : config.injection_episodes)
    col_labels.push_back(std::to_string(episode));

  HeatmapGrid grid(row_labels, col_labels);

  // Trial grid: (BER, injection episode, repeat), sharded across the
  // pool. Shards accumulate per-cell success counts (integer adds are
  // partition-invariant) merged in the final reduce.
  const std::size_t cols = config.injection_episodes.size();
  const std::size_t cell_count = config.bers.size() * cols;
  const auto repeats = static_cast<std::size_t>(config.repeats);
  const CampaignRunner runner(context.threads);
  const std::string stream_tag =
      std::string("grid-training/transient-heatmap/") +
      to_string(config.kind) + (config.mitigated ? "/mitigated" : "") +
      "#" +
      ConfigDigest()
          .add(static_cast<int>(config.density))
          .add(config.episodes)
          .add(config.repeats)
          .add(config.bers)
          .add(config.injection_episodes)
          .hex();
  const std::vector<int> successes = runner.map_reduce_streamed(
      stream_tag, cell_count * repeats, config.seed,
      [&] { return std::vector<int>(cell_count, 0); },
      [&](std::vector<int>& acc, std::size_t trial, Rng& rng) {
        const std::size_t cell = trial / repeats;
        GridTrainSpec spec;
        spec.kind = config.kind;
        spec.density = config.density;
        spec.episodes = config.episodes;
        spec.transient_ber = config.bers[cell / cols];
        spec.transient_episode =
            config.injection_episodes[cell % cols];
        spec.mitigated = config.mitigated;
        spec.seed = rng();
        if (run_grid_training(spec).success) ++acc[cell];
      },
      [](std::vector<int>& into, std::vector<int>&& from) {
        for (std::size_t i = 0; i < into.size(); ++i) into[i] += from[i];
      },
      with_checkpoint_suffix(context.stream, "transient"));
  for (std::size_t cell = 0; cell < cell_count; ++cell)
    grid.set(cell / cols, cell % cols,
             100.0 * static_cast<double>(successes[cell]) /
                 static_cast<double>(config.repeats));
  return grid;
}

PermanentTrainingSweep run_permanent_training_sweep(
    const TrainingHeatmapConfig& config, const ScenarioContext& context) {
  PermanentTrainingSweep sweep;
  sweep.bers = config.bers;

  // Trial grid: (fault type, BER, repeat) flattened with stuck-at-0
  // cells first, matching the result layout.
  const std::size_t ber_count = config.bers.size();
  const auto repeats = static_cast<std::size_t>(config.repeats);
  const CampaignRunner runner(context.threads);
  const std::string stream_tag =
      std::string("grid-training/permanent-sweep/") +
      to_string(config.kind) + (config.mitigated ? "/mitigated" : "") +
      "#" +
      ConfigDigest()
          .add(static_cast<int>(config.density))
          .add(config.episodes)
          .add(config.repeats)
          .add(config.bers)
          .hex();
  const std::vector<int> successes = runner.map_reduce_streamed(
      stream_tag, 2 * ber_count * repeats, config.seed ^ 0x9e37,
      [&] { return std::vector<int>(2 * ber_count, 0); },
      [&](std::vector<int>& acc, std::size_t trial, Rng& rng) {
        const std::size_t cell = trial / repeats;
        GridTrainSpec spec;
        spec.kind = config.kind;
        spec.density = config.density;
        spec.episodes = config.episodes;
        spec.permanent_type = cell < ber_count ? FaultType::kStuckAt0
                                               : FaultType::kStuckAt1;
        spec.permanent_ber = config.bers[cell % ber_count];
        spec.permanent_episode = 0;
        spec.mitigated = config.mitigated;
        spec.seed = rng();
        if (run_grid_training(spec).success) ++acc[cell];
      },
      [](std::vector<int>& into, std::vector<int>&& from) {
        for (std::size_t i = 0; i < into.size(); ++i) into[i] += from[i];
      },
      with_checkpoint_suffix(context.stream, "permanent"));
  for (std::size_t cell = 0; cell < 2 * ber_count; ++cell) {
    const double pct = 100.0 * static_cast<double>(successes[cell]) /
                       static_cast<double>(config.repeats);
    (cell < ber_count ? sweep.stuck_at_0_success
                      : sweep.stuck_at_1_success)
        .push_back(pct);
  }
  return sweep;
}

ValueHistogramResult trained_value_histogram(GridPolicyKind kind,
                                             ObstacleDensity density,
                                             int episodes,
                                             std::uint64_t seed) {
  const GridWorld env = GridWorld::preset(density);
  Rng rng(seed);
  GridAgentHandle agent(kind, env, rng);
  agent.train_fault_free(episodes, rng);

  const QVector& store = agent.store();
  ValueHistogramResult result{
      Histogram(store.format().min_value(),
                store.format().max_value() + store.format().resolution(),
                32),
      count_bits(store.words(), store.format().total_bits()), 0.0, 0.0};
  const auto values = store.decode_all();
  result.histogram.add_all(values);
  result.min_value = result.histogram.observed_min();
  result.max_value = result.histogram.observed_max();
  return result;
}

std::vector<RewardCurve> run_reward_curves(GridPolicyKind kind, int episodes,
                                           std::uint64_t seed,
                                           const ScenarioContext& context) {
  // Scenario shape follows Fig. 3: two transient upsets (one mid-, one
  // late-training), one stuck-at-0 and one stuck-at-1, plus fault-free.
  struct Scenario {
    std::string label;
    std::optional<double> transient_ber;
    double transient_at = 0.0;  // fraction of the episode budget
    std::optional<FaultType> permanent;
    double permanent_ber = 0.0;
  };
  const std::vector<Scenario> scenarios = {
      {"fault-free", std::nullopt, 0.0, std::nullopt, 0.0},
      {"transient BER=0.6% @25%", 0.006, 0.25, std::nullopt, 0.0},
      {"transient BER=0.6% @85%", 0.006, 0.85, std::nullopt, 0.0},
      {"stuck-at-0 BER=0.2%", std::nullopt, 0.0, FaultType::kStuckAt0,
       0.002},
      {"stuck-at-1 BER=0.3%", std::nullopt, 0.0, FaultType::kStuckAt1,
       0.003},
  };

  // Every curve trains from `seed` alone, so the trial stream goes
  // unused and the slots fill in any order.
  std::vector<RewardCurve> curves(scenarios.size());
  const CampaignRunner runner(context.threads);
  runner.for_each(scenarios.size(), seed, [&](std::size_t index, Rng&) {
    const Scenario& scenario = scenarios[index];
    GridTrainSpec spec;
    spec.kind = kind;
    spec.episodes = episodes;
    spec.seed = seed;
    spec.record_returns = true;
    if (scenario.transient_ber) {
      spec.transient_ber = scenario.transient_ber;
      spec.transient_episode =
          static_cast<int>(scenario.transient_at * episodes);
    }
    if (scenario.permanent) {
      spec.permanent_type = scenario.permanent;
      spec.permanent_ber = scenario.permanent_ber;
    }
    curves[index] =
        RewardCurve{scenario.label, run_grid_training(spec).returns};
  });
  return curves;
}

TransientConvergenceResult run_transient_convergence(
    GridPolicyKind kind, const std::vector<double>& bers, int fault_episode,
    int max_extra_episodes, int repeats, std::uint64_t seed,
    const ScenarioContext& context) {
  TransientConvergenceResult result;
  result.bers = bers;

  // Per-trial recovery times collected in parallel, then folded in
  // trial order so the floating-point means are thread-count-invariant.
  const auto repeat_count = static_cast<std::size_t>(repeats);
  const CampaignRunner runner(context.threads);
  const std::string stream_tag =
      "grid-convergence/transient/" + to_string(kind) + "#" +
      ConfigDigest()
          .add(fault_episode)
          .add(max_extra_episodes)
          .add(repeats)
          .add(bers)
          .hex();
  const std::vector<int> recoveries = runner.map_streamed(
      stream_tag, bers.size() * repeat_count, seed ^ 0xc0ffee,
      [&](std::size_t trial, Rng& rng) {
        GridTrainSpec spec;
        spec.kind = kind;
        spec.episodes = fault_episode + max_extra_episodes;
        spec.transient_ber = bers[trial / repeat_count];
        spec.transient_episode = fault_episode;
        spec.track_reconvergence = true;
        spec.seed = rng();
        return run_grid_training(spec).reconverge_episodes;
      },
      context.stream);
  for (std::size_t b = 0; b < bers.size(); ++b) {
    RunningStats episodes_taken;
    int failures = 0;
    for (std::size_t repeat = 0; repeat < repeat_count; ++repeat) {
      const int recovered = recoveries[b * repeat_count + repeat];
      if (recovered >= 0) {
        episodes_taken.add(recovered);
      } else {
        ++failures;
        episodes_taken.add(max_extra_episodes);  // censored at the cap
      }
    }
    result.mean_episodes_to_converge.push_back(episodes_taken.mean());
    result.failure_fraction.push_back(static_cast<double>(failures) /
                                      static_cast<double>(repeats));
  }
  return result;
}

PermanentConvergenceResult run_permanent_convergence(
    GridPolicyKind kind, const std::vector<double>& bers, int early_episode,
    int late_episode, int extra_episodes, int repeats, std::uint64_t seed,
    const ScenarioContext& context) {
  PermanentConvergenceResult result;
  result.bers = bers;

  // Trial grid: (BER, arm, repeat) where the four arms per BER are
  // (SA0 early, SA0 late, SA1 early, SA1 late).
  const auto repeat_count = static_cast<std::size_t>(repeats);
  const CampaignRunner runner(context.threads);
  const std::string stream_tag =
      "grid-convergence/permanent/" + to_string(kind) + "#" +
      ConfigDigest()
          .add(early_episode)
          .add(late_episode)
          .add(extra_episodes)
          .add(repeats)
          .add(bers)
          .hex();
  const std::vector<char> successes = runner.map_streamed(
      stream_tag, bers.size() * 4 * repeat_count, seed ^ 0xdead,
      [&](std::size_t trial, Rng& rng) -> char {
        const std::size_t cell = trial / repeat_count;
        const std::size_t arm = cell % 4;
        GridTrainSpec spec;
        spec.kind = kind;
        const int inject_at = arm % 2 == 0 ? early_episode : late_episode;
        spec.episodes = inject_at + extra_episodes;
        spec.permanent_type =
            arm < 2 ? FaultType::kStuckAt0 : FaultType::kStuckAt1;
        spec.permanent_ber = bers[cell / 4];
        spec.permanent_episode = inject_at;
        spec.seed = rng();
        return run_grid_training(spec).success ? 1 : 0;
      },
      context.stream);
  const auto cell_pct = [&](std::size_t b, std::size_t arm) {
    std::size_t wins = 0;
    const std::size_t base = (b * 4 + arm) * repeat_count;
    for (std::size_t repeat = 0; repeat < repeat_count; ++repeat)
      wins += static_cast<std::size_t>(successes[base + repeat]);
    return 100.0 * static_cast<double>(wins) / static_cast<double>(repeats);
  };
  for (std::size_t b = 0; b < bers.size(); ++b) {
    result.sa0_early.push_back(cell_pct(b, 0));
    result.sa0_late.push_back(cell_pct(b, 1));
    result.sa1_early.push_back(cell_pct(b, 2));
    result.sa1_late.push_back(cell_pct(b, 3));
  }
  return result;
}

std::vector<ExplorationStudyRow> run_exploration_study(
    GridPolicyKind kind, const std::vector<double>& bers, int episodes,
    int repeats, std::uint64_t seed, const ScenarioContext& context) {
  const std::vector<FaultType> types = {
      FaultType::kTransientFlip, FaultType::kStuckAt0, FaultType::kStuckAt1};
  const int transient_episode = static_cast<int>(0.6 * episodes);

  // Per-trial telemetry collected in parallel, folded in trial order.
  struct Telemetry {
    double peak = 0.0;
    int steady = 0;
    int recovery = 0;
  };
  const auto repeat_count = static_cast<std::size_t>(repeats);
  const CampaignRunner runner(context.threads);
  const std::string stream_tag =
      "grid-exploration/" + to_string(kind) + "#" +
      ConfigDigest().add(episodes).add(repeats).add(bers).hex();
  const std::vector<Telemetry> trials = runner.map_streamed(
      stream_tag, types.size() * bers.size() * repeat_count, seed ^ 0xfeed,
      [&](std::size_t trial, Rng& rng) {
        const std::size_t cell = trial / repeat_count;
        const FaultType type = types[cell / bers.size()];
        const double ber = bers[cell % bers.size()];
        GridTrainSpec spec;
        spec.kind = kind;
        spec.episodes = episodes;
        spec.mitigated = true;
        spec.seed = rng();
        if (type == FaultType::kTransientFlip) {
          spec.transient_ber = ber;
          spec.transient_episode = transient_episode;
          spec.track_reconvergence = true;
        } else {
          spec.permanent_type = type;
          spec.permanent_ber = ber;
        }
        const GridTrainResult run = run_grid_training(spec);
        Telemetry telemetry;
        telemetry.peak = run.peak_exploration * 100.0;
        telemetry.steady =
            run.steady_episode >= 0 ? run.steady_episode : episodes;
        telemetry.recovery = run.reconverge_episodes >= 0
                                 ? run.reconverge_episodes
                                 : episodes - transient_episode;
        return telemetry;
      },
      context.stream);

  std::vector<ExplorationStudyRow> rows;
  for (std::size_t cell = 0; cell < types.size() * bers.size(); ++cell) {
    const FaultType type = types[cell / bers.size()];
    RunningStats peak, steady, recovery;
    for (std::size_t repeat = 0; repeat < repeat_count; ++repeat) {
      const Telemetry& telemetry = trials[cell * repeat_count + repeat];
      peak.add(telemetry.peak);
      steady.add(telemetry.steady);
      if (type == FaultType::kTransientFlip) recovery.add(telemetry.recovery);
    }
    ExplorationStudyRow row;
    row.type = type;
    row.ber = bers[cell % bers.size()];
    row.mean_peak_exploration = peak.mean();
    row.mean_episodes_to_steady = steady.mean();
    row.mean_recovery_episodes =
        type == FaultType::kTransientFlip ? recovery.mean() : -1.0;
    rows.push_back(row);
  }
  return rows;
}

}  // namespace ftnav
