#include "experiments/drone_campaigns.h"

#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>

#include "campaign/campaign_runner.h"
#include "core/injector.h"
#include "nn/engine_slot.h"
#include "util/perf.h"
#include "util/stats.h"

namespace ftnav {
namespace {

/// Runs `repeats` greedy rollouts, drawing a fresh fault instance via
/// `arm` (called with the engine and a per-repeat rng) before each.
/// The engine may be shard-resident (see nn/engine_slot.h): every
/// repeat starts with reset_faults(), whose golden-image restore makes
/// a reused engine bit-identical to a freshly built one, so fault
/// state can never leak across repeats or across the cells sharing a
/// slot.
template <typename ArmFn>
double msf_with_faults(QuantizedInferenceEngine& engine,
                       const DroneWorld& world,
                       const DroneEnvConfig& env_config, int repeats,
                       Rng& rng, ArmFn&& arm) {
  RunningStats distances;
  DroneEnv env(world, env_config);
  for (int repeat = 0; repeat < repeats; ++repeat) {
    Rng repeat_rng = rng.split(static_cast<std::uint64_t>(repeat) + 1);
    engine.reset_faults();
    arm(engine, repeat_rng);
    Tensor observation = env.reset(repeat_rng);
    while (!env.done()) {
      const int action =
          static_cast<int>(engine.act(observation, repeat_rng));
      (void)env.step(action);
      observation = env.observe();
    }
    distances.add(env.flight_distance());
  }
  return distances.mean();
}

/// Digests the policy hyper-parameters into a checkpoint tag digest
/// (the trained policy, and with it every trial, depends on them).
ConfigDigest& add_policy_spec(ConfigDigest& digest,
                              const DronePolicySpec& spec) {
  return digest.add(static_cast<int>(spec.preset))
      .add(spec.imitation_episodes)
      .add(spec.ddqn_episodes)
      .add(spec.imitation_lr)
      .add(spec.seed)
      .add(spec.env_max_steps)
      .add(spec.env_max_distance);
}

/// Checkpoint tag for an inference campaign grid: base name plus a
/// digest of everything that gives its trials meaning.
std::string inference_stream_tag(const std::string& base,
                                 const DroneInferenceCampaignConfig& config,
                                 const DroneWorld* world) {
  ConfigDigest digest;
  add_policy_spec(digest, config.policy)
      .add(config.bers)
      .add(config.repeats);
  if (world != nullptr) digest.add(world->name());
  return base + "#" + digest.hex();
}

/// Shared shape of the Fig. 7c-e sweeps: a (row, BER) cell grid where
/// each cell runs `config.repeats` rollouts on an engine acquired from
/// the shard's resident cache — `engine_key(row)` names the slot (rows
/// needing differently-configured engines get distinct keys; the keys
/// must name exactly `engine_slots` slots, the count the cost model
/// prices) and `engine_for(row)` builds it on first use. `arm(row, ber, engine,
/// rng)` draws the cell's fault instance per repeat.
///
/// Cells at BER <= 0 arm no fault and fly one fixed baseline stream,
/// so every fault-free cell of an engine slot reports the same MSF:
/// the first such cell to run flies the baseline on its shard's
/// engine, and the slot's other fault-free cells return that value.
/// The memo lives in this call only (never in a checkpoint), and every
/// cell still returns its value, so a resumed or worker run that skips
/// the first cell flies the baseline itself and gets the same bytes.
template <typename EngineFor, typename KeyFn, typename ArmFn>
std::vector<std::vector<double>> sweep_msf_grid(
    const DroneInferenceCampaignConfig& config,
    const ScenarioContext& context, std::uint64_t tag,
    std::size_t row_count, const DroneWorld& world,
    const DroneEnvConfig& env_config, EngineFor&& engine_for,
    KeyFn&& engine_key, std::size_t engine_slots, ArmFn&& arm,
    const std::string& perf_section) {
  const std::size_t ber_count = config.bers.size();
  const CampaignRunner runner(context.threads);
  const std::string stream_tag = inference_stream_tag(
      "drone-sweep/" + std::to_string(tag), config, &world);
  struct Baseline {
    std::once_flag flown;
    double msf = 0.0;
  };
  // Filled before the campaign starts, so trials only look slots up.
  std::map<std::size_t, Baseline> baselines;
  for (std::size_t row = 0; row < row_count; ++row)
    baselines.try_emplace(engine_key(row));
  if (baselines.size() != engine_slots)
    throw std::logic_error(perf_section + ": engine keys name " +
                           std::to_string(baselines.size()) +
                           " slots, expected " +
                           std::to_string(engine_slots));
  const double trials_started = perf::now();
  const std::vector<double> cells = runner.map_streamed(
      stream_tag, row_count * ber_count, config.seed ^ tag,
      [] { return EngineCache(); },
      [&](std::size_t trial, Rng& trial_rng, EngineCache& engines) {
        const std::size_t row = trial / ber_count;
        const double ber = config.bers[trial % ber_count];
        const std::size_t key = engine_key(row);
        const auto engine = [&]() -> QuantizedInferenceEngine& {
          return engines.acquire(key, [&] { return engine_for(row); });
        };
        if (ber <= 0.0) {
          Baseline& baseline = baselines.at(key);
          std::call_once(baseline.flown, [&] {
            Rng rng(config.seed ^ 0xb05e);
            baseline.msf = msf_with_faults(
                engine(), world, env_config, config.repeats, rng,
                [](QuantizedInferenceEngine&, Rng&) {});
          });
          return baseline.msf;
        }
        return msf_with_faults(
            engine(), world, env_config, config.repeats, trial_rng,
            [&](QuantizedInferenceEngine& e, Rng& r) { arm(row, ber, e, r); });
      },
      context.stream);
  perf::add_section(
      perf_section,
      row_count * ber_count * static_cast<std::size_t>(config.repeats),
      perf::now() - trials_started);
  std::vector<std::vector<double>> grid;
  grid.reserve(row_count);
  for (std::size_t row = 0; row < row_count; ++row)
    grid.emplace_back(cells.begin() + static_cast<std::ptrdiff_t>(row * ber_count),
                      cells.begin() + static_cast<std::ptrdiff_t>((row + 1) * ber_count));
  return grid;
}

/// Transient weight-fault arm shared by Figs. 7b/7e/10b.
void arm_weight_transient(double ber, QuantizedInferenceEngine& engine,
                          Rng& rng) {
  const FaultMap map = FaultMap::sample(
      FaultType::kTransientFlip, ber, engine.weight_word_count(),
      engine.format().total_bits(), rng);
  engine.inject_weight_faults(map);
}

}  // namespace

DroneTrainingCampaignResult run_drone_training_campaign(
    const DroneWorld& world, const DroneTrainingCampaignConfig& config,
    const ScenarioContext& context) {
  const DronePolicyBundle bundle = train_drone_policy(world, config.policy);

  ConfigDigest digest;
  add_policy_spec(digest, config.policy)
      .add(config.bers)
      .add(config.injection_points)
      .add(config.fine_tune_episodes)
      .add(config.eval_repeats)
      .add(world.name());
  const std::string tag_suffix = "#" + digest.hex();

  std::vector<std::string> row_labels;
  for (double fraction : config.injection_points)
    row_labels.push_back("step " +
                         format_double(fraction * 100.0, 0) + "%");
  std::vector<std::string> col_labels;
  for (double ber : config.bers) col_labels.push_back(format_double(ber, 5));

  DroneTrainingCampaignResult result(row_labels, col_labels);
  result.bers = config.bers;

  const int steps_budget =
      config.fine_tune_episodes * bundle.env_config.max_steps;

  // One fine-tuning run under a fault scenario, returning post-training
  // greedy MSF. Self-contained per trial: the tuner clones the bundle's
  // network, so concurrent trials never share mutable state.
  const auto run_fine_tune = [&](std::optional<double> transient_ber,
                                 int injection_step,
                                 std::optional<FaultType> permanent,
                                 double permanent_ber, Rng& rng) {
    OnlineFineTuner tuner(bundle.network, FineTuneConfig{});
    if (permanent && permanent_ber > 0.0) {
      const FaultMap map = FaultMap::sample(
          *permanent, permanent_ber, tuner.weights().size(),
          tuner.weights().format().total_bits(), rng);
      tuner.set_stuck(StuckAtMask::compile(map));
    }
    const bool transient = transient_ber && *transient_ber > 0.0;
    const auto inject_transient = [&] {
      tuner.inject_transient(FaultMap::sample(
          FaultType::kTransientFlip, *transient_ber, tuner.weights().size(),
          tuner.weights().format().total_bits(), rng));
    };
    DroneEnv env(world, bundle.env_config);
    int global_step = 0;
    for (int episode = 0; episode < config.fine_tune_episodes; ++episode) {
      Tensor observation = env.reset(rng);
      while (!env.done()) {
        if (transient && global_step == injection_step) inject_transient();
        const int action = tuner.act(observation, 0.05, rng);
        const DroneEnv::StepResult step_result = env.step(action);
        Tensor next = env.observe();
        tuner.td_update(observation, action, step_result.reward, next,
                        step_result.done);
        observation = std::move(next);
        ++global_step;
      }
    }
    // Each fine-tuning episode ends at its first crash, so the run may
    // stop short of `injection_step`; the transient then lands after
    // the last step, before the evaluation flights, rather than never.
    if (transient && global_step <= injection_step) inject_transient();
    // Post-fine-tuning flight quality.
    RunningStats distances;
    for (int repeat = 0; repeat < config.eval_repeats; ++repeat) {
      DroneEnv eval_env(world, bundle.env_config);
      distances.add(tuner.evaluate_episode(eval_env, rng));
    }
    return distances.mean();
  };

  const CampaignRunner runner(context.threads);
  const std::size_t rows = config.injection_points.size();
  const std::size_t cols = config.bers.size();
  // Fine-tune trial phase (both grids, excluding the policy-training
  // preamble) for the perf-trajectory record; one fine-tune run = one
  // trial here.
  const double trials_started = perf::now();

  // Transient (injection point, BER) grid: one fine-tune run per cell,
  // accumulated into per-shard heatmaps. Cells are disjoint, so the
  // streamed completion-order merge reassembles the same grid.
  const std::string transient_tag = "drone-training/transient" + tag_suffix;
  result.transient = runner.map_reduce_streamed(
      transient_tag, rows * cols, config.seed ^ 0x7a,
      [&] { return HeatmapGrid(row_labels, col_labels); },
      [&](HeatmapGrid& acc, std::size_t trial, Rng& rng) {
        const std::size_t r = trial / cols;
        const std::size_t c = trial % cols;
        const int step =
            static_cast<int>(config.injection_points[r] * steps_budget);
        acc.set(r, c,
                run_fine_tune(config.bers[c], step, std::nullopt, 0.0, rng));
      },
      [](HeatmapGrid& into, HeatmapGrid&& from) { into.merge(from); },
      with_checkpoint_suffix(context.stream, "transient"));

  // Fault-free reference plus the two stuck-at rows, as a flat trial
  // list: trial 0 is fault-free, then stuck-at-0 per BER, stuck-at-1
  // per BER.
  const std::string flat_tag = "drone-training/flat" + tag_suffix;
  const std::vector<double> flat = runner.map_streamed(
      flat_tag, 1 + 2 * cols, config.seed ^ 0x7a5a,
      [&](std::size_t trial, Rng& rng) {
        if (trial == 0)
          return run_fine_tune(std::nullopt, 0, std::nullopt, 0.0, rng);
        const std::size_t index = trial - 1;
        const FaultType type =
            index < cols ? FaultType::kStuckAt0 : FaultType::kStuckAt1;
        const double ber = config.bers[index % cols];
        return run_fine_tune(std::nullopt, 0, type, ber, rng);
      },
      with_checkpoint_suffix(context.stream, "flat"));
  perf::add_section("drone_training_trials", rows * cols + 1 + 2 * cols,
                    perf::now() - trials_started);
  result.fault_free_msf = flat[0];
  result.stuck_at_0.assign(flat.begin() + 1,
                           flat.begin() + 1 + static_cast<std::ptrdiff_t>(cols));
  result.stuck_at_1.assign(flat.begin() + 1 + static_cast<std::ptrdiff_t>(cols),
                           flat.end());
  return result;
}

EnvironmentSweepResult run_environment_sweep(
    const DroneInferenceCampaignConfig& config,
    const ScenarioContext& context) {
  EnvironmentSweepResult result;
  result.bers = config.bers;
  const std::vector<DroneWorld> worlds = {DroneWorld::indoor_long(),
                                          DroneWorld::indoor_vanleer()};
  for (const DroneWorld& world : worlds)
    result.environments.push_back(world.name());

  const CampaignRunner runner(context.threads);

  // Phase 1: per-environment policy training in parallel. Training is
  // deterministic in (world, spec), so the trial stream goes unused.
  std::vector<DronePolicyBundle> bundles(worlds.size());
  runner.for_each(worlds.size(), config.seed ^ 0x7b00,
                  [&](std::size_t env, Rng&) {
                    bundles[env] = train_drone_policy(worlds[env],
                                                      config.policy);
                  });

  // Phase 2: flat (environment, BER) cell grid over shard-resident
  // engines — one cache slot per environment, since each environment
  // has its own trained network. Fault-free cells share one fixed
  // stream (per environment) so every row reports the same baseline
  // rollouts.
  const std::size_t ber_count = config.bers.size();
  const std::string stream_tag =
      inference_stream_tag("drone-env-sweep", config, nullptr);
  const double trials_started = perf::now();
  const std::vector<double> cells = runner.map_streamed(
      stream_tag, worlds.size() * ber_count, config.seed ^ 0x7b,
      [] { return EngineCache(); },
      [&](std::size_t trial, Rng& trial_rng, EngineCache& engines) {
        const std::size_t env = trial / ber_count;
        const double ber = config.bers[trial % ber_count];
        QuantizedInferenceEngine& engine = engines.acquire(env, [&] {
          return std::make_unique<QuantizedInferenceEngine>(
              bundles[env].network, QFormat::drone_weights(),
              bundles[env].c3f2.input_shape());
        });
        Rng rng = ber <= 0.0 ? Rng(config.seed ^ (0xb05e + env + 1))
                             : trial_rng;
        return msf_with_faults(
            engine, worlds[env], bundles[env].env_config, config.repeats,
            rng, [&](QuantizedInferenceEngine& e, Rng& r) {
              if (ber <= 0.0) return;
              arm_weight_transient(ber, e, r);
            });
      },
      context.stream);
  perf::add_section(
      "drone_env_trials",
      worlds.size() * ber_count * static_cast<std::size_t>(config.repeats),
      perf::now() - trials_started);
  for (std::size_t env = 0; env < worlds.size(); ++env)
    result.msf.emplace_back(
        cells.begin() + static_cast<std::ptrdiff_t>(env * ber_count),
        cells.begin() + static_cast<std::ptrdiff_t>((env + 1) * ber_count));
  return result;
}

std::string to_string(DroneFaultLocation location) {
  switch (location) {
    case DroneFaultLocation::kInput: return "Input";
    case DroneFaultLocation::kWeightTransient: return "Weight";
    case DroneFaultLocation::kActivationTransient: return "Act (T)";
    case DroneFaultLocation::kActivationPermanent: return "Act (P)";
  }
  return "unknown";
}

LocationSweepResult run_location_sweep(
    const DroneWorld& world, const DroneInferenceCampaignConfig& config,
    const ScenarioContext& context) {
  LocationSweepResult result;
  result.bers = config.bers;
  const DronePolicyBundle bundle = train_drone_policy(world, config.policy);

  // Every row drives the same engine configuration, so the whole sweep
  // shares cache slot 0.
  result.msf = sweep_msf_grid(
      config, context, 0x7c, 4, world, bundle.env_config,
      [&](std::size_t) {
        return std::make_unique<QuantizedInferenceEngine>(
            bundle.network, QFormat::drone_weights(),
            bundle.c3f2.input_shape());
      },
      [](std::size_t) { return std::size_t{0}; },
      LocationSweepResult::kEngineSlots,
      [](std::size_t row, double ber, QuantizedInferenceEngine& e,
         Rng& r) {
        switch (static_cast<DroneFaultLocation>(row)) {
          case DroneFaultLocation::kInput:
            e.set_input_transient_ber(ber);
            break;
          case DroneFaultLocation::kWeightTransient:
            arm_weight_transient(ber, e, r);
            break;
          case DroneFaultLocation::kActivationTransient:
            e.set_activation_transient_ber(ber);
            break;
          case DroneFaultLocation::kActivationPermanent: {
            const FaultMap map = FaultMap::sample(
                FaultType::kStuckAt1, ber, e.activation_buffer_size(),
                e.format().total_bits(), r);
            e.set_activation_stuck(StuckAtMask::compile(map));
            break;
          }
        }
      },
      "drone_location_trials");
  return result;
}

LayerSweepResult run_layer_sweep(const DroneWorld& world,
                                 const DroneInferenceCampaignConfig& config,
                                 const ScenarioContext& context) {
  LayerSweepResult result;
  result.bers = config.bers;
  const DronePolicyBundle bundle = train_drone_policy(world, config.policy);
  const auto engine_for = [&](std::size_t) {
    return std::make_unique<QuantizedInferenceEngine>(
        bundle.network, QFormat::drone_weights(), bundle.c3f2.input_shape());
  };
  const std::size_t layer_count = [&] {
    const auto probe = engine_for(0);
    result.layers = probe->layer_labels();
    return probe->parametered_layer_count();
  }();

  // Rows differ only in which layer the arm targets, not in engine
  // configuration: one shared slot.
  result.msf = sweep_msf_grid(
      config, context, 0x7d, layer_count, world, bundle.env_config,
      engine_for,
      [](std::size_t) { return std::size_t{0}; },
      LayerSweepResult::kEngineSlots,
      [](std::size_t layer, double ber, QuantizedInferenceEngine& e,
         Rng& r) { e.inject_layer_weight_faults(layer, ber, r); },
      "drone_layer_trials");
  return result;
}

DataTypeSweepResult run_data_type_sweep(
    const DroneWorld& world, const DroneInferenceCampaignConfig& config,
    const ScenarioContext& context) {
  DataTypeSweepResult result;
  result.bers = config.bers;
  const DronePolicyBundle bundle = train_drone_policy(world, config.policy);

  // All three under the same (sign-magnitude) encoding so the sweep
  // isolates the range-vs-resolution trade-off the paper studies.
  const std::vector<QFormat> formats = {
      QFormat::q_1_4_11(Encoding::kSignMagnitude),
      QFormat::q_1_7_8(Encoding::kSignMagnitude),
      QFormat::q_1_10_5(Encoding::kSignMagnitude)};
  for (const QFormat& format : formats)
    result.formats.push_back(format.name());

  // Each row quantizes the network into a different QFormat, so each
  // row owns its cache slot.
  result.msf = sweep_msf_grid(
      config, context, 0x7e, formats.size(), world, bundle.env_config,
      [&](std::size_t row) {
        return std::make_unique<QuantizedInferenceEngine>(
            bundle.network, formats[row], bundle.c3f2.input_shape());
      },
      [](std::size_t row) { return row; },
      DataTypeSweepResult::kEngineSlots,
      [](std::size_t, double ber, QuantizedInferenceEngine& e, Rng& r) {
        arm_weight_transient(ber, e, r);
      },
      "drone_data_type_trials");
  return result;
}

DroneMitigationResult run_drone_mitigation_comparison(
    const DroneWorld& world, const DroneInferenceCampaignConfig& config,
    const ScenarioContext& context) {
  DroneMitigationResult result;
  result.bers = config.bers;
  const DronePolicyBundle bundle = train_drone_policy(world, config.policy);

  // Rows: 0 = baseline, 1 = range-detector-hardened — the row index is
  // also the cache key, so a baseline cell can never acquire a hardened
  // engine or vice versa. Each cell reports its detector tally so the
  // campaign total is an order-independent sum over trials.
  struct Cell {
    double msf = 0.0;
    std::uint64_t detections = 0;
  };
  const std::size_t ber_count = config.bers.size();
  const CampaignRunner runner(context.threads);
  const std::string stream_tag =
      inference_stream_tag("drone-mitigation", config, &world);
  const double trials_started = perf::now();
  const std::vector<Cell> cells = runner.map_streamed(
      stream_tag, 2 * ber_count, config.seed ^ 0x7f,
      [] { return EngineCache(); },
      [&](std::size_t trial, Rng& trial_rng, EngineCache& engines) {
        const bool mitigated = trial >= ber_count;
        const double ber = config.bers[trial % ber_count];
        QuantizedInferenceEngine& engine =
            engines.acquire(mitigated ? 1 : 0, [&] {
              auto built = std::make_unique<QuantizedInferenceEngine>(
                  bundle.network, QFormat::drone_weights(),
                  bundle.c3f2.input_shape());
              if (mitigated) built->enable_weight_protection(0.1);
              return built;
            });
        // The resident detector tallies across cells; this cell's
        // count (identical to a fresh engine's) is the delta.
        const std::uint64_t detections_before =
            mitigated && engine.weight_detector() != nullptr
                ? engine.weight_detector()->detections()
                : 0;
        Cell cell;
        Rng rng = ber <= 0.0 ? Rng(config.seed ^ 0xb05e) : trial_rng;
        cell.msf = msf_with_faults(
            engine, world, bundle.env_config, config.repeats, rng,
            [&](QuantizedInferenceEngine& e, Rng& r) {
              if (ber <= 0.0) return;
              arm_weight_transient(ber, e, r);
            });
        if (mitigated && engine.weight_detector() != nullptr)
          cell.detections =
              engine.weight_detector()->detections() - detections_before;
        return cell;
      },
      context.stream);
  perf::add_section(
      "drone_mitigation_trials",
      2 * ber_count * static_cast<std::size_t>(config.repeats),
      perf::now() - trials_started);
  for (std::size_t i = 0; i < ber_count; ++i) {
    result.baseline_msf.push_back(cells[i].msf);
    result.mitigated_msf.push_back(cells[ber_count + i].msf);
    result.detections += cells[ber_count + i].detections;
  }
  return result;
}

}  // namespace ftnav
