#include "experiments/drone_campaigns.h"

#include <algorithm>
#include <map>
#include <memory>
#include <stdexcept>
#include <type_traits>

#include "campaign/campaign_runner.h"
#include "core/injector.h"
#include "nn/engine_slot.h"
#include "util/perf.h"
#include "util/stats.h"

namespace ftnav {
namespace {

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

/// One flight's result: its distance and the weight-detector hits it
/// added (0 on an unprotected engine). It is the trial result of every
/// drone inference campaign, so its bytes are the checkpoint payload:
/// trivially copyable, with no padding.
struct Flight {
  double distance = 0.0;
  std::uint64_t detections = 0;
};
static_assert(std::is_trivially_copyable_v<Flight> &&
              sizeof(Flight) == sizeof(double) + sizeof(std::uint64_t));

/// A cell's flights folded in repeat order.
struct Cell {
  double msf = 0.0;
  std::uint64_t detections = 0;
};

/// Row of a flight grid: the world and env its flights fly, and the
/// engine-cache slot they fly on. Rows that need differently
/// configured engines name distinct slots; rows on one slot fly one
/// engine configuration and share its baseline.
struct GridRow {
  const DroneWorld* world = nullptr;
  DroneEnvConfig env_config;
  std::size_t slot = 0;
};

/// A (row, BER) cell grid of `config.repeats` flights per cell: its
/// checkpoint tag, the seed its faulted cells' streams derive from, its
/// rows, and how many engine slots they name.
struct FlightGrid {
  std::string stream_tag;
  std::uint64_t cell_seed = 0;
  std::vector<GridRow> rows;
  std::size_t engine_slots = 0;
  std::string perf_section;  ///< counts cells x repeats
};

/// Flies `grid` one flight per campaign trial, so shards stay short
/// and threads finish together however long a cell flies. Returns each
/// cell's MSF and detections, [row][ber].
///
/// The trial list: each engine slot's baseline cell, once, when any BER
/// is <= 0, then every (row, BER > 0) cell; trial t is flight t %
/// repeats of listed cell t / repeats. A baseline arms no fault and
/// draws from Rng(baseline_seed(slot)); faulted cell (row, col) arms
/// `arm(row, ber, engine, rng)` and draws from
/// Rng::stream(cell_seed, row * bers + col). Flight r of a cell flies on
/// the (r + 1)-th split, salt r + 1, of the cell's generator (Rng::split
/// advances its parent, so a flight replays the r + 1 splits on a
/// copy): the streams a serial loop over the cell's flights draws. The
/// cell's MSF is RunningStats over its flights in repeat order, and its
/// detections their sum. Every BER <= 0 cell reads its slot's baseline.
///
/// Each shard builds the engine of a slot on first use (`build(row)`
/// for a row on that slot) and keeps it for the flights it runs;
/// reset_faults() before every flight makes a kept engine fly as a
/// fresh one. `grid.engine_slots` must equal the number of slots the
/// rows name (the cost model prices from it).
template <typename BuildFn, typename BaselineSeedFn, typename ArmFn>
std::vector<std::vector<Cell>> fly_grid(
    const FlightGrid& grid, const DroneInferenceCampaignConfig& config,
    const ScenarioContext& context, BuildFn&& build,
    BaselineSeedFn&& baseline_seed, ArmFn&& arm) {
  const std::size_t ber_count = config.bers.size();
  const auto repeats = static_cast<std::size_t>(std::max(config.repeats, 0));
  std::map<std::size_t, std::size_t> slot_row;  // slot -> its first row
  for (std::size_t row = 0; row < grid.rows.size(); ++row)
    slot_row.try_emplace(grid.rows[row].slot, row);
  if (slot_row.size() != grid.engine_slots)
    throw std::logic_error(grid.perf_section + ": rows name " +
                           std::to_string(slot_row.size()) +
                           " engine slots, expected " +
                           std::to_string(grid.engine_slots));

  struct Listed {
    std::size_t row = 0;
    std::size_t col = 0;
    bool baseline = false;
  };
  std::vector<Listed> listed;
  std::map<std::size_t, std::size_t> baseline_cell;  // slot -> listed
  if (std::any_of(config.bers.begin(), config.bers.end(),
                  [](double ber) { return ber <= 0.0; })) {
    for (const auto& [slot, row] : slot_row) {
      baseline_cell[slot] = listed.size();
      listed.push_back({row, 0, true});
    }
  }
  std::vector<std::size_t> faulted_cell(grid.rows.size() * ber_count);
  for (std::size_t row = 0; row < grid.rows.size(); ++row)
    for (std::size_t col = 0; col < ber_count; ++col)
      if (config.bers[col] > 0.0) {
        faulted_cell[row * ber_count + col] = listed.size();
        listed.push_back({row, col, false});
      }

  const CampaignRunner runner(context.threads);
  const double trials_started = perf::now();
  const std::vector<Flight> flights = runner.map_streamed(
      grid.stream_tag, listed.size() * repeats, grid.cell_seed,
      [] { return EngineCache(); },
      // The runner's per-trial stream goes unused: a flight draws from
      // its cell's stream, whichever trial flies it.
      [&](std::size_t trial, Rng&, EngineCache& engines) {
        const Listed& cell = listed[trial / repeats];
        const std::size_t repeat = trial % repeats;
        const GridRow& row = grid.rows[cell.row];
        Rng cell_rng =
            cell.baseline
                ? Rng(baseline_seed(row.slot))
                : Rng::stream(grid.cell_seed, cell.row * ber_count + cell.col);
        Rng rng = cell_rng.split(1);
        for (std::size_t r = 1; r <= repeat; ++r) rng = cell_rng.split(r + 1);
        QuantizedInferenceEngine& engine =
            engines.acquire(row.slot, [&] { return build(cell.row); });
        // A resident detector tallies across flights; the delta is this
        // flight's (a fresh engine's) count.
        const RangeAnomalyDetector* detector = engine.weight_detector();
        const std::uint64_t before =
            detector != nullptr ? detector->detections() : 0;
        engine.reset_faults();
        if (!cell.baseline) arm(cell.row, config.bers[cell.col], engine, rng);
        DroneEnv env(*row.world, row.env_config);
        const double distance = env.fly(
            [&](const Tensor& observation) {
              return static_cast<int>(engine.act(observation, rng));
            },
            rng);
        return Flight{distance, detector != nullptr
                                    ? detector->detections() - before
                                    : 0};
      },
      context.stream);
  perf::add_section(grid.perf_section,
                    grid.rows.size() * ber_count * repeats,
                    perf::now() - trials_started);

  std::vector<Cell> cells(listed.size());
  for (std::size_t i = 0; i < listed.size(); ++i) {
    RunningStats distances;
    for (std::size_t r = 0; r < repeats; ++r) {
      const Flight& flight = flights[i * repeats + r];
      distances.add(flight.distance);
      cells[i].detections += flight.detections;
    }
    cells[i].msf = distances.mean();
  }
  std::vector<std::vector<Cell>> result(grid.rows.size(),
                                        std::vector<Cell>(ber_count));
  for (std::size_t row = 0; row < grid.rows.size(); ++row)
    for (std::size_t col = 0; col < ber_count; ++col)
      result[row][col] =
          cells[config.bers[col] <= 0.0
                    ? baseline_cell.at(grid.rows[row].slot)
                    : faulted_cell[row * ber_count + col]];
  return result;
}

/// The MSF of every cell, [row][ber].
std::vector<std::vector<double>> msf_of(
    const std::vector<std::vector<Cell>>& cells) {
  std::vector<std::vector<double>> msf;
  for (const std::vector<Cell>& row : cells) {
    msf.emplace_back();
    for (const Cell& cell : row) msf.back().push_back(cell.msf);
  }
  return msf;
}

/// The Fig. 7c-e sweeps: `rows` rows on one world and env, row r on
/// engine slot `slot_of(r)`, every baseline drawn from seed ^ 0xb05e
/// and faulted cells from Rng::stream(seed ^ tag, cell).
template <typename BuildFn, typename SlotFn, typename ArmFn>
std::vector<std::vector<double>> sweep_msf_grid(
    const DroneInferenceCampaignConfig& config,
    const ScenarioContext& context, std::uint64_t tag,
    std::size_t row_count, const DroneWorld& world,
    const DroneEnvConfig& env_config, BuildFn&& build, SlotFn&& slot_of,
    std::size_t engine_slots, ArmFn&& arm, const std::string& perf_section) {
  FlightGrid grid;
  grid.stream_tag = inference_stream_tag(
      "drone-sweep/" + std::to_string(tag), config, &world);
  grid.cell_seed = config.seed ^ tag;
  for (std::size_t row = 0; row < row_count; ++row)
    grid.rows.push_back({&world, env_config, slot_of(row)});
  grid.engine_slots = engine_slots;
  grid.perf_section = perf_section;
  return msf_of(fly_grid(
      grid, config, context, build,
      [&](std::size_t) { return config.seed ^ 0xb05e; }, arm));
}

/// Transient weight-fault arm (any row) shared by Figs. 7b/7c/7e/10b.
void arm_weight_transient(std::size_t /*row*/, double ber,
                          QuantizedInferenceEngine& engine, Rng& rng) {
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

  // Phase 2: the (environment, BER) grid, one engine slot per
  // environment (each has its own trained network) and one baseline
  // stream per environment.
  FlightGrid grid;
  grid.stream_tag = inference_stream_tag("drone-env-sweep", config, nullptr);
  grid.cell_seed = config.seed ^ 0x7b;
  for (std::size_t env = 0; env < worlds.size(); ++env)
    grid.rows.push_back({&worlds[env], bundles[env].env_config, env});
  grid.engine_slots = EnvironmentSweepResult::kEngineSlots;
  grid.perf_section = "drone_env_trials";
  result.msf = msf_of(fly_grid(
      grid, config, context,
      [&](std::size_t env) {
        return std::make_unique<QuantizedInferenceEngine>(
            bundles[env].network, QFormat::drone_weights(),
            bundles[env].c3f2.input_shape());
      },
      [&](std::size_t env) { return config.seed ^ (0xb05e + env + 1); },
      arm_weight_transient));
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
            arm_weight_transient(row, ber, e, r);
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
      arm_weight_transient,
      "drone_data_type_trials");
  return result;
}

DroneMitigationResult run_drone_mitigation_comparison(
    const DroneWorld& world, const DroneInferenceCampaignConfig& config,
    const ScenarioContext& context) {
  DroneMitigationResult result;
  result.bers = config.bers;
  const DronePolicyBundle bundle = train_drone_policy(world, config.policy);

  // Rows: 0 = baseline, 1 = range-detector-hardened. The row is also
  // the engine slot, so a baseline flight can never acquire a hardened
  // engine or vice versa. Both rows' fault-free cells fly the same
  // stream, and each flight reports its detector hits, so the campaign
  // total is an order-independent sum over flights.
  FlightGrid grid;
  grid.stream_tag = inference_stream_tag("drone-mitigation", config, &world);
  grid.cell_seed = config.seed ^ 0x7f;
  for (std::size_t row = 0; row < 2; ++row)
    grid.rows.push_back({&world, bundle.env_config, row});
  grid.engine_slots = DroneMitigationResult::kEngineSlots;
  grid.perf_section = "drone_mitigation_trials";
  const std::vector<std::vector<Cell>> cells = fly_grid(
      grid, config, context,
      [&](std::size_t row) {
        auto built = std::make_unique<QuantizedInferenceEngine>(
            bundle.network, QFormat::drone_weights(),
            bundle.c3f2.input_shape());
        if (row == 1) built->enable_weight_protection(0.1);
        return built;
      },
      [&](std::size_t) { return config.seed ^ 0xb05e; },
      arm_weight_transient);
  for (std::size_t i = 0; i < config.bers.size(); ++i) {
    result.baseline_msf.push_back(cells[0][i].msf);
    result.mitigated_msf.push_back(cells[1][i].msf);
    result.detections += cells[1][i].detections;
  }
  return result;
}

}  // namespace ftnav
