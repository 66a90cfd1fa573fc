#include "experiments/grid_inference.h"

#include <memory>
#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "campaign/campaign_runner.h"
#include "core/anomaly_detector.h"
#include "core/injector.h"
#include "nn/quantized_engine.h"
#include "util/perf.h"

namespace ftnav {
namespace {

/// Greedy rollouts stop after this many steps.
constexpr int kMaxSteps = 100;

/// The frozen policy store a fault trial corrupts and rolls out: the
/// golden Q-table as a faultable image, read through the range detector
/// when mitigated, or the NN's quantized engine (whose detector filters
/// its weight buffer at load). One per shard: reset_faults() restores
/// the golden words, so every trial starts from a fresh store's state
/// (see nn/engine_slot.h).
class PolicyStore {
 public:
  /// The tabular store: `golden`'s words, each read filtered through a
  /// copy of `detector` when it holds one.
  PolicyStore(const QVector& golden,
              const std::optional<RangeAnomalyDetector>& detector)
      : table_(golden), table_detector_(detector) {}
  /// The NN store: `engine`, fed one-hot encodings of `states` states.
  PolicyStore(std::unique_ptr<QuantizedInferenceEngine> engine, int states)
      : engine_(std::move(engine)),
        one_hot_(static_cast<std::size_t>(states)) {}

  std::size_t word_count() const {
    return engine_ ? engine_->weight_word_count() : table_.size();
  }
  int total_bits() const {
    return (engine_ ? engine_->format() : table_.live().format())
        .total_bits();
  }

  void reset_faults() {
    if (engine_)
      engine_->reset_faults();
    else
      table_.restore();
  }
  void inject(const FaultMap& map) {
    if (engine_)
      engine_->inject_weight_faults(map);
    else
      table_.apply(map);
  }
  void set_stuck(const StuckAtMask& mask) {
    if (engine_)
      engine_->set_weight_stuck(mask);
    else
      table_.apply(mask);
  }

  /// The greedy action at `state` (the engine draws on `rng` only for
  /// dynamic faults, which inference trials never arm).
  int act(int state, Rng& rng) {
    if (!engine_)
      return greedy_action(table_.live(), state,
                           table_detector_ ? &*table_detector_ : nullptr);
    one_hot_.fill(0.0f);
    one_hot_[static_cast<std::size_t>(state)] = 1.0f;
    return static_cast<int>(engine_->act(one_hot_, rng));
  }

  /// Detector hits so far; 0 without a detector. The count runs across
  /// trials, so a trial's own hits are the delta.
  std::uint64_t detections() const {
    const RangeAnomalyDetector* detector =
        engine_ ? engine_->weight_detector()
                : (table_detector_ ? &*table_detector_ : nullptr);
    return detector != nullptr ? detector->detections() : 0;
  }

 private:
  FaultableImage table_;
  std::optional<RangeAnomalyDetector> table_detector_;
  std::unique_ptr<QuantizedInferenceEngine> engine_;
  Tensor one_hot_;
};

/// One fault-injection repeat: sample the mode's fault map against the
/// store, arm it, and roll the greedy policy out from the source; true
/// when it reaches the goal.
bool fault_trial(const GridWorld& env, PolicyStore& store,
                 InferenceFaultMode mode, double ber, Rng& rng) {
  store.reset_faults();
  const FaultType type = mode == InferenceFaultMode::kStuckAt0
                             ? FaultType::kStuckAt0
                         : mode == InferenceFaultMode::kStuckAt1
                             ? FaultType::kStuckAt1
                             : FaultType::kTransientFlip;
  const FaultMap map = FaultMap::sample(type, ber, store.word_count(),
                                        store.total_bits(), rng);
  int fault_step = -1;
  switch (mode) {
    case InferenceFaultMode::kTransientM:
      store.inject(map);
      break;
    case InferenceFaultMode::kTransient1:
      // The register upset corrupts the reads of a single step.
      fault_step = static_cast<int>(rng.below(20));
      break;
    case InferenceFaultMode::kStuckAt0:
    case InferenceFaultMode::kStuckAt1:
      store.set_stuck(StuckAtMask::compile(map));
      break;
  }
  int step = 0;
  return env.rollout(
             [&](int state) {
               const bool upset = step++ == fault_step;
               if (upset) store.inject(map);
               const int action = store.act(state, rng);
               if (upset) store.reset_faults();
               return action;
             },
             kMaxSteps) > 0.0;
}

/// Per-shard accumulator: success and detection tallies per
/// (mode, BER) cell. Integer adds, so neither the shard partition nor
/// the merge order (completion order) affects the merged campaign
/// totals.
struct InferenceAccum {
  std::vector<int> successes;
  std::vector<std::uint64_t> detections;

  explicit InferenceAccum(std::size_t cells)
      : successes(cells, 0), detections(cells, 0) {}

  void merge(const InferenceAccum& other) {
    for (std::size_t i = 0; i < successes.size(); ++i) {
      successes[i] += other.successes[i];
      detections[i] += other.detections[i];
    }
  }

  // Checkpoint state hooks (see CampaignStateCodec).
  void save_state(std::ostream& out) const {
    io::write_vector(out, successes);
    io::write_vector(out, detections);
  }
  void restore_state(std::istream& in) {
    auto loaded_successes = io::read_vector<int>(in);
    auto loaded_detections = io::read_vector<std::uint64_t>(in);
    if (loaded_successes.size() != successes.size() ||
        loaded_detections.size() != detections.size())
      throw std::runtime_error(
          "InferenceAccum: checkpoint cell-count mismatch");
    successes = std::move(loaded_successes);
    detections = std::move(loaded_detections);
  }
};

/// The golden policy: fault-free training on `env`. The campaign's
/// premise is a *successfully* trained policy, and quantized NN training
/// occasionally fails to converge for a given seed, so up to six
/// reseeded runs are tried until the greedy rollout reaches the goal.
GridAgentHandle train_policy(const InferenceCampaignConfig& config,
                             const GridWorld& env) {
  for (int attempt = 0;; ++attempt) {
    Rng rng(config.seed + static_cast<std::uint64_t>(attempt) * 7919);
    GridAgentHandle agent(config.kind, env, rng);
    agent.train_fault_free(config.train_episodes, rng);
    if (attempt == 5 || agent.greedy_return() > 0.0) return agent;
  }
}

}  // namespace

std::string to_string(InferenceFaultMode mode) {
  switch (mode) {
    case InferenceFaultMode::kTransientM: return "Transient-M";
    case InferenceFaultMode::kTransient1: return "Transient-1";
    case InferenceFaultMode::kStuckAt0: return "Stuck-at-0";
    case InferenceFaultMode::kStuckAt1: return "Stuck-at-1";
  }
  return "unknown";
}

InferenceCampaignResult run_inference_campaign(
    const InferenceCampaignConfig& config, const ScenarioContext& context) {
  if (config.repeats <= 0)
    throw std::invalid_argument("InferenceCampaignConfig: repeats <= 0");
  const GridWorld env = GridWorld::preset(config.density);
  GridAgentHandle trained = train_policy(config, env);

  InferenceCampaignResult result;
  result.bers = config.bers;
  result.success_by_mode.assign(4, {});

  // Trial grid: (mode, BER, repeat), sharded at repeat granularity so
  // a campaign with few BER points (e.g. the fault_campaign CLI's
  // single-BER runs) still saturates the pool. Every shard owns its
  // resident store and tallies into its per-cell counters, merged in
  // the final reduce.
  const std::size_t ber_count = config.bers.size();
  const std::size_t cell_count = 4 * ber_count;
  const auto repeat_count = static_cast<std::size_t>(config.repeats);
  const CampaignRunner runner(context.threads);
  // Checkpoint identity: the same config must never resume a grid it
  // did not write. Seed and trial count live in the checkpoint
  // fingerprint; everything else that gives trials their meaning is
  // digested into the tag.
  const std::string stream_tag =
      std::string("grid-inference/") +
      (config.kind == GridPolicyKind::kTabular ? "tabular" : "nn") +
      (config.mitigated ? "/mitigated" : "") + "#" +
      ConfigDigest()
          .add(static_cast<int>(config.density))
          .add(config.train_episodes)
          .add(config.repeats)
          .add(config.detector_margin)
          .add(config.bers)
          .hex();
  // Trial-grid wall clock for the perf-trajectory record: the phase
  // the batched engine + SIMD kernels speed up, excluding the policy
  // training preamble (identical across backends).
  const double trials_started = perf::now();

  // What each shard's store is built from: the golden table (with the
  // detector calibrated on it when mitigated), or the golden network
  // the engine quantizes, the trained agent's float view of its store.
  const QVector& golden = trained.store();
  std::optional<RangeAnomalyDetector> table_detector;
  Network golden_net;
  if (config.kind == GridPolicyKind::kTabular) {
    if (config.mitigated) {
      table_detector.emplace(golden.format(), 1, config.detector_margin);
      for (double v : golden.decode_all()) table_detector->calibrate(0, v);
      table_detector->finalize();
    }
  } else {
    golden_net = trained.mlp()->network();
  }

  const InferenceAccum totals = runner.map_reduce_streamed(
      stream_tag, cell_count * repeat_count, config.seed ^ 0xabcd,
      [&] { return InferenceAccum(cell_count); },
      [&]() -> PolicyStore {
        if (config.kind == GridPolicyKind::kTabular)
          return PolicyStore(golden, table_detector);
        auto engine = std::make_unique<QuantizedInferenceEngine>(
            golden_net, golden.format(), Shape{env.state_count(), 1, 1});
        if (config.mitigated)
          engine->enable_weight_protection(config.detector_margin);
        return PolicyStore(std::move(engine), env.state_count());
      },
      [&](InferenceAccum& acc, std::size_t trial, Rng& rng,
          PolicyStore& store) {
        const std::size_t cell = trial / repeat_count;
        const auto mode = static_cast<InferenceFaultMode>(cell / ber_count);
        const double ber = config.bers[cell % ber_count];
        const std::uint64_t detections_before = store.detections();
        if (fault_trial(env, store, mode, ber, rng)) ++acc.successes[cell];
        acc.detections[cell] += store.detections() - detections_before;
      },
      [](InferenceAccum& into, InferenceAccum&& from) { into.merge(from); },
      context.stream);

  perf::add_section(config.kind == GridPolicyKind::kTabular
                        ? "grid_inference_trials_tabular"
                        : "grid_inference_trials_nn",
                    cell_count * repeat_count,
                    perf::now() - trials_started);

  for (std::size_t mode = 0; mode < 4; ++mode) {
    for (std::size_t b = 0; b < ber_count; ++b) {
      const std::size_t cell = mode * ber_count + b;
      result.success_by_mode[mode].push_back(
          100.0 * static_cast<double>(totals.successes[cell]) /
          static_cast<double>(config.repeats));
      if (config.mitigated) result.detections += totals.detections[cell];
    }
  }
  return result;
}

MitigationComparison run_inference_mitigation_comparison(
    const InferenceCampaignConfig& config, const ScenarioContext& context) {
  MitigationComparison comparison;
  comparison.bers = config.bers;
  ScenarioContext arm = context;

  InferenceCampaignConfig baseline = config;
  baseline.mitigated = false;
  arm.stream = with_checkpoint_suffix(context.stream, "baseline");
  const InferenceCampaignResult off = run_inference_campaign(baseline, arm);

  InferenceCampaignConfig hardened = config;
  hardened.mitigated = true;
  arm.stream = with_checkpoint_suffix(context.stream, "mitigated");
  const InferenceCampaignResult on = run_inference_campaign(hardened, arm);

  comparison.baseline_success = off.success_by_mode[0];   // Transient-M
  comparison.mitigated_success = on.success_by_mode[0];
  return comparison;
}

}  // namespace ftnav
