#pragma once
// The scenario registry: every fault-injection campaign in the repo,
// addressable by name through one typed front-end.
//
// A scenario is a named, documented, parameterized experiment. Its
// descriptor (ScenarioSpec) declares a parameter schema (param_set.h)
// and a factory that binds a fully-applied ParamSet into a runnable
// Scenario with the uniform contract
//
//     run(ScenarioContext&) -> ScenarioResult
//
// ScenarioContext carries the cross-cutting execution knobs every
// campaign understands — worker threads, and the CampaignStreamConfig
// of progress, checkpoint/resume and multi-process role (its `dist`).
// It is the only carrier of them: a scenario hands it unchanged to its
// driver (src/experiments/), the driver builds its CampaignRunner from
// `threads` and passes `stream` to each runner call, and the runner
// applies the distributed role per call. Every built-in scenario does
// so, except grid-value-histogram (one training, no campaign) and
// grid-reward-curves, which uses only `threads`, for its set-up loop of
// five trainings. A new workload is one registration: declare params,
// build the driver config, run with the context, render.
//
// Front-ends on top of the registry:
//   - `fault_campaign list | describe <name> | run <name> --param k=v`
//     (examples/fault_campaign.cpp);
//   - the figure benches, which are now a scenario name plus parameter
//     overrides (bench/bench_common.h run_scenario).
//
// Registration: the built-in scenarios register on first
// ScenarioRegistry::instance() access (builtin_scenarios.cpp) — an
// explicit call rather than static-initializer magic, because this
// library links statically and the linker would drop never-referenced
// registrar objects. Out-of-tree code that *is* referenced can use
// ScenarioRegistrar as a self-registering static.

#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "campaign/streaming.h"
#include "cost/cost_model.h"
#include "scenario/param_set.h"

namespace ftnav {

/// Cross-cutting execution knobs, identical for every scenario and
/// every campaign driver, which take it as their last argument. The
/// scenario's own knobs live in its ParamSet; these belong to the
/// invocation (how many threads, where to checkpoint, which worker
/// role) and never affect result bytes.
struct ScenarioContext {
  /// Campaign worker threads; <= 0 selects hardware_concurrency.
  int threads = 0;
  /// Progress, checkpoint/resume and the multi-process role
  /// (`stream.dist`, see src/dist/). Drivers with several internal
  /// grids derive per-grid checkpoint files via with_checkpoint_suffix.
  CampaignStreamConfig stream;
};

/// What a scenario produced: a human-readable report and named JSON
/// artifacts. `text` is written to stdout by front-ends and must be a
/// pure function of the scenario parameters (never of threads, worker
/// count, or transport) — the distributed-determinism CI jobs diff it.
struct ScenarioResult {
  std::string text;
  /// (name, JSON fragment) pairs; fragments are complete JSON values.
  std::vector<std::pair<std::string, std::string>> artifacts;

  void add_artifact(std::string name, std::string json_fragment) {
    artifacts.emplace_back(std::move(name), std::move(json_fragment));
  }

  /// One JSON object holding every artifact, keyed by name.
  std::string to_json() const;
};

/// A runnable, parameter-bound experiment.
class Scenario {
 public:
  virtual ~Scenario() = default;
  virtual ScenarioResult run(ScenarioContext& context) = 0;
};

/// Registry descriptor: everything a front-end needs to list,
/// document, configure, and launch a scenario.
struct ScenarioSpec {
  std::string name;     ///< unique kebab-case registry key
  std::string summary;  ///< one line for `fault_campaign list`
  std::vector<std::string> tags;
  std::vector<ParamSpec> params;
  /// Binds an applied ParamSet into a runnable Scenario. Parameter
  /// errors surface as ParamError from ParamSet getters.
  std::function<std::unique_ptr<Scenario>(const ParamSet&)> factory;
  /// Optional analytic cost estimator (src/cost/): maps the same
  /// applied ParamSet to per-campaign, per-shard work estimates.
  /// Consumed by `describe --cost` and cost_report.json; null means
  /// "no model".
  std::function<cost::CostEstimate(const ParamSet&)> cost;

  /// Fresh ParamSet over this scenario's schema, defaults applied.
  ParamSet make_params() const { return ParamSet(params); }
};

/// Process-wide scenario directory. Thread-compatible (front-ends
/// register and query from one thread; campaigns themselves thread
/// internally).
class ScenarioRegistry {
 public:
  /// The global registry, with every built-in scenario registered.
  static ScenarioRegistry& instance();

  /// Registers a scenario; a duplicate name or missing factory throws
  /// std::logic_error (a registration bug, not a user error).
  void add(ScenarioSpec spec);

  /// Null when unknown.
  const ScenarioSpec* find(const std::string& name) const;

  /// Every registered scenario, name-sorted (stable list/describe
  /// output is part of the CLI contract).
  std::vector<const ScenarioSpec*> all() const;

  /// FTNAV_* environment names of every registered scenario parameter
  /// — the set env-typo diagnosis must not flag (util/env_config.h).
  std::vector<std::string> known_param_env_names() const;

 private:
  std::vector<ScenarioSpec> specs_;
};

/// Self-registering helper for translation units that are referenced
/// anyway (see the registration note in the header comment):
///   static ScenarioRegistrar my_scenario{{.name = ..., ...}};
struct ScenarioRegistrar {
  explicit ScenarioRegistrar(ScenarioSpec spec) {
    ScenarioRegistry::instance().add(std::move(spec));
  }
};

/// Human-readable description of one scenario: summary, tags, and the
/// parameter table. `markdown` renders the README "Scenario catalog"
/// flavor; plain renders the `fault_campaign describe` flavor. Both
/// are stable and deterministic for a fixed registry.
std::string describe_scenario(const ScenarioSpec& spec, bool markdown);

/// Machine-readable ParamSpec schema dump for one scenario — the
/// contract `fault_campaign describe --json` publishes and submit
/// clients (or a future web front-end) consume. One JSON object:
/// name, summary, tags, and a `params` array of {name, type, default,
/// doc[, choices][, min][, max]} objects (numeric bounds only when
/// the spec actually restricts them; defaults are the same canonical
/// strings ParamSet::set accepts, so a config built from this schema
/// re-parses to an identical canonical() form).
std::string describe_scenario_json(const ScenarioSpec& spec);

}  // namespace ftnav
