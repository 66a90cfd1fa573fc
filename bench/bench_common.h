#pragma once
// Shared scaffolding for the figure-reproduction benches.
//
// Every bench prints: a banner identifying the paper artifact it
// regenerates, the resolved configuration (seed / repeats / scale), the
// measured table(s), and a short "expected shape" note restating the
// paper's qualitative claim the numbers should exhibit. With
// FTNAV_JSON_DIR set, a bench also writes its tables as JSON. Benches
// record no timings: perfbench/ measures whole scenario runs, and
// ci/perf_gate.py gates on its records.

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "scenario/scenario.h"
#include "util/env_config.h"
#include "util/table.h"

namespace ftnav::benchharness {

inline void print_banner(const std::string& artifact,
                         const std::string& description,
                         const BenchConfig& config) {
  // Typo'd FTNAV_* vars are diagnosed on stderr before any results.
  warn_unknown_ftnav_vars(
      ScenarioRegistry::instance().known_param_env_names());
  std::printf("==============================================================\n");
  std::printf("%s — %s\n", artifact.c_str(), description.c_str());
  std::printf("%s\n", describe(config).c_str());
  std::printf("==============================================================\n");
}

inline void print_shape_note(const std::string& note) {
  std::printf("expected shape: %s\n\n", note.c_str());
}

/// Runs registry scenario `name` under the bench harness and prints
/// its report: a bench is a scenario name plus parameter `overrides`,
/// not bespoke wiring. Parameters bind as `fault_campaign run` binds
/// them: the scenario's declared defaults, then FTNAV_<PARAM>
/// environment values, then `overrides` at CLI precedence (they encode
/// the bench's resolved FTNAV_REPEATS/FTNAV_SEED/FTNAV_FULL choices).
/// To shard, checkpoint, resume or watch progress on one scenario of a
/// figure, run it with `fault_campaign run` instead (same bytes).
/// Returns the result for artifact export.
inline ScenarioResult run_scenario(
    const std::string& name, const BenchConfig& config,
    const std::vector<std::pair<std::string, std::string>>& overrides) {
  const ScenarioSpec* spec = ScenarioRegistry::instance().find(name);
  if (spec == nullptr)
    throw std::runtime_error("unknown scenario: " + name);
  ParamSet params = spec->make_params();
  try {
    params.apply_env();
    for (const auto& [key, value] : overrides)
      params.set(key, value, ParamSource::kCli);
  } catch (const ParamError& error) {
    // A malformed FTNAV_<PARAM> value is a diagnosed exit, not an
    // uncaught abort mid-banner.
    std::fprintf(stderr, "error: %s\n", error.what());
    std::exit(2);
  }
  ScenarioContext context;
  context.threads = config.threads;
  ScenarioResult result = spec->factory(params)->run(context);
  std::printf("%s\n", result.text.c_str());
  std::fflush(stdout);
  return result;
}

/// Collects the tables a bench prints and, when FTNAV_JSON_DIR is set,
/// writes them to "<dir>/<artifact>.json" on destruction (CI uploads
/// these as workflow artifacts on Release runs).
class JsonArtifact {
 public:
  JsonArtifact(const BenchConfig& config, std::string artifact)
      : dir_(config.json_dir), artifact_(std::move(artifact)) {}

  void add(const std::string& name, const Table& table) {
    entries_.emplace_back(name, table.to_json());
  }
  void add(const std::string& name, const HeatmapGrid& grid,
           int precision = 6) {
    entries_.emplace_back(name, grid.to_json(precision));
  }
  /// Appends every artifact of a scenario result as "<prefix>_<name>".
  void add(const std::string& prefix, const ScenarioResult& result) {
    for (const auto& [name, fragment] : result.artifacts)
      entries_.emplace_back(prefix + "_" + name, fragment);
  }

  ~JsonArtifact() {
    if (dir_.empty() || entries_.empty()) return;
    const std::string path = dir_ + "/" + artifact_ + ".json";
    std::ofstream out(path);
    out << "{";
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      out << (i ? ",\n " : "\n ") << json_quote(entries_[i].first) << ": "
          << entries_[i].second;
    }
    out << "\n}\n";
    out.flush();
    // The tables are already on stdout, so a failed open or write is
    // reported but does not change the bench's exit status.
    if (!out)
      std::fprintf(stderr, "warning: could not write %s\n", path.c_str());
  }

 private:
  std::string dir_;
  std::string artifact_;
  std::vector<std::pair<std::string, std::string>> entries_;
};

/// BER axis of the Grid World training figures (0.1%..1.0%).
inline std::vector<double> grid_training_bers(bool full) {
  if (full)
    return {0.001, 0.002, 0.003, 0.004, 0.005,
            0.006, 0.007, 0.008, 0.009, 0.010};
  return {0.001, 0.003, 0.005, 0.008, 0.010};
}

/// Injection-episode axis for an `episodes`-long training run. Spans
/// the whole run including the final episode (the paper's EI=1000
/// column on a 1000-episode run: no time left to heal).
inline std::vector<int> grid_injection_episodes(int episodes, bool full) {
  std::vector<int> points;
  const int buckets = full ? 10 : 5;
  for (int i = 0; i < buckets; ++i) {
    const int point = episodes * i / (buckets - 1);
    points.push_back(std::min(point, episodes - 1));
  }
  return points;
}

/// BER axis of the drone figures (paper: 0, 1e-5 .. 1e-1).
inline std::vector<double> drone_bers(bool full) {
  if (full) return {0.0, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1};
  return {0.0, 1e-4, 1e-3, 1e-2, 1e-1};
}

}  // namespace ftnav::benchharness
