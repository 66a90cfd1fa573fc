#pragma once
// Shared scaffolding for the figure-reproduction benches.
//
// Every bench prints: a banner identifying the paper artifact it
// regenerates, the resolved configuration (seed / repeats / scale), the
// measured table(s), and a short "expected shape" note restating the
// paper's qualitative claim the numbers should exhibit.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "campaign/streaming.h"
#include "dist/dist_coordinator.h"
#include "dist/tcp_transport.h"
#include "nn/kernels/kernels.h"
#include "scenario/scenario.h"
#include "util/env_config.h"
#include "util/perf.h"
#include "util/table.h"

namespace ftnav::benchharness {

inline void print_banner(const std::string& artifact,
                         const std::string& description,
                         const BenchConfig& config) {
  // Typo'd FTNAV_* vars are diagnosed on stderr before any results
  // (workers skip the banner, so the warning prints once per bench).
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

/// Streaming knobs for one campaign inside a bench: a progress line
/// every FTNAV_PROGRESS trials, and periodic checkpoints into
/// FTNAV_CHECKPOINT_DIR (resumed when FTNAV_RESUME=1). `label` names
/// the campaign in progress lines and checkpoint filenames, so every
/// campaign in a bench needs its own label.
inline CampaignStreamConfig stream_for(const BenchConfig& config,
                                       const std::string& label) {
  CampaignStreamConfig stream;
  if (config.progress_every > 0) {
    stream.progress_every_trials =
        static_cast<std::size_t>(config.progress_every);
    stream.on_progress = [label](const StreamProgress& progress) {
      std::printf("  [%s] %zu/%zu trials (%.1f%%), %zu/%zu shards\n",
                  label.c_str(), progress.trials_done,
                  progress.trials_total, 100.0 * progress.fraction(),
                  progress.shards_done, progress.shards_total);
      std::fflush(stdout);
    };
  }
  if (!config.checkpoint_dir.empty()) {
    stream.checkpoint_path = config.checkpoint_dir + "/" + label + ".ckpt";
    stream.resume = config.resume;
  }
  return stream;
}

/// Resolves this bench process's distributed-campaign role from the
/// FTNAV_WORKERS / FTNAV_QUEUE_ADDR / FTNAV_WORKER_ID knobs; call once
/// before running campaigns and copy the result into each campaign
/// config's `dist` field.
///
/// In the coordinator (FTNAV_WORKERS > 0) this call BLOCKS: it hosts
/// a campaign server in this process, re-execs the bench binary
/// (`argv0`) FTNAV_WORKERS times with FTNAV_WORKER_ID and the
/// server's address set — the workers inherit every other FTNAV_*
/// knob from the environment — drains the shard queue, then returns
/// the finalize-role config, under which the bench's campaigns merge
/// the workers' partial checkpoints and complete without re-running
/// trials. Worker processes get their worker-role config back
/// immediately (and have json_dir cleared: the coordinator alone
/// writes artifacts; benches should also skip printing tables when
/// `config.is_dist_worker()`).
inline DistConfig bench_dist(const char* argv0, BenchConfig& config) {
  DistConfig dist;
  if (config.lease_batch >= 1) dist.lease_batch = config.lease_batch;
  // Session token for an auth-enabled campaign server (FTNAV_AUTH_TOKEN);
  // worker processes inherit the variable from our environment.
  dist.auth_token = config.auth_token;
  if (config.worker_id >= 0) {
    dist.worker_id = config.worker_id;
    dist.queue_addr = config.queue_addr;
    config.json_dir.clear();
    config.progress_every = 0;  // keep worker stdout quiet
    return dist;
  }
  if (config.workers <= 0) return dist;
  // The server lives for the whole bench run (the finalize merges
  // drain it at the end) and enforces the same session token the
  // workers present. Loopback by default: without a token, anything
  // that can reach the port can lease shards.
  static TcpWorkServer server(CampaignServerConfig{
      config.queue_addr.empty() ? "127.0.0.1:0" : config.queue_addr,
      std::string(), config.auth_token});
  server.start();
  config.queue_addr = server.address();  // resolve a port-0 bind
  dist.workers = config.workers;
  dist.queue_addr = config.queue_addr;
  // To stderr: stdout must stay identical to a single-process run.
  std::fprintf(stderr, "distributed: %d workers, queue-addr=%s\n",
               dist.workers, dist.queue_addr.c_str());
  const DistCoordinator coordinator(dist);
  coordinator.run([&](int worker) {
    DistCoordinator::Command command;
    command.argv = {argv0};
    command.env = {"FTNAV_WORKER_ID=" + std::to_string(worker),
                   "FTNAV_QUEUE_ADDR=" + dist.queue_addr};
    return command;
  });
  return dist;
}

/// Runs registry scenario `name` under the bench harness: a bench is a
/// scenario name plus parameter `overrides`, not bespoke wiring. The
/// overrides apply at CLI precedence (they encode the bench's resolved
/// FTNAV_REPEATS/FTNAV_SEED/FTNAV_FULL choices), on top of FTNAV_<PARAM>
/// environment values, on top of the scenario's declared defaults.
/// Streaming knobs come from stream_for(config, label) — pass each
/// campaign in a bench its own label — and `dist` from bench_dist (or
/// a default DistConfig for benches that do not shard). Prints the
/// scenario report unless this process is a distributed worker;
/// returns the result for artifact export.
inline ScenarioResult run_scenario(
    const std::string& name, const std::string& label,
    const BenchConfig& config, const DistConfig& dist,
    const std::vector<std::pair<std::string, std::string>>& overrides) {
  const ScenarioSpec* spec = ScenarioRegistry::instance().find(name);
  if (spec == nullptr)
    throw std::runtime_error("unknown scenario: " + name);
  ParamSet params = spec->make_params();
  try {
    for (const ParamSpec& param : spec->params) {
      const std::string env = ParamSet::env_name(param.name);
      // Harness knobs that share a name with a scenario parameter
      // (FTNAV_REPEATS, FTNAV_SEED, ...) keep their harness semantics
      // (0 = "use the bench default") — bench_config_from_env resolved
      // them already and they arrive via `overrides`; applying them
      // here as scenario values would reject e.g. FTNAV_REPEATS=0.
      bool harness_knob = false;
      for (const EnvKnob& knob : declared_env_knobs())
        if (env == knob.name) {
          harness_knob = true;
          break;
        }
      if (harness_knob) continue;
      const char* raw = std::getenv(env.c_str());
      if (raw != nullptr && *raw != '\0')
        params.set(param.name, raw, ParamSource::kEnv);
    }
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
  context.stream = stream_for(config, label);
  context.dist = dist;
  ScenarioResult result = spec->factory(params)->run(context);
  if (!config.is_dist_worker()) {
    std::printf("%s\n", result.text.c_str());
    std::fflush(stdout);
  }
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
    std::ofstream out(dir_ + "/" + artifact_ + ".json");
    if (!out) return;  // benches never fail on artifact export
    out << "{";
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      out << (i ? ",\n " : "\n ") << json_quote(entries_[i].first) << ": "
          << entries_[i].second;
    }
    out << "\n}\n";
  }

 private:
  std::string dir_;
  std::string artifact_;
  std::vector<std::pair<std::string, std::string>> entries_;
};

/// Drains the perf-section sink (util/perf.h) on destruction and, when
/// FTNAV_PERF_DIR is set, writes its sections to
/// "<dir>/BENCH_<artifact>.json" — the perf-trajectory records
/// `ci/perf_gate.py` compares against the committed `bench/baselines/`.
/// Library campaigns report their trial grids to the sink themselves;
/// a bench times any other section with perf::now() and reports it
/// with perf::add_section. Deliberately separate from FTNAV_JSON_DIR:
/// result tables are byte-identical across backends/threads/workers
/// and are diffed in CI, while perf records contain timings and never
/// should be.
///
/// Nothing is printed to stdout (the backend name must not leak into
/// output that equivalence legs diff); distributed workers never
/// write (the coordinator's end-to-end timing is the record).
class PerfRecorder {
 public:
  /// `refresh_command` is the exact baseline-refresh one-liner for this
  /// bench (run from the repo root, Release build); it is embedded in
  /// the record so ci/perf_gate.py can tell a contributor precisely how
  /// to create a missing baseline.
  PerfRecorder(const BenchConfig& config, std::string artifact,
               std::string refresh_command = std::string())
      : artifact_(std::move(artifact)),
        refresh_command_(std::move(refresh_command)),
        dir_(env_string("FTNAV_PERF_DIR", "")),
        threads_(config.threads),
        enabled_(!dir_.empty() && !config.is_dist_worker()) {}

  PerfRecorder(const PerfRecorder&) = delete;
  PerfRecorder& operator=(const PerfRecorder&) = delete;

  ~PerfRecorder() {
    const std::vector<perf::Section> sections = perf::drain_sections();
    if (!enabled_ || sections.empty()) return;
    std::ofstream out(dir_ + "/BENCH_" + artifact_ + ".json");
    if (!out) return;  // benches never fail on artifact export
    const std::string sha =
        env_string("GITHUB_SHA", env_string("FTNAV_GIT_SHA", "unknown"));
    const char* backend = "unknown";
    try {
      backend = kernels::active().name;
    } catch (...) {  // invalid FTNAV_SIMD: the bench itself diagnoses it
    }
    out << "{\n \"artifact\": " << json_quote(artifact_) << ",\n"
        << " \"git_sha\": " << json_quote(sha) << ",\n"
        << " \"backend\": " << json_quote(backend) << ",\n"
        << " \"threads\": " << threads_ << ",\n";
    if (!refresh_command_.empty())
      out << " \"refresh_command\": " << json_quote(refresh_command_)
          << ",\n";
    out << " \"sections\": [";
    for (std::size_t i = 0; i < sections.size(); ++i) {
      const perf::Section& s = sections[i];
      const double tps =
          s.seconds > 0.0 ? static_cast<double>(s.ops) / s.seconds : 0.0;
      out << (i ? ",\n  " : "\n  ") << "{\"name\": " << json_quote(s.name)
          << ", \"trials\": " << s.ops << ", \"wall_seconds\": "
          << format_double(s.seconds, 6) << ", \"trials_per_sec\": "
          << format_double(tps, 3) << "}";
    }
    out << "\n ]\n}\n";
    std::fprintf(stderr, "perf: wrote %s/BENCH_%s.json\n", dir_.c_str(),
                 artifact_.c_str());
  }

 private:
  std::string artifact_;
  std::string refresh_command_;
  std::string dir_;
  int threads_;
  bool enabled_;
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
