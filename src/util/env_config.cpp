#include "util/env_config.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>

extern "C" char** environ;

namespace ftnav {

std::int64_t env_int(const char* name, std::int64_t fallback) {
  const char* raw = std::getenv(name);
  if (raw == nullptr || *raw == '\0') return fallback;
  char* end = nullptr;
  const long long value = std::strtoll(raw, &end, 10);
  if (end == raw) return fallback;
  return value;
}

std::string env_string(const char* name, const std::string& fallback) {
  const char* raw = std::getenv(name);
  return raw != nullptr ? std::string(raw) : fallback;
}

BenchConfig bench_config_from_env() {
  BenchConfig config;
  config.seed = static_cast<std::uint64_t>(env_int("FTNAV_SEED", 42));
  config.repeats = static_cast<int>(env_int("FTNAV_REPEATS", 0));
  config.full_scale = env_int("FTNAV_FULL", 0) != 0;
  config.threads = static_cast<int>(env_int("FTNAV_THREADS", 0));
  config.progress_every = static_cast<int>(env_int("FTNAV_PROGRESS", 0));
  config.checkpoint_dir = env_string("FTNAV_CHECKPOINT_DIR", "");
  config.resume = env_int("FTNAV_RESUME", 0) != 0;
  config.json_dir = env_string("FTNAV_JSON_DIR", "");
  config.workers = static_cast<int>(env_int("FTNAV_WORKERS", 0));
  config.queue_addr = env_string("FTNAV_QUEUE_ADDR", "");
  config.lease_batch = static_cast<int>(env_int("FTNAV_LEASE_BATCH", 0));
  config.worker_id = static_cast<int>(env_int("FTNAV_WORKER_ID", -1));
  config.auth_token = env_string("FTNAV_AUTH_TOKEN", "");
  return config;
}

int BenchConfig::resolve_repeats(int fast_default, int full_default) const {
  if (repeats > 0) return repeats;
  return full_scale ? full_default : fast_default;
}

std::string describe(const BenchConfig& config) {
  std::ostringstream out;
  out << "config: seed=" << config.seed
      << " repeats=" << (config.repeats > 0 ? std::to_string(config.repeats)
                                            : std::string("default"))
      << " scale=" << (config.full_scale ? "full(paper)" : "fast")
      << " threads=" << (config.threads > 0 ? std::to_string(config.threads)
                                            : std::string("auto"));
  if (config.progress_every > 0)
    out << " progress=" << config.progress_every;
  if (!config.checkpoint_dir.empty())
    out << " checkpoints=" << config.checkpoint_dir
        << (config.resume ? " (resume)" : "");
  if (!config.json_dir.empty()) out << " json=" << config.json_dir;
  // FTNAV_WORKERS is deliberately absent here: only benches that wire
  // bench_dist() honor it, and those announce the distributed run on
  // stderr themselves — the banner must never claim a distributed run
  // a bench did not perform.
  out << "  [override with FTNAV_SEED / FTNAV_REPEATS / FTNAV_FULL=1 / "
         "FTNAV_THREADS / FTNAV_PROGRESS / FTNAV_CHECKPOINT_DIR / "
         "FTNAV_RESUME=1 / FTNAV_JSON_DIR / FTNAV_WORKERS]";
  return out.str();
}

const std::vector<EnvKnob>& declared_env_knobs() {
  static const std::vector<EnvKnob> knobs = {
      {"FTNAV_SEED", "override the campaign seed"},
      {"FTNAV_REPEATS", "override per-cell repeat count"},
      {"FTNAV_FULL", "run paper-scale sweeps"},
      {"FTNAV_THREADS", "campaign worker threads"},
      {"FTNAV_PROGRESS", "streamed progress cadence in trials"},
      {"FTNAV_CHECKPOINT_DIR", "campaign checkpoint directory"},
      {"FTNAV_RESUME", "resume from existing checkpoints"},
      {"FTNAV_JSON_DIR", "JSON table artifact directory"},
      {"FTNAV_WORKERS", "distributed worker processes"},
      {"FTNAV_QUEUE_ADDR", "campaign-server host:port for FTNAV_WORKERS"},
      {"FTNAV_LEASE_BATCH", "shards leased per claim round-trip"},
      {"FTNAV_COST_PROFILE",
       "machine-profile JSON for the analytic cost model"},
      {"FTNAV_WORKER_ID", "set by the coordinator in worker processes"},
      {"FTNAV_AUTH_TOKEN", "campaign-server session token"},
      {"FTNAV_SERVER", "default campaign-server host:port for "
                       "submit/status/attach"},
      {"FTNAV_SIMD",
       "kernel backend: scalar|avx2|neon|auto (results identical)"},
      {"FTNAV_TRIAL_BATCH",
       "NN trials per engine rebuild; 0 = one engine per shard "
       "(results identical)"},
      {"FTNAV_PERF_DIR", "write BENCH_*.json perf records here"},
      {"FTNAV_GIT_SHA", "git sha recorded in perf records"},
      {"FTNAV_TRACE_DIR", "dump Perfetto traces here (empty = off)"},
      {"FTNAV_LOG", "stderr log level: error|warn|info|debug"},
  };
  return knobs;
}

std::vector<std::string> unknown_ftnav_vars(
    const std::vector<std::string>& also_known) {
  std::vector<std::string> unknown;
  for (char** entry = environ; entry != nullptr && *entry != nullptr;
       ++entry) {
    const char* assignment = *entry;
    if (std::strncmp(assignment, "FTNAV_", 6) != 0) continue;
    const char* equals = std::strchr(assignment, '=');
    const std::string name(assignment, equals != nullptr
                                           ? static_cast<std::size_t>(
                                                 equals - assignment)
                                           : std::strlen(assignment));
    bool known = false;
    for (const EnvKnob& knob : declared_env_knobs())
      if (name == knob.name) {
        known = true;
        break;
      }
    if (!known)
      known = std::find(also_known.begin(), also_known.end(), name) !=
              also_known.end();
    if (!known) unknown.push_back(name);
  }
  std::sort(unknown.begin(), unknown.end());
  unknown.erase(std::unique(unknown.begin(), unknown.end()), unknown.end());
  return unknown;
}

int warn_unknown_ftnav_vars(const std::vector<std::string>& also_known) {
  const std::vector<std::string> unknown = unknown_ftnav_vars(also_known);
  for (const std::string& name : unknown)
    std::fprintf(stderr,
                 "warning: unknown environment knob %s (typo? see "
                 "util/env_config.h and `fault_campaign describe`)\n",
                 name.c_str());
  return static_cast<int>(unknown.size());
}

}  // namespace ftnav
