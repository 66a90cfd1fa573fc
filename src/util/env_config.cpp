#include "util/env_config.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <limits>
#include <sstream>
#include <stdexcept>

extern "C" char** environ;

namespace ftnav {

std::int64_t env_int(const char* name, std::int64_t fallback,
                     std::int64_t min, std::int64_t max) {
  const char* raw = std::getenv(name);
  if (raw == nullptr || *raw == '\0') return fallback;
  char* end = nullptr;
  errno = 0;
  const long long value = std::strtoll(raw, &end, 10);
  if (end == raw || *end != '\0' || errno == ERANGE || value < min ||
      value > max)
    throw std::invalid_argument(std::string(name) + "='" + raw +
                                "' is not a whole integer in [" +
                                std::to_string(min) + ", " +
                                std::to_string(max) + "]");
  return value;
}

std::string env_string(const char* name, const std::string& fallback) {
  const char* raw = std::getenv(name);
  return raw != nullptr ? std::string(raw) : fallback;
}

BenchConfig bench_config_from_env() {
  constexpr std::int64_t kIntMax = std::numeric_limits<int>::max();
  BenchConfig config;
  try {
    config.seed = static_cast<std::uint64_t>(env_int(
        "FTNAV_SEED", 42, 0, std::numeric_limits<std::int64_t>::max()));
    config.repeats =
        static_cast<int>(env_int("FTNAV_REPEATS", 0, 1, kIntMax));
    config.full_scale = env_int("FTNAV_FULL", 0, 0, 1) != 0;
    config.threads =
        static_cast<int>(env_int("FTNAV_THREADS", 0, 0, kIntMax));
    config.json_dir = env_string("FTNAV_JSON_DIR", "");
    std::error_code ignored;
    if (!config.json_dir.empty() &&
        !std::filesystem::is_directory(config.json_dir, ignored))
      throw std::invalid_argument("FTNAV_JSON_DIR='" + config.json_dir +
                                  "' is not an existing directory");
  } catch (const std::invalid_argument& error) {
    // Exit before a banner could echo the value as valid.
    std::fprintf(stderr, "error: %s\n", error.what());
    std::exit(2);
  }
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
  if (!config.json_dir.empty()) out << " json=" << config.json_dir;
  out << "  [override with FTNAV_SEED / FTNAV_REPEATS / FTNAV_FULL=1 / "
         "FTNAV_THREADS / FTNAV_JSON_DIR]";
  return out.str();
}

const std::vector<EnvKnob>& declared_env_knobs() {
  static const std::vector<EnvKnob> knobs = {
      {"FTNAV_SEED", "override the campaign seed"},
      {"FTNAV_REPEATS", "override per-cell repeat count"},
      {"FTNAV_FULL", "run paper-scale sweeps"},
      {"FTNAV_THREADS", "campaign worker threads"},
      {"FTNAV_JSON_DIR", "JSON table artifact directory"},
      {"FTNAV_COST_PROFILE",
       "machine-profile JSON for the analytic cost model"},
      {"FTNAV_AUTH_TOKEN", "campaign-server session token"},
      {"FTNAV_SERVER", "default campaign-server host:port for "
                       "submit/status/attach"},
      {"FTNAV_SIMD",
       "kernel backend: scalar|avx2|neon|auto (results identical)"},
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
