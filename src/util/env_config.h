#pragma once
// Environment-variable knobs: the bench harness's (seed, repeats,
// scale, threads, JSON export), read into BenchConfig, plus the
// process-wide ones the library and the fault_campaign CLI read.
// Sharding, checkpointing, resume and progress have no knobs here:
// they are `fault_campaign run` flags.
//
//   FTNAV_REPEATS         override per-cell repeat count
//   FTNAV_SEED            override the campaign seed
//   FTNAV_FULL=1          run paper-scale sweeps (denser grids, more repeats)
//   FTNAV_THREADS         campaign worker threads (0 = hardware_concurrency;
//                         results are identical for every value)
//                         These four are whole integers; a bench given
//                         anything else exits 2 before its banner
//   FTNAV_JSON_DIR        also write each table as JSON into this
//                         directory (CI uploads these as artifacts);
//                         a bench given a path that is not an existing
//                         directory exits 2 before its banner
//   FTNAV_AUTH_TOKEN      session token for an auth-enabled campaign
//                         server (fault_campaign serve --auth-token);
//                         presented in the hello handshake of every
//                         TCP transport connection. Empty = no auth
//   FTNAV_SERVER          default campaign-server host:port for the
//                         fault_campaign submit/status/attach
//                         subcommands (their --server flag overrides)
//   FTNAV_SIMD            kernel backend for quantized inference:
//                         scalar | avx2 | neon | auto (default). Results
//                         are bit-identical across backends; a backend
//                         this machine cannot run (avx2 without AVX2,
//                         neon off AArch64) is a hard error. See
//                         src/nn/kernels/
//   FTNAV_TRACE_DIR       dump Chrome trace-event JSON
//                         (trace.<pid>.json, Perfetto-loadable) into
//                         this directory at exit; empty = tracing off
//                         (zero-cost: a branch on a null recorder).
//                         Never touches stdout, FTNAV_JSON_DIR, or
//                         checkpoints — see src/obs/
//   FTNAV_LOG             stderr log level for server / coordinator /
//                         worker diagnostics: error|warn|info|debug
//                         (default warn). stderr only, never stdout
//
// Benches print the resolved configuration so results are reproducible.

#include <cstdint>
#include <string>
#include <vector>

namespace ftnav {

struct BenchConfig {
  std::uint64_t seed = 42;
  int repeats = 0;        // 0 means "use the bench's default"
  bool full_scale = false;
  int threads = 0;        // 0 means "hardware_concurrency"
  std::string json_dir;   // JSON table artifacts land here; "" = off

  /// Repeat count to use given the bench's fast-mode default.
  int resolve_repeats(int fast_default, int full_default) const;
};

/// Reads the bench harness's FTNAV_* knobs from the environment. A
/// value that is not a whole integer in its knob's range, or an
/// FTNAV_JSON_DIR that is not an existing directory, prints
/// "error: ..." naming the variable and exits 2.
BenchConfig bench_config_from_env();

/// String environment variable with fallback (unset -> fallback).
std::string env_string(const char* name, const std::string& fallback);

/// Integer environment variable: unset or empty -> fallback; any other
/// value must be a whole integer in [min, max], or this throws
/// std::invalid_argument naming the variable.
std::int64_t env_int(const char* name, std::int64_t fallback,
                     std::int64_t min, std::int64_t max);

/// Renders the config banner all benches print before results.
std::string describe(const BenchConfig& config);

/// One declared FTNAV_* knob: the single source of truth for which
/// environment variables exist, used both for documentation and for
/// diagnosing typo'd variables.
struct EnvKnob {
  const char* name;
  const char* doc;
};

/// Every declared harness-level FTNAV_* knob (the list in the header
/// comment above). Scenario *parameters* (FTNAV_BERS, FTNAV_POLICY,
/// ...) are declared by their scenarios instead — pass their names as
/// `also_known` below.
const std::vector<EnvKnob>& declared_env_knobs();

/// FTNAV_*-prefixed environment variables that are neither declared
/// harness knobs nor in `also_known` — i.e. typos that would
/// otherwise be silently ignored. Sorted.
std::vector<std::string> unknown_ftnav_vars(
    const std::vector<std::string>& also_known = {});

/// Prints one stderr warning per unknown FTNAV_* variable; returns how
/// many were flagged. Front-ends call this with the registry's known
/// scenario-parameter names so every env knob in the process is either
/// declared somewhere or diagnosed.
int warn_unknown_ftnav_vars(const std::vector<std::string>& also_known = {});

}  // namespace ftnav
