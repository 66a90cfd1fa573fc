#pragma once
// Environment-variable experiment knobs shared by every bench binary.
//
//   FTNAV_REPEATS         override per-cell repeat count
//   FTNAV_SEED            override the campaign seed
//   FTNAV_FULL=1          run paper-scale sweeps (denser grids, more repeats)
//   FTNAV_THREADS         campaign worker threads (0 = hardware_concurrency;
//                         results are identical for every value)
//   FTNAV_PROGRESS        emit streamed progress every N trials (0 = off)
//   FTNAV_CHECKPOINT_DIR  periodically checkpoint campaigns into this
//                         directory (must exist); empty = off
//   FTNAV_RESUME=1        resume from the checkpoints in
//                         FTNAV_CHECKPOINT_DIR instead of restarting
//   FTNAV_JSON_DIR        also write each table as JSON into this
//                         directory (CI uploads these as artifacts)
//   FTNAV_WORKERS         distributed campaign worker processes; the
//                         bench hosts a campaign server in-process,
//                         re-execs itself that many times in worker
//                         mode and merges their partial checkpoints
//                         (results identical to a single-process run;
//                         see src/dist/). Honored by benches that call
//                         bench_dist() — see bench/bench_common.h —
//                         and ignored elsewhere
//   FTNAV_QUEUE_ADDR      host:port the FTNAV_WORKERS coordinator binds
//                         its campaign server to (default 127.0.0.1:0:
//                         loopback, port 0 picks a free port); workers
//                         receive the resolved address here
//   FTNAV_LEASE_BATCH     shards leased per claim round-trip (>= 1;
//                         results identical for every value)
//   FTNAV_COST_PROFILE    path to a machine-profile JSON
//                         (ftnav-machine-profile-v1) calibrating the
//                         analytic cost model's rates; empty = builtin
//                         defaults. See src/cost/
//   FTNAV_WORKER_ID       set by the coordinator in worker processes;
//                         not meant to be set by hand
//   FTNAV_AUTH_TOKEN      session token for an auth-enabled campaign
//                         server (fault_campaign serve --auth-token);
//                         presented in the hello handshake of every
//                         TCP transport connection. Empty = no auth
//   FTNAV_SERVER          default campaign-server host:port for the
//                         fault_campaign submit/status/attach
//                         subcommands (their --server flag overrides)
//   FTNAV_SIMD            kernel backend for quantized inference:
//                         scalar | avx2 | auto (default). Results are
//                         bit-identical across backends; avx2 on a
//                         machine without AVX2 is a hard error. See
//                         src/nn/kernels/
//   FTNAV_TRIAL_BATCH     NN inference trials per engine rebuild:
//                         0 (default) keeps one resident engine per
//                         campaign shard, 1 reproduces the legacy
//                         engine-per-trial path, k rebuilds every k
//                         trials. Results identical for every value
//   FTNAV_PERF_DIR        write BENCH_<name>.json perf-trajectory
//                         records (trials/sec, wall clock, backend,
//                         git sha) into this directory; consumed by
//                         ci/perf_gate.py. Deliberately separate from
//                         FTNAV_JSON_DIR so timing never lands in
//                         byte-compared result artifacts
//   FTNAV_GIT_SHA         git sha recorded in perf records when
//                         GITHUB_SHA is unset
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
  int progress_every = 0; // streamed progress cadence in trials; 0 = off
  std::string checkpoint_dir;  // campaign checkpoints land here; "" = off
  bool resume = false;         // resume from existing checkpoints
  std::string json_dir;        // JSON table artifacts land here; "" = off
  int workers = 0;             // distributed worker processes; 0 = off
  std::string queue_addr;      // campaign-server host:port; "" = loopback
  int lease_batch = 0;         // shards per claim round-trip; 0 = default
  int worker_id = -1;          // >= 0 marks a spawned worker process
  std::string auth_token;      // campaign-server session token; "" = none

  /// Repeat count to use given the bench's fast-mode default.
  int resolve_repeats(int fast_default, int full_default) const;

  /// True in a bench process the coordinator spawned in worker mode
  /// (benches skip result printing there; the coordinator prints).
  bool is_dist_worker() const { return worker_id >= 0; }
};

/// Reads the FTNAV_* knobs above from the environment.
BenchConfig bench_config_from_env();

/// String environment variable with fallback (unset -> fallback).
std::string env_string(const char* name, const std::string& fallback);

/// Integer environment variable with fallback (empty/invalid -> fallback).
std::int64_t env_int(const char* name, std::int64_t fallback);

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
