#pragma once
// Measured per-shard runtimes — the validation feed for the analytic
// cost model (src/cost/).
//
// Every committed campaign shard records {tag, shard_id, worker_id,
// wall_seconds, trials, threads, backend, fingerprint} into a
// process-global sink (the util/perf idiom: one mutexed append per
// shard, never per trial). Distributed workers ship their records to
// the coordinator alongside partials (TcpTransport::publish_timings
// / collect_timings); the coordinator merges, dedupes by (tag, shard),
// and — when tracing is enabled — writes
// `<FTNAV_TRACE_DIR>/shard_timings.json`:
//
//   {"schema": "ftnav-shard-timings-v2",
//    "records": [{"tag": ..., "shard": N, "worker": W,
//                 "wall_seconds": S, "trials": T, "threads": C,
//                 "backend": ..., "fingerprint": ...}]}
//
// v2 adds `threads` (the runner's resolved worker-thread count — a
// shard runs on one of them, so 1-thread shard wall is the number the
// cost model predicts) and `fingerprint` (the scenario param
// fingerprint from param_fingerprint(), "" when the front-end set
// none) so cost-model validation can join timing records to the exact
// configuration that produced them.
//
// Per the src/obs/ invariant the artifact goes to FTNAV_TRACE_DIR
// only; stdout / FTNAV_JSON_DIR / checkpoints never see timing data.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace ftnav::obs {

struct ShardTiming {
  std::string tag;             // campaign queue tag ("" for local runs)
  std::uint64_t shard_id = 0;
  int worker_id = -1;          // -1: coordinator/local process
  double wall_seconds = 0.0;
  std::uint64_t trials = 0;
  int threads = 0;             // runner's resolved worker-thread count
  std::string backend;         // kernels::active().name, "unknown" if
                               // backend resolution failed/not linked
  std::string fingerprint;     // scenario param fingerprint, "" unset
};

/// Stamps records made by this process with a worker id (-1 default).
void set_shard_timing_worker_id(int worker_id);
int shard_timing_worker_id();

/// Stamps records made by this process with a scenario param
/// fingerprint (front-ends call this with
/// param_fingerprint(params.canonical()) before launching; "" default).
void set_shard_timing_fingerprint(std::string_view fingerprint);
std::string shard_timing_fingerprint();

/// Canonical fingerprint of a scenario configuration: a fixed-width
/// FNV-1a hex digest of "<scenario>|<ParamSet::canonical()>", stable
/// across processes and platforms.
std::string param_fingerprint(std::string_view scenario,
                              std::string_view canonical_params);

/// Appends one record (worker id, fingerprint, and backend filled in
/// here) when tracing is active; a no-op with telemetry off, so
/// disabled campaigns stay alloc-free. At most stream_shard_count
/// records per campaign. Thread-safe.
void record_shard_timing(std::string_view tag, std::uint64_t shard_id,
                         double wall_seconds, std::uint64_t trials,
                         int threads);

/// Merges externally collected records in (coordinator absorbing
/// worker uploads). Thread-safe.
void note_shard_timings(const std::vector<ShardTiming>& records);

/// Copy of the sink, optionally restricted to one tag; does not drain.
std::vector<ShardTiming> snapshot_shard_timings(
    std::string_view tag_filter = {});

/// Test hook: empties the sink.
void clear_shard_timings();

/// Wire codec for shipping records to the campaign server.
std::string encode_shard_timings(const std::vector<ShardTiming>& records);
std::vector<ShardTiming> decode_shard_timings(const std::string& bytes);

/// Sorted + deduped (first record per (tag, shard) wins) JSON dump to
/// `<dir>/shard_timings.json` via tmp+rename.
void write_shard_timings_json(const std::string& dir);

/// Called from flush_telemetry(): writes shard_timings.json when this
/// process holds records and is not a distributed worker (workers ship
/// records to the coordinator instead of dumping their own file).
void maybe_write_shard_timings(const std::string& dir);

}  // namespace ftnav::obs
