#pragma once
// Distributed campaign wiring: the DistConfig knob experiment drivers
// carry, and the per-campaign adapter that turns a CampaignStreamConfig
// into a distributed-worker or coordinator-finalize run.
//
// A distributed campaign has three process roles:
//
//   off        — the default; campaigns run in-process exactly as
//                before (DistCampaign is a no-op);
//   worker     — one of N processes sharing a campaign server. The
//                worker leases shards from the server's queue, runs
//                only those, and publishes them in its own partial
//                CampaignCheckpoint after every shard. It exits the
//                campaign only once every shard is globally done,
//                picking up work reclaimed from dead workers along the
//                way;
//   finalize   — the coordinator after the queue drained. The
//                campaign merges the workers' partial checkpoints
//                (disjoint-bitmap union, byte-identical to a
//                single-process checkpoint) and resumes from the
//                merged file, which completes instantly with zero
//                trials and yields the normal result struct.
//
// The roles compose with the existing machinery: a worker is just a
// streamed campaign whose pending set is gated by a ShardArbiter and
// whose checkpoint is its partial file; finalize is just
// merge-then-resume. Results are therefore bit-identical to a
// single-process run for any worker count, thread count, and worker
// kill schedule.
//
// The lease protocol's client side is TcpTransport (tcp_transport.h),
// talking to the campaign server at `queue_addr`; every lease is a
// fixed batch of `lease_batch` shards, and results are byte-identical
// for any value.

#include <memory>
#include <string>
#include <string_view>

#include "campaign/streaming.h"

namespace ftnav {

/// Distribution knob carried by experiment driver configs, mirroring
/// the `threads` and `stream` knobs. Default-constructed it does
/// nothing. Front-ends (fault_campaign --workers, FTNAV_WORKERS) fill
/// it in; drivers pass it to a DistCampaign next to each streamed
/// campaign call.
struct DistConfig {
  /// Worker processes the coordinator spawned (front-end side). In the
  /// experiment code any value >= 1 together with a queue_addr means
  /// "the queue has been drained; merge and finalize".
  int workers = 0;
  /// This process's worker id (0-based); < 0 in the coordinator.
  int worker_id = -1;
  /// "host:port" of the campaign server holding the shard queues
  /// (tcp_transport.h); empty turns distribution off. Workers need
  /// only a route to it. The `run` coordinator hosts the server
  /// in-process (on `--queue-addr`, default 127.0.0.1:0) and the
  /// bench harness likewise (FTNAV_QUEUE_ADDR); submit/attach point
  /// here at a standalone daemon (`fault_campaign serve`).
  std::string queue_addr;
  /// Session token for an auth-enabled campaign server; presented in
  /// the hello handshake of every connection (--auth-token /
  /// FTNAV_AUTH_TOKEN). Empty means no handshake.
  std::string auth_token;
  /// Multi-tenant namespace (the submission tag): when set, queue
  /// labels derive from "<namespace>/<stream tag>" instead of the
  /// bare stream tag, so two submissions of the same scenario
  /// configuration under different campaign tags use disjoint shard
  /// queues on one shared campaign server. Empty keeps the bare
  /// stream-tag labels (`run` campaigns).
  std::string queue_namespace;
  /// First worker id of this coordinator's spawn range: worker slot k
  /// runs with id `worker_id_base + k`. The submit/attach front-ends
  /// reserve the range from the campaign server (alloc_worker_ids) so
  /// a failover coordinator can never collide with ids a previous
  /// life's workers still hold leases or partials under. 0 preserves
  /// the classic single-coordinator ids 0..workers-1.
  int worker_id_base = 0;

  /// Shards leased per claim round-trip (worker-pull batching). The
  /// default 1 claims shard-by-shard; larger values amortize the
  /// per-claim round-trip across several short shards. Any value
  /// yields byte-identical merged results — batching only changes
  /// which worker runs what.
  int lease_batch = 1;

  /// A lease whose worker heartbeat is older than this is considered
  /// abandoned and may be reclaimed; <= 0 disables expiry-based
  /// reclaim everywhere (dead workers are then recovered only by the
  /// coordinator's waitpid path). Expiry-based reclaim assumes the
  /// worker is truly dead — see tcp_transport.h for the caveat. The
  /// coordinator additionally reclaims immediately on waitpid.
  double lease_expiry_seconds = 60.0;
  /// Clamped to lease_expiry_seconds / 4 so a live worker always
  /// beats several times per expiry window.
  double heartbeat_period_seconds = 2.0;
  /// Cap of the poll backoff while waiting for stragglers/reclaims:
  /// an idle worker (or coordinator) polls fast at first, then backs
  /// off exponentially to one wakeup per this many seconds (see
  /// util/clock.h PollBackoff).
  double poll_period_seconds = 0.5;
  /// Crashed workers are respawned (same id, resuming their partial)
  /// at most this many times each before the coordinator gives up.
  int max_respawns = 2;

  /// Test hook: this worker calls _exit(9) right after committing its
  /// `fail_after_shards`-th shard — before marking the lease done, so
  /// the kill lands in the claim->done crash window the reclaim logic
  /// must cover. A respawned worker restores >= that many shards from
  /// its partial and never re-fires. 0 disables.
  int fail_after_shards = 0;

  /// Graceful sibling of `fail_after_shards` for in-process tests: the
  /// worker checkpoints its partial and throws CampaignInterrupted
  /// after committing this many shards, leaving its last lease
  /// unreleased — the same claim->done crash window, without _exit.
  /// 0 disables.
  int worker_stop_after_shards = 0;

  enum class Role { kOff, kWorker, kFinalize };
  Role role() const noexcept {
    if (queue_addr.empty()) return Role::kOff;
    if (worker_id >= 0) return Role::kWorker;
    if (workers >= 1) return Role::kFinalize;
    return Role::kOff;
  }
};

/// Queue label for a campaign stream tag: a filename-safe prefix plus
/// an FNV-1a digest of the full tag, so distinct campaigns in one
/// scenario run (baseline vs mitigated arms, transient vs permanent
/// grids) get distinct queues deterministically in every process.
std::string dist_queue_label(std::string_view tag);

/// dist_queue_label under `config.queue_namespace` (see DistConfig):
/// the label the campaign server actually keys a stream tag's queue by.
std::string dist_queue_label(const DistConfig& config,
                             std::string_view tag);

/// Applies a DistConfig to one streamed campaign, scoped RAII-style
/// around the map_streamed / map_reduce_streamed call:
///
///   CampaignStreamConfig stream = config.stream;
///   DistCampaign dist(config.dist, stream_tag, stream);
///   auto result = runner.map_reduce_streamed(stream_tag, ..., stream);
///
/// Worker role: redirects the checkpoint to the worker's partial file
/// (checkpoint_every_shards = 1 so every committed shard is durable
/// before its lease is released), restores and resumes it, installs a
/// TcpTransport-backed arbiter leasing from the campaign server, and
/// runs a heartbeat thread for the scope's lifetime. Finalize role:
/// collects the partial checkpoints to merge and resumes the merged
/// file. Off: leaves `stream` untouched. Only results cross the wire;
/// per-shard walls stay in each process's trace as `shard` spans.
class DistCampaign {
 public:
  DistCampaign(const DistConfig& dist, std::string_view tag,
               CampaignStreamConfig& stream);
  ~DistCampaign();

  DistCampaign(const DistCampaign&) = delete;
  DistCampaign& operator=(const DistCampaign&) = delete;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace ftnav
