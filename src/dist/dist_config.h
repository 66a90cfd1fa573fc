#pragma once
// The distribution knob of one campaign: which process role it plays
// (off, worker, finalize) and how it talks to the campaign server.
//
// It lives in CampaignStreamConfig::dist (campaign/streaming.h), so it
// travels with the stream from the front end to every runner call, and
// the campaign core applies the role per call (see dist_campaign.h).
// This header depends on nothing of the campaign layer, so streaming.h
// can include it while dist_campaign.h includes streaming.h.

#include <string>

namespace ftnav {

/// Default-constructed it does nothing. The fault_campaign front-end
/// (run --workers, submit, attach) fills it in.
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
  /// in-process (on `--queue-addr`, default 127.0.0.1:0);
  /// submit/attach point here at a standalone daemon
  /// (`fault_campaign serve`).
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

}  // namespace ftnav
