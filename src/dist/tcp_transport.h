#pragma once
// The distributed lease protocol's client side: the framed-RPC link
// from coordinators and workers to the campaign server, which is the
// only shard queue. Workers need nothing but a route to host:port.
//
// The server side is CampaignServer (campaign_server.h): a
// single-threaded poll() loop holding the authoritative queue state —
// per campaign label the todo/claimed/done state of every shard, plus
// each worker's last *published* partial checkpoint (bitmap + raw
// bytes) and heartbeat time — optionally journaled to disk and
// guarded by a session token. `TcpWorkServer` is the embedded
// in-memory flavor of the same server (the coordinator hosts one on
// 127.0.0.1:0 for every `run --workers N` campaign). The protocol
// frames are length-prefixed util/binary_io payloads (wire_format.h):
//
//   populate   create the campaign's shard set (idempotent)
//   claim      lease up to B shards in one round-trip (batched pull)
//   done       release committed leases into done
//   heartbeat  refresh a worker's liveness
//   upload     publish a worker's partial checkpoint (the durable
//              truth reclaim consults — uploaded BEFORE done)
//   fetch      download a worker's published partial (respawn resume)
//   drain      download every partial (coordinator finalize merge)
//   reclaim    recover leases of dead/expired workers
//   hello      session-token handshake (auth-enabled servers)
//   register   record a campaign submission under its tag
//   status     registrations + per-queue progress
//   alloc      reserve a fresh worker-id range (coordinator failover)
//   stats      server metrics snapshot
//
// Telemetry never rides the protocol beyond `stats`: each process's
// per-shard walls stay in its own trace file as `shard` spans.
//
// Invariants the protocol keeps (they are what makes the merged
// checkpoint byte-identical to a single-process run for any worker
// count, batch size, and kill schedule):
//
//   - exactly-once leases: a shard is leased to at most one worker at
//     a time, across threads, processes, and hosts;
//   - the partial checkpoint is the durable truth: publish_partial()
//     makes this worker's partial (completed-shard bitmap + payload)
//     visible to reclaim *before* mark_done() releases the lease, so
//     a worker dying in the publish->done window is recovered to
//     done (the work survived) and one dying before publish is
//     recovered to todo (the shard re-runs) — never the reverse;
//   - batching never weakens either: every shard a claim reports as
//     leased is a real exclusive lease, and leases this worker has
//     not consumed yet surface again through the arbiter's next wave.
//
// A client that vanishes mid-conversation (crash, kill, network cut)
// just leaves leases assigned to its worker id; the poll loop drops
// the connection and the leases are recovered by the coordinator
// (waitpid -> forced reclaim) or by any worker's expiry reclaim —
// shards are never lost and never double-counted, because the reclaim
// decision consults the worker's last published bitmap. Caveat:
// expiry-based reclaim assumes a stale heartbeat means a *dead*
// worker; a merely wedged worker that later commits a reclaimed shard
// produces a bitmap overlap, which the merge refuses loudly instead
// of double-counting.
//
// The client (TcpTransport) keeps one connection per campaign and
// serializes request/response pairs under a mutex (campaign worker
// threads and the heartbeat thread share it). Workers keep their
// partial checkpoint in a process-local scratch directory; the server
// copy, refreshed on every publish, is the durable one.
//
// POSIX-only, like DistCoordinator; construction throws on Windows.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "dist/campaign_server.h"
#include "dist/dist_config.h"
#include "obs/metrics.h"

namespace ftnav {

/// The campaign server rejected this process's session (missing or
/// wrong FTNAV_AUTH_TOKEN / --auth-token). Thrown by the TCP client
/// on the auth status byte; front-ends catch it and exit 2 with the
/// server's diagnostic — distinct from std::runtime_error so an auth
/// failure is never mistaken for a transient connection loss and
/// never degrades into a silent lease expiry.
class TransportAuthError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// The embedded work server: CampaignServer without journal or auth,
/// exactly the pre-daemon behavior. Bind to port 0 to let the kernel
/// pick — address() reports the resolved endpoint to hand to workers.
using TcpWorkServer = CampaignServer;

/// Client-side RPC handle, usable standalone (the coordinator's
/// reclaim path, the submit/status/attach front-ends) or through
/// TcpTransport. Thread-safe; each call is one request/response
/// round-trip. Throws std::runtime_error on connection failure or a
/// server-reported error, TransportAuthError when the server rejects
/// the session.
class TcpQueueClient {
 public:
  /// Connects immediately, retrying up to `connect_attempts` times
  /// with short backoff — the default absorbs a worker racing the
  /// coordinator's server startup; callers probing a server that may
  /// be genuinely gone (the coordinator's reclaim path) pass a small
  /// count to fail fast. A non-empty `auth_token` is presented in a
  /// hello handshake before any other RPC; the constructor throws
  /// TransportAuthError right away when the server refuses it.
  explicit TcpQueueClient(const std::string& addr, int connect_attempts = 24,
                          const std::string& auth_token = std::string());
  ~TcpQueueClient();

  TcpQueueClient(const TcpQueueClient&) = delete;
  TcpQueueClient& operator=(const TcpQueueClient&) = delete;

  void populate(const std::string& label, std::size_t shard_count);

  struct ClaimReply {
    std::vector<std::size_t> leased;
    bool campaign_done = false;
  };
  /// `hint` of kNoHint asks for any shards.
  static constexpr std::size_t kNoHint = ~static_cast<std::size_t>(0);
  ClaimReply claim(const std::string& label, int worker_id,
                   std::size_t hint, std::size_t max_batch);

  /// Returns the number of leases actually released.
  std::size_t done(const std::string& label, int worker_id,
                   const std::vector<std::size_t>& shards);

  void heartbeat(int worker_id);

  void upload_partial(const std::string& label, int worker_id,
                      const std::vector<std::uint8_t>& shard_bitmap,
                      const std::string& bytes);

  /// Empty result when the worker never published a partial.
  std::string fetch_partial(const std::string& label, int worker_id);

  struct Partial {
    int worker_id = -1;
    std::string bytes;
  };
  /// Every published partial for the campaign, sorted by worker id.
  std::vector<Partial> drain_partials(const std::string& label);

  std::size_t reclaim(int worker_id, double expiry_seconds);

  /// Records a campaign submission under `tag`; idempotent for
  /// identical content, error for a conflicting resubmission.
  void register_campaign(const std::string& tag, const std::string& scenario,
                         const std::string& params);

  /// Registrations + per-queue progress (campaign_server.h structs).
  CampaignServerStatus status();

  /// Reserves `count` worker ids no previous submission ever used and
  /// returns the first — the failover primitive: an attaching
  /// coordinator's workers must never collide with ids that still own
  /// leases or published partials.
  int alloc_worker_ids(int count);

  /// Server metrics snapshot (authenticated like every non-hello RPC).
  obs::MetricsSnapshot stats();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// One campaign's view of the shard queue, bound to this process's
/// worker id: a TcpQueueClient scoped to the campaign label.
/// Constructed per campaign call by DistCampaign; the finalize
/// role uses only collect_partials() / merged_checkpoint_path().
/// Partials live in a fresh process-local scratch directory (removed
/// on destruction); the server's stored copies are the durable truth.
class TcpTransport {
 public:
  TcpTransport(const DistConfig& config, std::string_view tag);
  ~TcpTransport();

  /// One-time campaign init, idempotent and safe to call from every
  /// worker: after it returns, `shard_count` shards exist (minus any
  /// already claimed or done by earlier lives of the campaign).
  void populate(std::size_t shard_count);

  /// Leases up to `max_batch` shards for this worker, preferring
  /// `hint` when it is claimable (TcpQueueClient::kNoHint asks for
  /// any). The reply lists only shards actually leased (possibly
  /// none) and whether every shard of the campaign is globally done.
  /// Never blocks on queue emptiness. Thread-safe.
  TcpQueueClient::ClaimReply claim(std::size_t hint, std::size_t max_batch);

  /// Releases leases this worker holds into done. Call only after
  /// publish_partial() made the shards durable (see the header
  /// comment); shards already done or leased elsewhere are skipped.
  /// Thread-safe.
  void mark_done(const std::vector<std::size_t>& shards);

  /// Local file this worker's partial checkpoint lives in while the
  /// campaign runs (the streamed campaign checkpoints there after
  /// every shard).
  std::string partial_path() const;

  /// Downloads the server's copy of this worker's partial into
  /// partial_path(), replacing any stale local file a crashed
  /// previous life left behind — the server copy is what reclaim
  /// decisions were made against.
  void restore_partial();

  /// Uploads partial_path() (bitmap + bytes) to the server.
  /// Thread-safe, but the caller must not reorder a mark_done() before
  /// the publish that covers it (the dist arbiter serializes commit
  /// publication).
  void publish_partial();

  /// Heartbeat for this worker process (shared across campaigns).
  /// Thread-safe.
  void heartbeat();

  /// Recovers leases of workers whose heartbeat is older than
  /// `expiry_seconds` (a worker that never beat counts as infinitely
  /// old): each lease moves to done when the owner's published
  /// partial records the shard, back to todo otherwise. <= 0 disables
  /// the scan. Thread-safe.
  void reclaim_expired(double expiry_seconds);

  /// Finalize: local paths of every worker's partial checkpoint,
  /// sorted by worker id (drained from the server into scratch files).
  /// Workers that never claimed a shard may be absent.
  std::vector<std::string> collect_partials();

  /// Default location for the finalize-role merged checkpoint when
  /// the caller did not name one.
  std::string merged_checkpoint_path() const;

 private:
  std::string label_;
  int worker_id_;
  std::string scratch_dir_;
  TcpQueueClient client_;
};

}  // namespace ftnav
