#pragma once
// CampaignServer: the standalone campaign-service daemon. One process
// owns the shard queues for any number of campaigns durably, so
// coordinators, workers, and the server itself can each die and be
// replaced mid-campaign without losing (or double-counting) a shard.
//
// It is the TCP work server of tcp_transport.h promoted to a service:
// the same single-threaded poll() loop and length-prefixed binary-io
// frames, the same lease protocol (populate / claim / done /
// heartbeat / upload / fetch / drain / reclaim), plus three service
// layers:
//
//   journal   Every queue-state transition — populate, lease grant,
//             done release, reclaim outcome, partial upload, campaign
//             registration, worker-id reservation — is appended to an
//             on-disk journal and fsync'd BEFORE the RPC reply is
//             sent (write-and-verify discipline: nothing is
//             acknowledged that a restart would forget). On start()
//             the journal is replayed, so a SIGKILL'd server restarted
//             on the same file resumes exactly where it left off.
//             Heartbeats are deliberately NOT journaled: after a
//             restart every in-flight worker's liveness is unknown,
//             which the lease protocol already treats correctly — an
//             unknown heartbeat is infinitely old, so a dead owner's
//             leases fall to the next expiry reclaim while live
//             workers re-beat within one heartbeat period.
//
//   auth      When a session token is configured, clients must open
//             each connection with a hello(token) handshake; any other
//             opcode on an unauthenticated connection is rejected with
//             a distinct auth status byte BEFORE touching queue state.
//             Clients surface that as TransportAuthError
//             (tcp_transport.h) — a diagnosed front-end exit, never
//             a silent lease expiry.
//
//   tenancy   Queues are keyed by campaign label (dist_queue_label of
//             the submission tag), so many campaigns — and many
//             submitting clients — multiplex one daemon. register /
//             status / alloc_workers RPCs let a failover coordinator
//             `attach`: look up the registered scenario + canonical
//             params by tag, reserve worker ids no previous life ever
//             used, and drive the normal finalize merge.
//
// Journal file format: an 8-byte magic ("FTNAVJNL") + u32 version,
// then u32 length-prefixed records (util/binary_io fields, first byte
// = record type). A torn final record — the crash landed mid-append —
// is ignored on replay. Reclaims are journaled by OUTCOME (which
// shards went to done, which back to todo), not by request, so replay
// never re-evaluates heartbeat ages that no longer exist.
//
// POSIX-only, like the rest of the dist layer; construction throws on
// Windows.

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

namespace ftnav {

struct CampaignServerConfig {
  /// "host:port"; host may be empty for 0.0.0.0, port 0 lets the
  /// kernel pick (address() reports the resolved endpoint).
  std::string bind_addr;
  /// Journal file path; empty runs in-memory only (the pre-daemon
  /// TcpWorkServer behavior). The file is created on first start and
  /// may be handed to any later server process to resume from.
  std::string journal_path;
  /// Session token; empty disables authentication.
  std::string auth_token;
};

/// One registered campaign submission (the attach contract).
struct CampaignRegistration {
  std::string tag;       // submission tag (queue label derives from it)
  std::string scenario;  // registered scenario name
  std::string params;    // canonical() parameter string
};

/// Progress snapshot of one shard queue.
struct CampaignQueueStatus {
  std::string label;
  std::size_t shards = 0;
  std::size_t done = 0;
  std::size_t leased = 0;
  std::size_t partials = 0;  // published partial checkpoints
};

struct CampaignServerStatus {
  std::vector<CampaignRegistration> campaigns;  // sorted by tag
  std::vector<CampaignQueueStatus> queues;      // sorted by label
};

/// The daemon. start() replays the journal (if any), binds, listens,
/// and runs the poll loop on a background thread; stop() (or
/// destruction) shuts it down — queue state survives in the journal.
class CampaignServer {
 public:
  explicit CampaignServer(CampaignServerConfig config);
  /// In-memory, unauthenticated server — the embedded work server the
  /// coordinator hosts for single-submission runs (TcpWorkServer).
  explicit CampaignServer(std::string bind_addr);
  ~CampaignServer();

  CampaignServer(const CampaignServer&) = delete;
  CampaignServer& operator=(const CampaignServer&) = delete;

  /// Throws std::runtime_error when the address cannot be bound or
  /// the journal cannot be opened/replayed.
  void start();
  void stop();

  /// Resolved "host:port" (real port when bound to 0). Valid after
  /// start().
  std::string address() const;
  int port() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace ftnav
