#pragma once
// Distributed campaign wiring: the per-campaign adapter that turns a
// CampaignStreamConfig whose `dist` knob (dist_config.h) names a role
// into a distributed-worker or coordinator-finalize run. The campaign
// core (CampaignRunner, campaign_runner.h) applies it to every call;
// drivers only pass the stream along.
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

/// Queue label for a campaign stream tag: a filename-safe prefix plus
/// an FNV-1a digest of the full tag, so distinct campaigns in one
/// scenario run (baseline vs mitigated arms, transient vs permanent
/// grids) get distinct queues deterministically in every process.
std::string dist_queue_label(std::string_view tag);

/// dist_queue_label under `config.queue_namespace` (see DistConfig):
/// the label the campaign server actually keys a stream tag's queue by.
std::string dist_queue_label(const DistConfig& config,
                             std::string_view tag);

/// Applies `stream.dist` to one streamed campaign, scoped RAII-style
/// around it. Its one user is CampaignRunner's campaign core, which
/// constructs it on its local copy of the call's stream:
///
///   CampaignStreamConfig stream = requested;
///   const DistCampaign role(tag, stream);
///
/// Worker role: redirects the checkpoint to the worker's partial file
/// (checkpoint_every_shards = 1 so every committed shard is durable
/// before its lease is released), restores and resumes it, installs a
/// TcpTransport-backed arbiter leasing from the campaign server, and
/// runs a heartbeat thread for the call's lifetime. Finalize role:
/// collects the partial checkpoints to merge and resumes the merged
/// file. Off: leaves `stream` untouched. Only results cross the wire;
/// per-shard walls stay in each process's trace as `shard` spans.
class DistCampaign {
 public:
  DistCampaign(std::string_view tag, CampaignStreamConfig& stream);
  ~DistCampaign();

  DistCampaign(const DistCampaign&) = delete;
  DistCampaign& operator=(const DistCampaign&) = delete;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace ftnav
