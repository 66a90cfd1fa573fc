#pragma once
// Coordinator side of a distributed campaign: spawn N worker
// processes (fork/exec of the same binary in worker mode), babysit
// them, and recover their work when they die.
//
// The coordinator owns no campaign state — the campaign server at
// DistConfig::queue_addr is the only shared medium. Its whole job is
// process lifecycle:
//
//   - spawn worker k with the command the front-end builds (typically
//     the coordinator's own argv plus `--worker-id k --queue-addr A`,
//     or the same binary with FTNAV_WORKER_ID in the environment);
//   - on a worker's non-zero exit (crash, kill, _exit), immediately
//     reclaim its leases across every campaign on the server
//     (committed shards move to done, the rest back to todo — see
//     tcp_transport.h) and respawn it under the same worker id, so
//     the replacement resumes the dead worker's partial checkpoint;
//   - periodically reclaim leases whose heartbeat expired, covering
//     workers on other hosts the coordinator cannot waitpid;
//   - return once every worker exited cleanly — workers only do that
//     when every shard of every campaign they ran is globally done.
//
// After run() returns, the front-end re-runs the experiment driver
// with DistConfig in the finalize role, which merges the partial
// checkpoints and yields the final result without re-running trials.

#include <functional>
#include <string>
#include <vector>

#include "dist/dist_campaign.h"

namespace ftnav {

class DistCoordinator {
 public:
  explicit DistCoordinator(DistConfig config);

  /// What to exec for one worker: argv (argv[0] is the binary) plus
  /// extra "NAME=VALUE" environment entries set in the child.
  struct Command {
    std::vector<std::string> argv;
    std::vector<std::string> env;
  };

  /// Spawns `config.workers` workers and blocks until all of them
  /// exited cleanly. Throws std::runtime_error when a worker keeps
  /// failing after `config.max_respawns` respawns (remaining workers
  /// are killed first) or when this platform cannot spawn processes.
  void run(const std::function<Command(int worker_id)>& command_for) const;

 private:
  DistConfig config_;
};

}  // namespace ftnav
